// Microbench for the simulator's event-queue hot path.
//
// Replays the same seeded push / cancel / pop churn against the indexed
// 4-ary heap (sim::EventQueue) and against a faithful replica of the
// pre-overhaul queue (std::function callbacks, std::priority_queue with an
// unordered_set of live ids, lazy cancellation with a dead-event scan in
// both next_time() and pop()). Callbacks capture three pointers so they
// exceed std::function's typical small-buffer size — matching the
// simulator's real callbacks, which capture `this` plus request state.
//
// A second case replays the straggler scheduler's latency-histogram churn:
// reads arrive in bursts of 16 (one job's strips), each reply records one
// sample and every read asks for the median. It runs against
// sim::Histogram (sorted prefix plus unsorted tail) and against a replica
// of the pre-change histogram that re-sorts every sample on the first
// query after any record.
//
// Deliberately not a google-benchmark binary: it emits one JSON document
// (BENCH_simkit.json by default) with events/sec for both engines, ns/read
// for both histograms and the speedup ratios, which CI uploads as an
// artifact. Exits 2 if the histogram speedup falls below 10x.
//
// Usage: bench_simkit_hotpath [--events=N] [--out=FILE]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "simkit/event_queue.hpp"
#include "simkit/random.hpp"
#include "simkit/stats.hpp"
#include "simkit/time.hpp"

namespace {

// The event engine as it existed before the indexed-heap overhaul, kept
// here verbatim (minus tracing hooks) so the comparison never drifts.
class LegacyEventQueue {
 public:
  struct Event {
    das::sim::SimTime when = 0;
    std::uint64_t id = 0;
    std::function<void()> action;
    const char* tag = "";
  };

  std::uint64_t push(das::sim::SimTime when, std::function<void()> action,
                     const char* tag) {
    const std::uint64_t id = next_id_++;
    heap_.push(Event{when, id, std::move(action), tag});
    pending_.insert(id);
    return id;
  }

  bool cancel(std::uint64_t id) { return pending_.erase(id) > 0; }

  [[nodiscard]] bool empty() const { return pending_.empty(); }

  [[nodiscard]] das::sim::SimTime next_time() const {
    drop_dead();
    return heap_.top().when;
  }

  Event pop() {
    drop_dead();
    Event ev = heap_.top();
    heap_.pop();
    pending_.erase(ev.id);
    return ev;
  }

 private:
  struct Order {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.id > b.id;
    }
  };

  void drop_dead() const {
    while (!heap_.empty() && !pending_.contains(heap_.top().id)) {
      heap_.pop();
    }
  }

  mutable std::priority_queue<Event, std::vector<Event>, Order> heap_;
  std::unordered_set<std::uint64_t> pending_;
  std::uint64_t next_id_ = 0;
};

struct ChurnResult {
  std::uint64_t delivered = 0;
  std::uint64_t checksum = 0;
  double seconds = 0.0;
};

// One simulator-shaped workload step: keep a backlog of scheduled events,
// deliver the earliest, and from inside the callback schedule a few more
// and cancel a recent one — the schedule/cancel/reschedule pattern the
// NIC and disk models follow. Identical sequence for both queues.
template <typename Queue, typename MakeAction>
ChurnResult run_churn(std::uint64_t total_events, MakeAction make_action) {
  Queue queue;
  das::sim::Rng rng(0xC0FFEE);
  std::uint64_t checksum = 0;
  std::uint64_t scheduled = 0;
  std::vector<std::uint64_t> recent_ids;
  das::sim::SimTime now = 0;

  const auto schedule = [&](das::sim::SimTime at) {
    const std::uint64_t id =
        queue.push(at, make_action(&checksum, &scheduled, &now), "churn");
    ++scheduled;
    recent_ids.push_back(id);
    if (recent_ids.size() > 64) {
      recent_ids.erase(recent_ids.begin(), recent_ids.begin() + 32);
    }
  };

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 256; ++i) {
    schedule(static_cast<das::sim::SimTime>(rng.uniform_int(0, 1000)));
  }
  std::uint64_t delivered = 0;
  while (delivered < total_events && !queue.empty()) {
    now = queue.next_time();
    auto ev = queue.pop();
    ev.action();
    ++delivered;
    // Refill and churn: two fresh events (some at the current timestamp to
    // exercise FIFO ties) and one cancellation of a recent id.
    schedule(now + static_cast<das::sim::SimTime>(rng.uniform_int(0, 500)));
    if (rng.bernoulli(0.5)) {
      schedule(now);
    }
    if (!recent_ids.empty() && rng.bernoulli(0.25)) {
      queue.cancel(recent_ids[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(recent_ids.size()) - 1))]);
    }
  }
  const auto stop = std::chrono::steady_clock::now();

  ChurnResult result;
  result.delivered = delivered;
  result.checksum = checksum;
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

// sim::Histogram as it existed before the sorted-prefix change, kept here
// verbatim (minus the members the churn does not call) so the comparison
// never drifts: every record clears the sorted flag, and the next query
// sorts the whole history.
class LegacyHistogram {
 public:
  void record(double sample) {
    samples_.push_back(sample);
    sorted_ = samples_.size() <= 1;
  }

  [[nodiscard]] std::size_t count() const { return samples_.size(); }

  [[nodiscard]] double quantile(double q) const {
    ensure_sorted();
    if (q == 0.0) return samples_.front();
    const auto n = samples_.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(n)));
    return samples_[rank - 1];
  }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

struct HistChurnResult {
  double median_sum = 0.0;  // sum of every median read, for cross-checking
  double seconds = 0.0;
};

// The straggler scheduler's pattern: a job's `burst` reads each take the
// median (re-route check / hedge timer), then their replies record one
// latency each. Latencies take 256 distinct values, as the simulator's
// deterministic service times give its histograms few distinct values.
template <typename Hist>
HistChurnResult run_hist_churn(std::uint64_t reads, std::uint64_t burst) {
  Hist hist;
  das::sim::Rng rng(0xB0257);
  HistChurnResult result;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < reads; i += burst) {
    if (hist.count() > 0) {
      for (std::uint64_t b = 0; b < burst; ++b) {
        result.median_sum += hist.quantile(0.5);
      }
    }
    for (std::uint64_t b = 0; b < burst; ++b) {
      hist.record(static_cast<double>(rng.next_u64() >> 56) * 1e-4);
    }
  }
  const auto stop = std::chrono::steady_clock::now();
  result.seconds = std::chrono::duration<double>(stop - start).count();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 2'000'000;
  std::string out_path = "BENCH_simkit.json";
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--events=", 9) == 0) {
      events = std::strtoull(arg + 9, nullptr, 10);
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--events=N] [--out=FILE]\n", argv[0]);
      return 1;
    }
  }

  // Three captured pointers (24 bytes) defeat std::function's small-buffer
  // storage on common ABIs but fit InplaceFn's 64-byte inline slot.
  const auto make_action = [](std::uint64_t* checksum,
                              std::uint64_t* scheduled,
                              das::sim::SimTime* now) {
    return [checksum, scheduled, now]() {
      *checksum += *scheduled + static_cast<std::uint64_t>(*now);
    };
  };

  // Warm-up pass (untimed) so the allocator and caches settle, then the
  // measured passes, legacy first.
  run_churn<LegacyEventQueue>(events / 10, make_action);
  run_churn<das::sim::EventQueue>(events / 10, make_action);

  const ChurnResult legacy = run_churn<LegacyEventQueue>(events, make_action);
  const ChurnResult fresh = run_churn<das::sim::EventQueue>(events,
                                                            make_action);

  if (legacy.checksum != fresh.checksum ||
      legacy.delivered != fresh.delivered) {
    std::fprintf(stderr,
                 "FAIL: engines diverged (legacy %llu/%llu, new %llu/%llu)\n",
                 static_cast<unsigned long long>(legacy.delivered),
                 static_cast<unsigned long long>(legacy.checksum),
                 static_cast<unsigned long long>(fresh.delivered),
                 static_cast<unsigned long long>(fresh.checksum));
    return 1;
  }

  const double legacy_eps =
      static_cast<double>(legacy.delivered) / legacy.seconds;
  const double fresh_eps =
      static_cast<double>(fresh.delivered) / fresh.seconds;
  const double speedup = fresh_eps / legacy_eps;

  // Histogram churn: warm-up, then legacy first, as for the queues.
  constexpr std::uint64_t kHistReads = 32'768;
  constexpr std::uint64_t kBurst = 16;
  run_hist_churn<LegacyHistogram>(kHistReads / 10, kBurst);
  run_hist_churn<das::sim::Histogram>(kHistReads / 10, kBurst);
  const HistChurnResult hist_legacy =
      run_hist_churn<LegacyHistogram>(kHistReads, kBurst);
  const HistChurnResult hist_fresh =
      run_hist_churn<das::sim::Histogram>(kHistReads, kBurst);
  if (hist_legacy.median_sum != hist_fresh.median_sum) {
    std::fprintf(stderr,
                 "FAIL: histograms diverged (legacy median sum %.17g, "
                 "new %.17g)\n",
                 hist_legacy.median_sum, hist_fresh.median_sum);
    return 1;
  }
  const double reads_d = static_cast<double>(kHistReads);
  const double hist_legacy_ns = hist_legacy.seconds * 1e9 / reads_d;
  const double hist_fresh_ns = hist_fresh.seconds * 1e9 / reads_d;
  const double hist_speedup = hist_legacy_ns / hist_fresh_ns;

  char json[1024];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"bench\": \"simkit_hotpath\",\n"
      "  \"events\": %llu,\n"
      "  \"checksum\": %llu,\n"
      "  \"new\": {\"events_per_sec\": %.0f, \"ns_per_event\": %.2f},\n"
      "  \"legacy\": {\"events_per_sec\": %.0f, \"ns_per_event\": %.2f},\n"
      "  \"speedup\": %.3f,\n"
      "  \"histogram\": {\"reads\": %llu, \"burst\": %llu, "
      "\"new_ns_per_read\": %.2f, \"legacy_ns_per_read\": %.2f, "
      "\"speedup\": %.3f}\n"
      "}\n",
      static_cast<unsigned long long>(fresh.delivered),
      static_cast<unsigned long long>(fresh.checksum), fresh_eps,
      1e9 / fresh_eps, legacy_eps, 1e9 / legacy_eps, speedup,
      static_cast<unsigned long long>(kHistReads),
      static_cast<unsigned long long>(kBurst), hist_fresh_ns, hist_legacy_ns,
      hist_speedup);

  std::printf("%s", json);
  std::ofstream out(out_path);
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  // Gate: the sorted-prefix histogram must stay well clear of the
  // full-resort replica on the straggler scheduler's access pattern.
  if (hist_speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: histogram churn speedup %.2fx is below 10x\n",
                 hist_speedup);
    return 2;
  }
  return 0;
}
