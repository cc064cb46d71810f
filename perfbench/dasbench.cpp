// dasbench: the process side of the whole-process benchmark (run.py).
//
// One invocation is one fresh process doing one thing, like one das_sim
// run:
//
//   dasbench pass  <workload> <seed> [--trace] [--unarmed]
//       one pass over every cell of the workload, through the library's
//       public entry points (core::run_scheme, run_list_scheme,
//       run_pipeline, traffic::run_traffic);
//   dasbench check <workload> <seed> <cell>
//       run one cell twice in this process and report whether the two
//       results are identical;
//   dasbench probe <workload> <seed> --events N --reads R
//       the standalone layer probes that use this workload's input shape;
//   dasbench probe-create-file <seed> <cell>
//       Pfs::create_file of one paper-sweep cell's input, alone in a fresh
//       process so its peak RSS growth is the file's host state;
//   dasbench info
//       build type and active kernel ISA.
//
// Everything is written to stdout as JSON lines ({"type": ...}); run.py
// parses them. With --trace the pass records a span around each call the
// driver makes into a layer and prints the spans when the pass ends.
#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hpp"
#include "core/distribution_planner.hpp"
#include "core/list_access.hpp"
#include "core/metrics.hpp"
#include "core/scheme.hpp"
#include "core/workload.hpp"
#include "grid/serialize.hpp"
#include "kernels/registry.hpp"
#include "kernels/simd.hpp"
#include "pfs/layout.hpp"
#include "simkit/context.hpp"
#include "simkit/simulator.hpp"
#include "simkit/stats.hpp"
#include "telemetry/plane.hpp"
#include "traffic/arrivals.hpp"
#include "traffic/engine.hpp"

#ifndef DASBENCH_BUILD_TYPE
#define DASBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace das;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::uint64_t peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

// ---------------------------------------------------------------- JSON out

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// One JSON object, built field by field and printed as one line.
class Line {
 public:
  explicit Line(const char* type)
      : text_("{\"type\":\"" + std::string(type) + '"') {}

  Line& str(const char* key, const std::string& value) {
    return raw(key, '"' + escape(value) + '"');
  }
  Line& num(const char* key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return raw(key, buf);
  }
  Line& u64(const char* key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  Line& flag(const char* key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  Line& raw(const char* key, const std::string& json) {
    text_ += ",\"" + std::string(key) + "\":" + json;
    return *this;
  }

  void print() {
    text_ += "}\n";
    std::fputs(text_.c_str(), stdout);
    std::fflush(stdout);
  }

 private:
  std::string text_;
};

// ----------------------------------------------------------------- spans

/// In-memory span recorder. Disabled, it records nothing.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  std::uint64_t open(const std::string& name, const char* layer) {
    if (!enabled_) return 0;
    const std::uint64_t parent = stack_.empty() ? 0 : stack_.back();
    spans_.push_back(
        Span{spans_.size() + 1, parent, name, layer, now_ns(), 0});
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void close(std::uint64_t id) {
    if (!enabled_) return;
    spans_[id - 1].end_ns = now_ns();
    stack_.pop_back();
  }

  /// A child whose duration the program reported but whose position inside
  /// `parent` it did not: placed so it ends where its parent ends.
  void add_reported(std::uint64_t parent, const std::string& name,
                    const char* layer, double seconds) {
    if (!enabled_ || parent == 0) return;
    const std::int64_t end = spans_[parent - 1].end_ns;
    const auto dur = static_cast<std::int64_t>(seconds * 1e9);
    spans_.push_back(
        Span{spans_.size() + 1, parent, name, layer, end - dur, end});
  }

  void print() const {
    if (!enabled_) return;
    std::string json = "[";
    for (const Span& s : spans_) {
      if (json.size() > 1) json += ',';
      json += "{\"id\":" + std::to_string(s.id) +
              ",\"parent\":" + std::to_string(s.parent) + ",\"name\":\"" +
              escape(s.name) + "\",\"layer\":\"" + s.layer +
              "\",\"start_ns\":" + std::to_string(s.start_ns) +
              ",\"end_ns\":" + std::to_string(s.end_ns) + '}';
    }
    json += ']';
    Line("spans").raw("spans", json).print();
  }

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    const char* layer = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> stack_;
};

/// RAII span around one call into a layer.
class Scope {
 public:
  Scope(Spans& spans, const std::string& name, const char* layer)
      : spans_(spans), id_(spans.open(name, layer)) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Close the span now rather than at scope exit.
  void end() {
    if (open_) spans_.close(id_);
    open_ = false;
  }

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  Spans& spans_;
  std::uint64_t id_;
  bool open_ = true;
};

// ------------------------------------------------------------- workloads

core::ClusterConfig cluster_of(std::uint32_t total_nodes, std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.storage_nodes = total_nodes / 2;
  cfg.compute_nodes = total_nodes / 2;
  cfg.seed = seed;
  return cfg;
}

/// Paper geometry: 1 MiB strips, 4-byte elements, one raster row one
/// element short of a strip (das_sim's timing-mode default).
core::WorkloadSpec paper_workload(const std::string& kernel,
                                  std::uint64_t gib, std::uint64_t seed) {
  core::WorkloadSpec spec;
  spec.kernel_name = kernel;
  spec.data_bytes = gib << 30;
  spec.strip_size = 1ULL << 20;
  spec.element_size = 4;
  spec.raster_width =
      static_cast<std::uint32_t>(spec.strip_size / spec.element_size) - 1;
  spec.seed = seed;
  return spec;
}

/// verified-raster geometry: 32 MiB rasters 4096 cells wide, 64 KiB strips.
core::WorkloadSpec raster_workload(const std::string& kernel,
                                   std::uint64_t seed) {
  core::WorkloadSpec spec;
  spec.kernel_name = kernel;
  spec.data_bytes = 32ULL << 20;
  spec.strip_size = 64ULL << 10;
  spec.element_size = 4;
  spec.raster_width = 4096;
  spec.with_data = true;
  spec.seed = seed;
  return spec;
}

/// One classic cell: a call into one of the three classic run paths.
struct ClassicCell {
  enum class Path { kScheme, kList, kPipeline };

  std::string name;
  Path path = Path::kScheme;
  core::SchemeRunOptions options;
  core::AccessSpec access;          // kList
  std::vector<std::string> chain;   // kPipeline
};

ClassicCell scheme_cell(std::string name, core::Scheme scheme,
                        core::WorkloadSpec workload,
                        core::ClusterConfig cluster) {
  ClassicCell cell;
  cell.name = std::move(name);
  cell.options.scheme = scheme;
  cell.options.workload = std::move(workload);
  cell.options.cluster = std::move(cluster);
  return cell;
}

std::vector<ClassicCell> paper_sweep_cells(std::uint64_t seed) {
  using core::Scheme;
  const core::ClusterConfig cluster = cluster_of(24, seed);
  std::vector<ClassicCell> cells;
  for (const Scheme s : {Scheme::kTS, Scheme::kNAS, Scheme::kDAS}) {
    std::string name = core::to_string(s);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    cells.push_back(scheme_cell(name + "-flow-384g", s,
                                paper_workload("flow-routing", 384, seed),
                                cluster));
  }

  ClassicCell cached = scheme_cell(
      "nas-cache-60g", Scheme::kNAS, paper_workload("flow-routing", 60, seed),
      cluster);
  cached.options.repeat_count = 4;
  cached.options.cluster.server_cache.enabled = true;
  cached.options.cluster.server_cache.capacity_bytes = 16ULL << 30;
  cached.options.cluster.server_cache.policy = "lru";
  cached.options.cluster.prefetch.enabled = true;
  cached.options.cluster.prefetch.depth = 8;
  cached.options.cluster.pipeline_window = 1;
  cells.push_back(std::move(cached));

  ClassicCell strided = scheme_cell("ts-strided8-384g", Scheme::kTS,
                                    paper_workload("flow-routing", 384, seed),
                                    cluster);
  strided.path = ClassicCell::Path::kList;
  strided.access = core::AccessSpec::parse("strided:8");
  cells.push_back(std::move(strided));

  ClassicCell pipeline = scheme_cell(
      "das-pipeline-60g", Scheme::kDAS,
      paper_workload("flow-routing", 60, seed), cluster);
  pipeline.path = ClassicCell::Path::kPipeline;
  pipeline.chain = {"flow-routing", "flow-accumulation"};
  cells.push_back(std::move(pipeline));
  return cells;
}

std::vector<ClassicCell> verified_raster_cells(std::uint64_t seed) {
  using core::Scheme;
  const core::ClusterConfig cluster = cluster_of(8, seed);
  return {
      scheme_cell("ts-flow-32m", Scheme::kTS,
                  raster_workload("flow-routing", seed), cluster),
      scheme_cell("nas-flow-32m", Scheme::kNAS,
                  raster_workload("flow-routing", seed), cluster),
      scheme_cell("das-flow-32m", Scheme::kDAS,
                  raster_workload("flow-routing", seed), cluster),
      scheme_cell("das-gauss-32m", Scheme::kDAS,
                  raster_workload("gaussian-2d", seed), cluster),
  };
}

std::vector<core::RunReport> run_classic(const ClassicCell& cell) {
  switch (cell.path) {
    case ClassicCell::Path::kScheme:
      return {core::run_scheme(cell.options)};
    case ClassicCell::Path::kList: {
      core::ListRunOptions o;
      o.scheme = cell.options.scheme;
      o.workload = cell.options.workload;
      o.access = cell.access;
      o.cluster = cell.options.cluster;
      o.distribution = cell.options.distribution;
      return {core::run_list_scheme(o)};
    }
    case ClassicCell::Path::kPipeline:
      return core::run_pipeline(cell.options, cell.chain);
  }
  throw std::logic_error("unknown cell path");
}

/// tenant-storm: 1000 open-loop tenants on a 6 GiB replicated dataset with
/// every contention control on and the telemetry plane armed.
struct Storm {
  traffic::TrafficConfig config;
  telemetry::PlaneConfig plane;
  bool armed = true;
};

Storm tenant_storm(std::uint64_t seed, bool armed) {
  Storm storm;
  traffic::TrafficConfig& c = storm.config;
  c.cluster = cluster_of(24, seed);
  c.cluster.straggler_count = 2;
  c.cluster.straggler_slowdown = 32.0;
  c.arrivals.tenants = 1000;
  c.arrivals.jobs_per_tenant = 2;
  c.arrivals.rate_hz = 0.05;
  c.arrivals.job_bytes = 16ULL << 20;
  c.arrivals.strip_bytes = 1ULL << 20;
  c.arrivals.datasets = 1;
  c.arrivals.dataset_strips = (6ULL << 30) / c.arrivals.strip_bytes;
  c.arrivals.seed = seed;
  c.replication = 2;
  c.fair_queue = true;
  c.straggler.reroute = true;
  c.straggler.hedge = true;

  storm.armed = armed;
  storm.plane.metrics = true;
  storm.plane.sample_period = sim::milliseconds(50);
  storm.plane.spans = true;
  storm.plane.span_sample = 16;
  storm.plane.slo.target_s = 0.200;
  storm.plane.slo.max_tenants = 1000;
  return storm;
}

std::uint64_t storm_session(std::uint64_t seed) {
  return telemetry::session_hash("perfbench;tenant-storm;seed=" +
                                 std::to_string(seed));
}

struct StormResult {
  traffic::TrafficReport report;
  std::uint64_t spans_finished = 0;
};

StormResult run_storm(const Storm& storm, std::uint64_t seed) {
  sim::RunContext context;
  context.session = storm_session(seed);
  std::unique_ptr<telemetry::Plane> plane;
  if (storm.armed) {
    plane = std::make_unique<telemetry::Plane>(storm.plane);
    context.telemetry = plane.get();
  }
  traffic::TrafficConfig config = storm.config;
  config.context = &context;
  StormResult result{traffic::run_traffic(config), 0};
  if (plane != nullptr) result.spans_finished = plane->spans().spans_finished();
  return result;
}

bool is_workload(const std::string& w) {
  return w == "paper-sweep" || w == "tenant-storm" || w == "verified-raster";
}

std::vector<ClassicCell> classic_cells(const std::string& workload,
                                       std::uint64_t seed) {
  return workload == "paper-sweep" ? paper_sweep_cells(seed)
                                   : verified_raster_cells(seed);
}

// ---------------------------------------------------------------- passes

std::string rows_json(const std::vector<core::RunReport>& reports) {
  std::string json = "[";
  for (const core::RunReport& r : reports) {
    if (json.size() > 1) json += ',';
    json += '"' + escape(core::to_csv(r)) + '"';
  }
  return json + ']';
}

void emit_classic(const ClassicCell& cell,
                  const std::vector<core::RunReport>& reports, double run_s) {
  // A pipeline's last report is the combined one: it carries the whole
  // simulation's loop time, events and traffic.
  const core::RunReport& total = reports.back();
  bool verified = true;
  for (const core::RunReport& r : reports) {
    verified = verified && r.output_verified;
  }
  Line("cell")
      .str("cell", cell.name)
      .num("run_s", run_s)
      .num("loop_s", total.wall_seconds)
      .u64("events", total.sim_events)
      .flag("verified", verified)
      .u64("cli_srv_bytes", total.client_server_bytes)
      .u64("srv_srv_bytes", total.server_server_bytes)
      .u64("control_msgs", total.control_messages)
      .num("nic_util", total.server_nic_utilization)
      .num("disk_util", total.server_disk_utilization)
      .u64("cache_hits", total.cache_hits)
      .u64("cache_misses", total.cache_misses)
      .u64("cache_evictions", total.cache_evictions)
      .u64("prefetch_issued", total.prefetch_issued)
      .u64("prefetch_hits", total.prefetch_hits)
      .flag("list", cell.path == ClassicCell::Path::kList)
      .raw("rows", rows_json(reports))
      .print();
}

/// `slo` is the report's SLO table, rendered as das_sim renders it; only its
/// FNV-1a hash and its last ("all") row leave the process.
void emit_storm(const StormResult& r, const std::string& slo,
                std::uint64_t scheduled, double run_s, double schedule_s) {
  const traffic::TrafficReport& t = r.report;
  const std::size_t all_row = slo.rfind('\n', slo.size() - 2) + 1;
  Line("cell")
      .str("cell", "storm")
      .num("run_s", run_s)
      .num("schedule_s", schedule_s)
      .num("makespan_s", t.makespan_s)
      .u64("events", t.events)
      .u64("scheduled", scheduled)
      .u64("jobs", t.total.jobs_completed)
      .u64("reads", t.reads_issued)
      .u64("reroutes", t.reroutes)
      .u64("hedges", t.hedges_issued)
      .u64("hedges_won", t.hedges_won)
      .u64("wasted_bytes", t.wasted_bytes)
      .u64("wfq_msgs", t.nic_scheduled)
      .u64("wfq_reads", t.disk_scheduled)
      .u64("slo_alerts", t.slo_alerts)
      .u64("spans_finished", r.spans_finished)
      .str("slo_fnv1a", telemetry::session_hex(telemetry::session_hash(slo)))
      .str("slo_all_row", slo.substr(all_row, slo.size() - 1 - all_row))
      .print();
}

void emit_error(const std::string& cell, const std::string& what) {
  Line("cell").str("cell", cell).str("error", what).print();
}

int pass(const std::string& workload, std::uint64_t seed, bool trace,
         bool armed) {
  Spans spans(trace);
  {
    Scope root(spans, "pass:" + workload, "bench");
    if (workload == "tenant-storm") {
      try {
        const Storm storm = tenant_storm(seed, armed);
        std::int64_t t0 = now_ns();
        std::uint64_t scheduled = 0;
        {
          Scope s(spans, "traffic.generate_poisson", "traffic");
          scheduled = traffic::generate_poisson(storm.config.arrivals).size();
        }
        const double schedule_s = seconds_since(t0);
        t0 = now_ns();
        std::optional<StormResult> result;
        {
          Scope s(spans, "traffic.run_traffic:storm", "traffic");
          result = run_storm(storm, seed);
        }
        const double run_s = seconds_since(t0);
        std::string slo;
        {
          Scope s(spans, "traffic.slo_csv", "traffic");
          slo = result->report.slo_csv();
        }
        emit_storm(*result, slo, scheduled, run_s, schedule_s);
      } catch (const std::exception& e) {
        emit_error("storm", e.what());
      }
    } else {
      for (const ClassicCell& cell : classic_cells(workload, seed)) {
        try {
          const std::int64_t t0 = now_ns();
          Scope s(spans, "core:" + cell.name, "core");
          const std::vector<core::RunReport> reports = run_classic(cell);
          s.end();
          const double run_s = seconds_since(t0);
          spans.add_reported(s.id(), "simkit.loop:" + cell.name, "simkit",
                             reports.back().wall_seconds);
          emit_classic(cell, reports, run_s);
        } catch (const std::exception& e) {
          emit_error(cell.name, e.what());
        }
      }
    }
  }
  spans.print();
  return 0;
}

/// Run `cell` of the workload twice in this process and compare results.
int check(const std::string& workload, std::uint64_t seed,
          const std::string& cell_name) {
  std::string first, second;
  for (int round = 0; round < 2; ++round) {
    std::string signature;
    if (workload == "tenant-storm") {
      const StormResult r = run_storm(tenant_storm(seed, true), seed);
      signature = r.report.slo_csv() + std::to_string(r.report.events) + ',' +
                  std::to_string(r.report.reads_issued) + ',' +
                  std::to_string(r.report.hedges_won) + ',' +
                  std::to_string(r.spans_finished);
    } else {
      for (const ClassicCell& cell : classic_cells(workload, seed)) {
        if (cell.name != cell_name) continue;
        for (const core::RunReport& r : run_classic(cell)) {
          signature += core::to_csv(r) + '\n';
        }
      }
      if (signature.empty()) {
        throw std::invalid_argument("no " + workload + " cell " + cell_name);
      }
    }
    (round == 0 ? first : second) = std::move(signature);
  }
  Line("check")
      .str("cell", cell_name)
      .flag("identical", first == second)
      .print();
  return 0;
}

// ---------------------------------------------------------------- probes

template <typename Fn>
double timed(Fn&& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  return seconds_since(t0);
}

void emit_probe(const std::string& name, double value) {
  Line("probe").str("name", name).num("value", value).print();
}

/// No-op events through sim::Simulator: `events` deliveries with 4096
/// events pending, each firing event scheduling its successor.
double probe_queue_ns(std::uint64_t events) {
  struct Replay {
    sim::Simulator sim;
    std::uint64_t target = 0;
    std::uint64_t scheduled = 0;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;

    void next() {
      if (scheduled >= target) return;
      ++scheduled;
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      sim.schedule_after(static_cast<sim::SimDuration>(1 + (rng >> 44)),
                         [this]() { next(); }, "probe");
    }
  };
  auto replay = std::make_unique<Replay>();
  replay->target = events;
  const double s = timed([&]() {
    for (int i = 0; i < 4096; ++i) replay->next();
    replay->sim.run();
  });
  if (replay->sim.events_delivered() != events) {
    throw std::runtime_error("queue probe delivered the wrong event count");
  }
  return s * 1e9 / static_cast<double>(events);
}

double probe_hist_record_ns(std::uint64_t samples) {
  sim::Histogram h;
  std::uint64_t rng = 12345;
  const double s = timed([&]() {
    for (std::uint64_t i = 0; i < samples; ++i) {
      rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
      h.record(static_cast<double>(rng >> 40) * 1e-6);
    }
  });
  if (h.count() != samples) throw std::runtime_error("histogram lost samples");
  return s * 1e9 / static_cast<double>(samples);
}

/// Interleaved record + quantile(0.5) as the straggler scheduler does them:
/// a job issues its `burst` strip reads at once (one quantile per read,
/// which sorts only after new samples), and each reply records one sample.
/// Samples take 256 distinct values, as deterministic service times give
/// the simulator's latency histograms few distinct values.
double probe_hist_quantile_ns(std::uint64_t reads, std::uint64_t burst) {
  sim::Histogram h;
  std::uint64_t rng = 54321;
  double sink = 0.0;
  const double s = timed([&]() {
    for (std::uint64_t i = 0; i < reads; i += burst) {
      for (std::uint64_t b = 0; b < burst; ++b) {
        rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
        h.record(static_cast<double>(rng >> 56) * 1e-4);
      }
      for (std::uint64_t b = 0; b < burst; ++b) sink += h.quantile(0.5);
    }
  });
  if (!(sink >= 0.0)) throw std::runtime_error("bad quantile");
  return s * 1e9 / static_cast<double>(reads);
}

std::unique_ptr<pfs::Layout> input_layout(const ClassicCell& cell,
                                          const pfs::FileMeta& meta) {
  const std::uint32_t servers = cell.options.cluster.storage_nodes;
  if (cell.options.scheme == core::Scheme::kDAS &&
      cell.path != ClassicCell::Path::kList) {
    const auto kernel =
        kernels::standard_registry().create(cell.options.workload.kernel_name);
    const auto offsets = kernel->features().resolve(meta.raster_width);
    const core::DistributionPlanner planner(cell.options.distribution);
    if (const auto spec = planner.plan(meta, offsets, servers)) {
      return spec->make_layout();
    }
  }
  return std::make_unique<pfs::RoundRobinLayout>(servers);
}

int probe_create_file(std::uint64_t seed, const std::string& name) {
  for (const ClassicCell& cell : paper_sweep_cells(seed)) {
    if (cell.name != name) continue;
    core::Cluster cluster(cell.options.cluster);
    pfs::FileMeta meta = cell.options.workload.make_meta("input");
    const std::uint64_t strips = meta.num_strips();
    auto layout = input_layout(cell, meta);
    const std::uint64_t rss_before = peak_rss_kib();
    const double s = timed([&]() {
      (void)cluster.pfs().create_file(std::move(meta), std::move(layout));
    });
    Line("create_file")
        .str("cell", name)
        .num("seconds", s)
        .u64("strips", strips)
        .u64("rss_growth_bytes", (peak_rss_kib() - rss_before) * 1024)
        .print();
    return 0;
  }
  throw std::invalid_argument("no paper-sweep cell named " + name);
}

int probe(const std::string& workload, std::uint64_t seed,
          std::uint64_t events, std::uint64_t reads) {
  if (events > 0) {
    emit_probe("simkit.queue_ns_per_event", probe_queue_ns(events));
    emit_probe("simkit.hist_record_ns", probe_hist_record_ns(events));
  }
  if (workload == "tenant-storm") {
    const Storm storm = tenant_storm(seed, true);
    if (reads > 0) {
      const traffic::ArrivalConfig& a = storm.config.arrivals;
      emit_probe("simkit.hist_quantile_ns",
                 probe_hist_quantile_ns(reads, a.job_bytes / a.strip_bytes));
    }
    std::vector<double> times;
    for (int i = 0; i < 5; ++i) {
      times.push_back(timed([&]() {
        if (traffic::generate_poisson(storm.config.arrivals).empty()) {
          throw std::runtime_error("empty schedule");
        }
      }));
    }
    std::sort(times.begin(), times.end());
    emit_probe("traffic.schedule_s", times[times.size() / 2]);
  }
  if (workload == "verified-raster") {
    const auto registry = kernels::standard_registry();
    const core::WorkloadSpec flow = raster_workload("flow-routing", seed);
    const core::WorkloadSpec gauss = raster_workload("gaussian-2d", seed);
    const auto flow_kernel = registry.create("flow-routing");
    const auto gauss_kernel = registry.create("gaussian-2d");
    const double cells =
        static_cast<double>(flow.width()) * static_cast<double>(flow.height());

    grid::Grid<float> dem, image;
    emit_probe("grid.dem_ns_per_cell",
               timed([&]() { dem = core::make_input(flow, *flow_kernel); }) *
                   1e9 / cells);
    emit_probe(
        "grid.image_ns_per_cell",
        timed([&]() { image = core::make_input(gauss, *gauss_kernel); }) *
            1e9 / cells);
    std::vector<std::byte> bytes;
    const double ser = timed([&]() {
      bytes = grid::to_bytes(dem);
      if (grid::from_bytes(bytes, flow.width(), flow.height()) != dem) {
        throw std::runtime_error("serialize round trip changed the grid");
      }
    });
    emit_probe("grid.serialize_ns_per_cell", ser * 1e9 / cells);
    emit_probe("kernels.flow-routing.ref_ns_per_cell",
               timed([&]() { (void)flow_kernel->run_reference(dem); }) * 1e9 /
                   cells);
    emit_probe("kernels.gaussian-2d.ref_ns_per_cell",
               timed([&]() { (void)gauss_kernel->run_reference(image); }) *
                   1e9 / cells);

    core::Cluster cluster(cluster_of(8, seed));
    const pfs::FileId file = cluster.pfs().create_file(
        flow.make_meta("input"),
        std::make_unique<pfs::RoundRobinLayout>(cluster.pfs().num_servers()),
        &bytes);
    std::vector<std::byte> gathered;
    emit_probe("pfs.gather_s",
               timed([&]() { gathered = cluster.pfs().gather_bytes(file); }));
    if (gathered != bytes) throw std::runtime_error("gather changed bytes");
  }
  return 0;
}

int info() {
  Line("info")
      .str("build_type", DASBENCH_BUILD_TYPE)
      .str("isa", kernels::simd::to_string(kernels::simd::active_isa()))
      .print();
  return 0;
}

std::uint64_t parse_u64(const std::string& text) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(text, &used);
  if (used != text.size()) throw std::invalid_argument("not a number: " + text);
  return v;
}

int usage() {
  std::fputs(
      "usage: dasbench pass <workload> <seed> [--trace] [--unarmed]\n"
      "       dasbench check <workload> <seed> <cell>\n"
      "       dasbench probe <workload> <seed> [--events N] [--reads N]\n"
      "       dasbench probe-create-file <seed> <paper-sweep cell>\n"
      "       dasbench info\n"
      "workloads: paper-sweep tenant-storm verified-raster\n",
      stderr);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 1 && args[0] == "info") return info();
    if (args.size() == 3 && args[0] == "probe-create-file") {
      return probe_create_file(parse_u64(args[1]), args[2]);
    }
    if (args.size() < 3 || !is_workload(args[1])) return usage();
    const std::string& mode = args[0];
    const std::string& workload = args[1];
    const std::uint64_t seed = parse_u64(args[2]);
    if (mode == "check" && args.size() == 4) {
      return check(workload, seed, args[3]);
    }
    bool trace = false, armed = true;
    std::uint64_t events = 0, reads = 0;
    for (std::size_t i = 3; i < args.size(); ++i) {
      if (args[i] == "--trace") {
        trace = true;
      } else if (args[i] == "--unarmed") {
        armed = false;
      } else if (args[i] == "--events" && i + 1 < args.size()) {
        events = parse_u64(args[++i]);
      } else if (args[i] == "--reads" && i + 1 < args.size()) {
        reads = parse_u64(args[++i]);
      } else {
        return usage();
      }
    }
    if (mode == "pass") return pass(workload, seed, trace, armed);
    if (mode == "probe") return probe(workload, seed, events, reads);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dasbench: %s\n", e.what());
    return 1;
  }
}
