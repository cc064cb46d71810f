#include "simkit/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "simkit/random.hpp"

namespace das::sim {
namespace {

TEST(CounterTest, AccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0U);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42U);
  c.reset();
  EXPECT_EQ(c.value(), 0U);
}

TEST(GaugeTest, TimeWeightedAverage) {
  TimeWeightedGauge g;
  g.set(0, 10.0);   // 10 held for [0, 100)
  g.set(100, 20.0); // 20 held for [100, 300)
  EXPECT_DOUBLE_EQ(g.average(300), (10.0 * 100 + 20.0 * 200) / 300.0);
}

TEST(GaugeTest, AverageBeforeFirstUpdateIsCurrent) {
  TimeWeightedGauge g;
  EXPECT_DOUBLE_EQ(g.average(50), 0.0);
  g.set(10, 7.0);
  EXPECT_DOUBLE_EQ(g.average(10), 7.0);
}

TEST(GaugeTest, TracksMaximum) {
  TimeWeightedGauge g;
  g.set(0, 1.0);
  g.set(1, 9.0);
  g.set(2, 3.0);
  EXPECT_DOUBLE_EQ(g.maximum(), 9.0);
  EXPECT_DOUBLE_EQ(g.current(), 3.0);
}

TEST(HistogramTest, CountSumMean) {
  Histogram h;
  h.record(1.0);
  h.record(2.0);
  h.record(3.0);
  EXPECT_EQ(h.count(), 3U);
  EXPECT_DOUBLE_EQ(h.sum(), 6.0);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(HistogramTest, MinMax) {
  Histogram h;
  h.record(5.0);
  h.record(-1.0);
  h.record(3.0);
  EXPECT_DOUBLE_EQ(h.min(), -1.0);
  EXPECT_DOUBLE_EQ(h.max(), 5.0);
}

TEST(HistogramTest, NearestRankQuantiles) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(i);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.0);
}

TEST(HistogramTest, QuantileAfterInterleavedRecords) {
  Histogram h;
  h.record(3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
  h.record(1.0);  // unsorted tail, merged into the prefix by the next query
  h.record(2.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.record(1.0);
  h.reset();
  EXPECT_EQ(h.count(), 0U);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, QuantileZeroIsMinimum) {
  Histogram h;
  h.record(9.0);
  h.record(4.0);
  h.record(7.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 4.0);
}

TEST(HistogramTest, SummaryMatchesQuantiles) {
  Histogram h;
  for (int i = 1; i <= 200; ++i) h.record(i);
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 200U);
  EXPECT_DOUBLE_EQ(s.mean, h.mean());
  EXPECT_DOUBLE_EQ(s.p50, h.quantile(0.5));
  EXPECT_DOUBLE_EQ(s.p95, h.quantile(0.95));
  EXPECT_DOUBLE_EQ(s.p99, h.quantile(0.99));
  EXPECT_DOUBLE_EQ(s.max, h.max());
}

TEST(HistogramTest, SummaryOfEmptyIsAllZero) {
  const Histogram h;
  const HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0U);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(HistogramTest, MergeCombinesSamples) {
  Histogram a;
  a.record(1.0);
  a.record(3.0);
  Histogram b;
  b.record(2.0);
  b.record(4.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 4U);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 4.0);
  a.merge(Histogram{});  // merging an empty histogram is a no-op
  EXPECT_EQ(a.count(), 4U);
}

TEST(HistogramTest, MergeOfTwoEmptiesStaysEmpty) {
  Histogram a;
  a.merge(Histogram{});
  EXPECT_EQ(a.count(), 0U);
  EXPECT_DOUBLE_EQ(a.sum(), 0.0);
  EXPECT_EQ(a.summary().count, 0U);
}

TEST(HistogramTest, MergeIntoEmptyAdoptsTheOtherDistribution) {
  Histogram a;
  Histogram b;
  b.record(2.0);
  b.record(8.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2U);
  EXPECT_DOUBLE_EQ(a.sum(), 10.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
  // The source is untouched.
  EXPECT_EQ(b.count(), 2U);
}

TEST(HistogramTest, MergeOfSingleSamplesKeepsQuantilesExact) {
  Histogram a;
  a.record(5.0);
  Histogram b;
  b.record(1.0);
  a.merge(b);
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 5.0);
}

TEST(HistogramTest, MergeOrderDoesNotChangeTheDistribution) {
  // Property: folding per-node shards into a cluster-wide histogram must
  // give the same distribution regardless of merge order. Build 8 shards of
  // deterministic pseudo-random samples and merge forward vs. reversed.
  std::vector<Histogram> shards(8);
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<double>(state >> 40) / 1e6;
  };
  for (Histogram& shard : shards) {
    for (int i = 0; i < 100; ++i) shard.record(next());
  }
  Histogram forward;
  for (const Histogram& shard : shards) forward.merge(shard);
  Histogram reversed;
  for (std::size_t i = shards.size(); i-- > 0;) reversed.merge(shards[i]);

  EXPECT_EQ(forward.count(), 800U);
  EXPECT_EQ(forward.count(), reversed.count());
  // Sums differ only by fp association order across the 8 shard partials.
  EXPECT_NEAR(forward.sum(), reversed.sum(), 1e-9 * forward.sum());
  EXPECT_DOUBLE_EQ(forward.min(), reversed.min());
  EXPECT_DOUBLE_EQ(forward.max(), reversed.max());
  for (const double q : {0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(forward.quantile(q), reversed.quantile(q)) << "q=" << q;
  }
}

/// Sort-everything oracle: the definition of the histogram's answers that
/// the incremental sorted-prefix implementation must reproduce exactly.
struct OracleHistogram {
  std::vector<double> samples;
  double sum = 0.0;

  void record(double v) {
    samples.push_back(v);
    sum += v;
  }
  void merge(const OracleHistogram& other) {
    const std::vector<double> incoming = other.samples;  // may alias *this
    samples.insert(samples.end(), incoming.begin(), incoming.end());
    sum += other.sum;
  }
  void reset() { *this = OracleHistogram{}; }
  [[nodiscard]] std::vector<double> sorted() const {
    std::vector<double> out = samples;
    std::sort(out.begin(), out.end());
    return out;
  }
  [[nodiscard]] double quantile(double q) const {
    const std::vector<double> s = sorted();
    if (q == 0.0) return s.front();
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(s.size())));
    return s[rank - 1];
  }
};

void expect_same_answers(const Histogram& h, const OracleHistogram& oracle) {
  ASSERT_EQ(h.count(), oracle.samples.size());
  EXPECT_EQ(h.sum(), oracle.sum);
  if (oracle.samples.empty()) return;
  const std::vector<double> sorted = oracle.sorted();
  EXPECT_EQ(h.min(), sorted.front());
  EXPECT_EQ(h.max(), sorted.back());
  for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.quantile(q), oracle.quantile(q)) << "q=" << q;
  }
}

TEST(HistogramTest, QueryAfterSeveralTailMerges) {
  Histogram h;
  OracleHistogram oracle;
  for (const double v : {5.0, -2.0, 5.0, 9.0}) {
    h.record(v);
    oracle.record(v);
  }
  EXPECT_EQ(h.quantile(0.5), oracle.quantile(0.5));  // prefix now sorted
  // Three merges and a record pile up in the tail before the next query:
  // a never-queried shard, a queried (sorted) shard, and one queried then
  // grown again (sorted prefix plus its own tail).
  Histogram fresh;
  OracleHistogram fresh_oracle;
  Histogram queried;
  OracleHistogram queried_oracle;
  Histogram grown;
  OracleHistogram grown_oracle;
  for (const double v : {7.0, -2.0, 0.5}) {
    fresh.record(v);
    fresh_oracle.record(v);
    queried.record(v + 1.0);
    queried_oracle.record(v + 1.0);
    grown.record(-v);
    grown_oracle.record(-v);
  }
  EXPECT_EQ(queried.quantile(0.5), queried_oracle.quantile(0.5));
  EXPECT_EQ(grown.max(), grown_oracle.sorted().back());
  grown.record(100.0);
  grown_oracle.record(100.0);
  h.merge(fresh);
  oracle.merge(fresh_oracle);
  h.merge(queried);
  oracle.merge(queried_oracle);
  h.record(-2.0);
  oracle.record(-2.0);
  h.merge(grown);
  oracle.merge(grown_oracle);
  expect_same_answers(h, oracle);
  // The sources are untouched by being merged.
  expect_same_answers(fresh, fresh_oracle);
  expect_same_answers(grown, grown_oracle);
}

TEST(HistogramTest, SelfMergeAfterQueryDoublesTheDistribution) {
  Histogram h;
  OracleHistogram oracle;
  for (const double v : {3.0, 1.0, 4.0, 1.0, 5.0}) {
    h.record(v);
    oracle.record(v);
  }
  EXPECT_EQ(h.quantile(0.5), 3.0);  // sorted prefix covers every sample
  h.record(2.0);                    // plus a one-sample tail
  oracle.record(2.0);
  h.merge(h);
  oracle.merge(oracle);
  EXPECT_EQ(h.count(), 12U);
  expect_same_answers(h, oracle);
}

TEST(HistogramPropertyTest, AgreesWithSortEverythingOracleUnderChurn) {
  // Seeded random interleaving of record / merge / reset / queries, checked
  // exactly against the oracle. Values come from a small grid (duplicates,
  // negatives, zero) with occasional wide outliers, so ties and sign
  // changes are constant.
  Rng rng(20261017);
  const auto next_value = [&rng]() {
    if (rng.bernoulli(0.05)) return rng.uniform_real(-1e6, 1e6);
    return static_cast<double>(rng.uniform_int(-16, 16)) * 0.5;
  };
  const double kQuantiles[] = {0.0, 0.5, 0.95, 0.99, 1.0};
  Histogram h;
  OracleHistogram oracle;
  std::uint64_t queries = 0;
  std::uint64_t merges = 0;

  for (int step = 0; step < 20000; ++step) {
    const double roll = rng.next_double();
    if (roll < 0.45) {
      const double v = next_value();
      h.record(v);
      oracle.record(v);
    } else if (roll < 0.55) {
      // Merge a donor: empty, never queried, fully sorted by a query, or
      // queried then grown (sorted prefix plus a tail of its own).
      Histogram donor;
      OracleHistogram donor_oracle;
      const auto kind = rng.uniform_int(0, 3);
      if (kind > 0) {
        const auto n = rng.uniform_int(1, 64);
        for (std::int64_t i = 0; i < n; ++i) {
          const double v = next_value();
          donor.record(v);
          donor_oracle.record(v);
        }
      }
      if (kind >= 2) {
        ASSERT_EQ(donor.quantile(0.5), donor_oracle.quantile(0.5));
      }
      if (kind == 3) {
        const double v = next_value();
        donor.record(v);
        donor_oracle.record(v);
      }
      h.merge(donor);
      oracle.merge(donor_oracle);
      ++merges;
    } else if (roll < 0.56 && h.count() > 0 && h.count() < 512) {
      h.merge(h);
      oracle.merge(oracle);
      ++merges;
    } else if (roll < 0.562) {
      h.reset();
      oracle.reset();
    } else if (h.count() > 0) {
      ++queries;
      switch (rng.uniform_int(0, 3)) {
        case 0: {
          const double q = kQuantiles[rng.uniform_int(0, 4)];
          ASSERT_EQ(h.quantile(q), oracle.quantile(q))
              << "step " << step << " q=" << q;
          break;
        }
        case 1:
          ASSERT_EQ(h.min(), oracle.sorted().front()) << "step " << step;
          break;
        case 2:
          ASSERT_EQ(h.max(), oracle.sorted().back()) << "step " << step;
          break;
        default: {
          const HistogramSummary s = h.summary();
          const std::vector<double> sorted = oracle.sorted();
          ASSERT_EQ(s.count, sorted.size()) << "step " << step;
          ASSERT_EQ(s.mean, oracle.sum / static_cast<double>(sorted.size()));
          ASSERT_EQ(s.p50, oracle.quantile(0.5)) << "step " << step;
          ASSERT_EQ(s.p95, oracle.quantile(0.95)) << "step " << step;
          ASSERT_EQ(s.p99, oracle.quantile(0.99)) << "step " << step;
          ASSERT_EQ(s.max, sorted.back()) << "step " << step;
        }
      }
    } else {
      ASSERT_EQ(h.summary().count, 0U);
    }
    // Cheap invariants every step; they never force a sort.
    ASSERT_EQ(h.count(), oracle.samples.size()) << "step " << step;
    ASSERT_EQ(h.sum(), oracle.sum) << "step " << step;
  }
  expect_same_answers(h, oracle);
  // The seeded stream must actually exercise both halves of the model.
  EXPECT_GT(queries, 5000U);
  EXPECT_GT(merges, 1500U);
}

TEST(GaugeTest, SameInstantUpdateReplacesValue) {
  TimeWeightedGauge g;
  g.set(5, 10.0);
  g.set(5, 20.0);  // zero-width interval: no time at 10 accrues
  EXPECT_DOUBLE_EQ(g.current(), 20.0);
  EXPECT_DOUBLE_EQ(g.average(10), 20.0);
}

TEST(HistogramDeathTest, QuantileOfEmptyAborts) {
  Histogram h;
  EXPECT_DEATH(h.quantile(0.5), "DAS_REQUIRE");
}

TEST(RegistryTest, FindOrCreateReturnsSameInstance) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x");
  a.add(5);
  EXPECT_EQ(reg.counter("x").value(), 5U);
  EXPECT_EQ(reg.counters().size(), 1U);
}

TEST(RegistryTest, ReportListsAllMetrics) {
  MetricsRegistry reg;
  reg.counter("reads").add(3);
  reg.histogram("latency").record(0.5);
  reg.gauge("depth").set(0, 2.0);
  const std::string report = reg.report(100);
  EXPECT_NE(report.find("reads = 3"), std::string::npos);
  EXPECT_NE(report.find("latency"), std::string::npos);
  EXPECT_NE(report.find("depth"), std::string::npos);
}

}  // namespace
}  // namespace das::sim
