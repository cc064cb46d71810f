// Successive-operation pipelines (paper §I: "the flow-accumulation
// operation always follows the flow-routing operation").
#include <gtest/gtest.h>

#include "core/scheme.hpp"

namespace das::core {
namespace {

SchemeRunOptions base_options(Scheme scheme) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = "flow-routing";
  o.workload.strip_size = 64;
  o.workload.element_size = 4;
  o.workload.data_bytes = 128 * 64;
  o.workload.with_data = true;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.job_startup = 0;
  o.distribution.group_size = 16;
  o.distribution.max_capacity_overhead = 1.0;
  return o;
}

const std::vector<std::string> kTerrainChain{"flow-routing",
                                             "flow-accumulation"};

TEST(PipelineTest, ReturnsOneReportPerStagePlusCombined) {
  const auto reports = run_pipeline(base_options(Scheme::kDAS), kTerrainChain);
  ASSERT_EQ(reports.size(), 3U);
  EXPECT_EQ(reports[0].kernel, "flow-routing");
  EXPECT_EQ(reports[1].kernel, "flow-accumulation");
  EXPECT_EQ(reports[2].kernel, "pipeline");
}

TEST(PipelineTest, CombinedTimeCoversTheStages) {
  const auto reports = run_pipeline(base_options(Scheme::kTS), kTerrainChain);
  EXPECT_GE(reports[2].exec_seconds + 1e-9,
            reports[0].exec_seconds + reports[1].exec_seconds);
}

TEST(PipelineTest, FirstStageOutputFeedsTheSecondStage) {
  // The routing stage is tile-exact and verifiable; the accumulation stage
  // runs on its output (verification skipped: not tile-exact).
  const auto reports = run_pipeline(base_options(Scheme::kDAS), kTerrainChain);
  EXPECT_TRUE(reports[0].output_verified);
  EXPECT_FALSE(reports[1].output_verified);
}

TEST(PipelineTest, DasStagesAfterTheFirstNeedNoRedistribution) {
  SchemeRunOptions o = base_options(Scheme::kDAS);
  o.pre_distributed = false;
  const auto reports = run_pipeline(o, kTerrainChain);
  // The first stage pays the redistribution; the second inherits the layout.
  EXPECT_TRUE(reports[0].redistributed);
  EXPECT_FALSE(reports[1].redistributed);
  EXPECT_EQ(reports[1].redistribution_bytes, 0U);
  EXPECT_TRUE(reports[1].offloaded);
}

TEST(PipelineTest, TsPipelineKeepsServersPassive) {
  const auto reports = run_pipeline(base_options(Scheme::kTS), kTerrainChain);
  for (const auto& r : reports) {
    EXPECT_EQ(r.server_server_bytes, 0U);
    EXPECT_FALSE(r.offloaded);
  }
}

TEST(PipelineTest, DasPipelineBeatsTsPipelineAtPaperScale) {
  SchemeRunOptions das = base_options(Scheme::kDAS);
  das.workload.with_data = false;
  das.workload.data_bytes = 1ULL << 30;
  das.workload.strip_size = 1ULL << 20;
  das.workload.raster_width =
      static_cast<std::uint32_t>(das.workload.strip_size / 4) - 1;
  das.distribution.group_size = 16;
  das.distribution.max_capacity_overhead = 0.25;
  SchemeRunOptions ts = das;
  ts.scheme = Scheme::kTS;

  const auto das_reports = run_pipeline(das, kTerrainChain);
  const auto ts_reports = run_pipeline(ts, kTerrainChain);
  EXPECT_LT(das_reports.back().exec_seconds,
            ts_reports.back().exec_seconds);
}

TEST(PipelineTest, ChainOfThreeFiltersVerifiesEveryStage) {
  SchemeRunOptions o = base_options(Scheme::kDAS);
  o.workload.kernel_name = "gaussian-2d";
  const std::vector<std::string> chain{"gaussian-2d", "median-3x3",
                                       "gaussian-2d"};
  const auto reports = run_pipeline(o, chain);
  ASSERT_EQ(reports.size(), 4U);
  EXPECT_TRUE(reports[0].output_verified);
  EXPECT_TRUE(reports[1].output_verified);
  EXPECT_TRUE(reports[2].output_verified);
}

TEST(PipelineTest, StageReportsCarryPerStageCacheDeltas) {
  // NAS pipeline on round-robin with caching: every stage fetches remote
  // halo, so every stage report must show its OWN misses — snapshot deltas,
  // not the cumulative hub counters — and the deltas sum to the combined
  // report's totals.
  SchemeRunOptions o = base_options(Scheme::kNAS);
  o.workload.with_data = false;
  o.workload.data_bytes = 64ULL << 20;
  o.workload.strip_size = 1ULL << 20;
  o.workload.raster_width =
      static_cast<std::uint32_t>(o.workload.strip_size / 4) - 1;
  o.cluster.server_cache.enabled = true;
  o.cluster.server_cache.capacity_bytes = 1ULL << 30;
  o.cluster.prefetch.enabled = true;
  o.cluster.prefetch.depth = 4;
  o.cluster.pipeline_window = 1;
  const std::vector<std::string> chain{"gaussian-2d", "median-3x3",
                                       "gaussian-2d"};
  const auto reports = run_pipeline(o, chain);
  ASSERT_EQ(reports.size(), 4U);

  std::uint64_t miss_sum = 0, issued_sum = 0;
  for (std::size_t stage = 0; stage < 3; ++stage) {
    EXPECT_GT(reports[stage].cache_misses, 0U) << "stage " << stage;
    miss_sum += reports[stage].cache_misses;
    issued_sum += reports[stage].prefetch_issued;
  }
  // Each stage reads a different file, so no stage can recycle another's
  // strips: per-stage deltas partition the combined totals exactly.
  EXPECT_EQ(miss_sum, reports[3].cache_misses);
  EXPECT_EQ(issued_sum, reports[3].prefetch_issued);
  EXPECT_GT(issued_sum, 0U);
}

/// One pinned pipeline report (a stage, or the combined row).
struct PinnedStage {
  const char* kernel;
  bool verified;
  double max_error;
  double exec_seconds;
  std::uint64_t client_server_bytes;
  std::uint64_t server_server_bytes;
};

void expect_pinned(const std::vector<RunReport>& reports,
                   const std::vector<PinnedStage>& pinned) {
  ASSERT_EQ(reports.size(), pinned.size());
  for (std::size_t i = 0; i < pinned.size(); ++i) {
    SCOPED_TRACE("report " + std::to_string(i));
    EXPECT_EQ(reports[i].kernel, pinned[i].kernel);
    EXPECT_EQ(reports[i].output_verified, pinned[i].verified);
    EXPECT_DOUBLE_EQ(reports[i].output_max_error, pinned[i].max_error);
    EXPECT_DOUBLE_EQ(reports[i].exec_seconds, pinned[i].exec_seconds);
    EXPECT_EQ(reports[i].client_server_bytes, pinned[i].client_server_bytes);
    EXPECT_EQ(reports[i].server_server_bytes, pinned[i].server_server_bytes);
  }
}

// Twin of SchemeTest.CorrectnessRowsArePinned for the stage-wise reference
// chain, recorded on a build that regenerated the input to start it. The
// filter chain verifies its second stage against the chained reference.
TEST(PipelineTest, CorrectnessRowsArePinned) {
  SchemeRunOptions o = base_options(Scheme::kDAS);
  o.workload.strip_size = 256;  // 64-cell rows, one per strip
  o.workload.data_bytes = 96 * 256;
  expect_pinned(run_pipeline(o, kTerrainChain),
                {{"flow-routing", true, 0, 0.0022007240000000003, 0, 5120},
                 {"flow-accumulation", false, 0, 0.0021989879999999998, 0,
                  5120},
                 {"pipeline", false, 0, 0.0043997120000000001, 0, 10240}});

  o.workload.kernel_name = "gaussian-2d";
  expect_pinned(run_pipeline(o, {"gaussian-2d", "median-3x3"}),
                {{"gaussian-2d", true, 0, 0.0022033280000000001, 0, 5120},
                 {"median-3x3", true, 0, 0.002212009, 0, 5120},
                 {"pipeline", false, 0, 0.0044153370000000001, 0, 10240}});
}

// Full rows for the statically placed schemes, two passes per stage,
// recorded before the run paths shared one assembly. Stage rows and the
// combined row carry no utilization; the note stays empty off DAS.
TEST(PipelineTest, StaticSchemeRowsArePinned) {
  struct PinnedRows {
    Scheme scheme;
    std::vector<std::string> csv;
  };
  const PinnedRows kSchemes[] = {
      {Scheme::kTS,
       {"TS,flow-routing,24576,4,4,0.0228859,104448,0,408,0,0,0,1.07385e+06,"
        "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
        "TS,flow-accumulation,24576,4,4,0.0228859,104448,0,408,0,0,0,"
        "1.07385e+06,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,"
        "0",
        "TS,pipeline,24576,4,4,0.0457719,208896,0,816,0,0,0,536923,0,0,0,0,0,"
        "0,0,0,0,0,0,0,0,0,0,4.438e-06,0.000102074,0.000115388,8.4438e-05,"
        "8.8876e-05,8.8876e-05,0.000400348,0.000400348,0.000400348,5.42e-07,"
        "6.51e-07,6.51e-07,0,0"}},
      {Scheme::kNAS,
       {"NAS,flow-routing,24576,4,4,0.0548663,0,193536,756,0,1,0,447925,0,0,"
        "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
        "NAS,flow-accumulation,24576,4,4,0.0548659,0,193536,756,0,1,0,447928,"
        "0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0",
        "NAS,pipeline,24576,4,4,0.109732,0,387072,1512,0,1,0,223963,0,0,0,0,"
        "0,0,0,0,0,0,0,0,0,0,0,4.438e-06,3.3285e-05,4.6599e-05,8.4438e-05,"
        "8.8876e-05,8.8876e-05,3.48e-07,0.000400348,0.000400348,5.42e-07,"
        "6.51e-07,6.51e-07,0,0"}},
  };
  for (const PinnedRows& pinned : kSchemes) {
    SCOPED_TRACE(to_string(pinned.scheme));
    SchemeRunOptions o = base_options(pinned.scheme);
    o.workload.strip_size = 256;  // 64-cell rows, one per strip
    o.workload.data_bytes = 96 * 256;
    o.repeat_count = 2;
    const auto reports = run_pipeline(o, kTerrainChain);
    ASSERT_EQ(reports.size(), pinned.csv.size());
    for (std::size_t i = 0; i < reports.size(); ++i) {
      SCOPED_TRACE("report " + std::to_string(i));
      EXPECT_EQ(to_csv(reports[i]), pinned.csv[i]);
      // Only the tile-exact routing stage is verified.
      EXPECT_EQ(reports[i].output_verified, i == 0);
      EXPECT_EQ(reports[i].decision_note, "");
    }
  }
}

TEST(PipelineDeathTest, EmptyChainAborts) {
  EXPECT_DEATH(run_pipeline(base_options(Scheme::kTS), {}), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::core
