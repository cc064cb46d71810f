// End-to-end scheme-runner tests: one run_scheme call per paper scheme, in
// correctness mode (small rasters, real bytes) and in paper-shape timing
// mode (large sizes, length-only).
#include "core/scheme.hpp"

#include <gtest/gtest.h>

namespace das::core {
namespace {

SchemeRunOptions data_options(Scheme scheme, const std::string& kernel) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = kernel;
  o.workload.strip_size = 64;
  o.workload.element_size = 4;
  o.workload.data_bytes = 128 * 64;  // 128 strips
  o.workload.with_data = true;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.job_startup = 0;
  o.distribution.group_size = 8;
  o.distribution.max_capacity_overhead = 1.0;  // small files in tests
  return o;
}

SchemeRunOptions timing_options(Scheme scheme, const std::string& kernel) {
  SchemeRunOptions o;
  o.scheme = scheme;
  o.workload.kernel_name = kernel;
  o.workload.data_bytes = 2ULL << 30;
  o.workload.strip_size = 1ULL << 20;
  o.workload.raster_width =
      static_cast<std::uint32_t>(o.workload.strip_size / 4) - 1;
  o.cluster.storage_nodes = 4;
  o.cluster.compute_nodes = 4;
  o.cluster.job_startup = 0;
  return o;
}

class SchemeDataTest
    : public ::testing::TestWithParam<std::tuple<Scheme, std::string>> {};

TEST_P(SchemeDataTest, OutputMatchesSequentialReference) {
  const auto& [scheme, kernel] = GetParam();
  const RunReport report = run_scheme(data_options(scheme, kernel));
  EXPECT_TRUE(report.output_verified)
      << "max error " << report.output_max_error;
  EXPECT_DOUBLE_EQ(report.output_max_error, 0.0);
  EXPECT_GT(report.exec_seconds, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAllKernels, SchemeDataTest,
    ::testing::Combine(
        ::testing::Values(Scheme::kTS, Scheme::kNAS, Scheme::kDAS),
        ::testing::Values("flow-routing", "gaussian-2d", "median-3x3")),
    [](const auto& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) +
                         "_" + std::get<1>(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(SchemeTrafficTest, TsUsesOnlyClientServerLinks) {
  const RunReport r = run_scheme(data_options(Scheme::kTS, "flow-routing"));
  EXPECT_GT(r.client_server_bytes, 0U);
  EXPECT_EQ(r.server_server_bytes, 0U);
  EXPECT_FALSE(r.offloaded);
}

TEST(SchemeTrafficTest, NasUsesOnlyServerLinks) {
  const RunReport r = run_scheme(data_options(Scheme::kNAS, "flow-routing"));
  EXPECT_EQ(r.client_server_bytes, 0U);
  EXPECT_GT(r.server_server_bytes, 0U);
  EXPECT_TRUE(r.offloaded);
}

TEST(SchemeTrafficTest, DasPreDistributedMovesOnlyReplicas) {
  const RunReport r = run_scheme(data_options(Scheme::kDAS, "flow-routing"));
  EXPECT_TRUE(r.offloaded);
  EXPECT_FALSE(r.redistributed);
  EXPECT_EQ(r.client_server_bytes, 0U);
  // Output halo replica propagation only: a small fraction of the file.
  EXPECT_LT(r.server_server_bytes, r.data_bytes);
  EXPECT_FALSE(r.decision_note.empty());
}

TEST(SchemeTrafficTest, DasWithoutPreDistributionRedistributesForPipelines) {
  SchemeRunOptions o = data_options(Scheme::kDAS, "flow-routing");
  o.pre_distributed = false;
  o.pipeline_length = 8;
  const RunReport r = run_scheme(o);
  EXPECT_TRUE(r.offloaded);
  EXPECT_TRUE(r.redistributed);
  EXPECT_GT(r.redistribution_bytes, 0U);
  EXPECT_TRUE(r.output_verified);
}

/// One correctness-mode run, pinned: what verification reported and what
/// the run cost in simulated time and bytes moved.
struct PinnedRow {
  Scheme scheme;
  const char* kernel;
  bool verified;
  double max_error;
  double exec_seconds;
  std::uint64_t client_server_bytes;
  std::uint64_t server_server_bytes;
};

// Rows recorded on a build that regenerated the input raster to verify.
// Verifying against the run's own input copy must reproduce them exactly.
// flow-accumulation reads the routed raster rather than the DEM; it is not
// tile-exact, so it is never verified, but its run must not move either.
TEST(SchemeTest, CorrectnessRowsArePinned) {
  static const PinnedRow kRows[] = {
      {Scheme::kTS, "flow-routing", true, 0, 0.011613095, 52224, 0},
      {Scheme::kTS, "gaussian-2d", true, 0, 0.011613095, 52224, 0},
      {Scheme::kTS, "flow-accumulation", false, 0, 0.011613095, 52224, 0},
      {Scheme::kNAS, "flow-routing", true, 0, 0.027603294, 0, 96768},
      {Scheme::kNAS, "gaussian-2d", true, 0, 0.027820701000000003, 0, 96768},
      {Scheme::kNAS, "flow-accumulation", false, 0, 0.027603076000000001, 0,
       96768},
      {Scheme::kDAS, "flow-routing", true, 0, 0.0037951800000000004, 0,
       11264},
      {Scheme::kDAS, "gaussian-2d", true, 0, 0.0037951800000000004, 0, 11264},
      {Scheme::kDAS, "flow-accumulation", false, 0, 0.0037951800000000004, 0,
       11264},
  };
  for (const PinnedRow& row : kRows) {
    SCOPED_TRACE(std::string(to_string(row.scheme)) + " " + row.kernel);
    SchemeRunOptions o = data_options(row.scheme, row.kernel);
    o.workload.strip_size = 256;  // 64-cell rows, one per strip
    o.workload.data_bytes = 96 * 256;
    const RunReport r = run_scheme(o);
    EXPECT_EQ(r.output_verified, row.verified);
    EXPECT_DOUBLE_EQ(r.output_max_error, row.max_error);
    EXPECT_DOUBLE_EQ(r.exec_seconds, row.exec_seconds);
    EXPECT_EQ(r.client_server_bytes, row.client_server_bytes);
    EXPECT_EQ(r.server_server_bytes, row.server_server_bytes);
  }
}

TEST(SchemeTimingTest, PaperOrderingDasBeatsTsBeatsNas) {
  const RunReport ts =
      run_scheme(timing_options(Scheme::kTS, "flow-routing"));
  const RunReport nas =
      run_scheme(timing_options(Scheme::kNAS, "flow-routing"));
  const RunReport das =
      run_scheme(timing_options(Scheme::kDAS, "flow-routing"));
  EXPECT_LT(das.exec_seconds, ts.exec_seconds);
  EXPECT_LT(ts.exec_seconds, nas.exec_seconds);
  // Paper Fig. 11: DAS over 30% faster than TS, over 60% than NAS is the
  // claim at 24 nodes; require the weaker always-true ordering margins here.
  EXPECT_LT(das.exec_seconds, 0.8 * ts.exec_seconds);
  EXPECT_LT(das.exec_seconds, 0.5 * nas.exec_seconds);
}

TEST(SchemeTimingTest, SustainedBandwidthFollowsTheSameOrdering) {
  const RunReport ts =
      run_scheme(timing_options(Scheme::kTS, "flow-routing"));
  const RunReport nas =
      run_scheme(timing_options(Scheme::kNAS, "flow-routing"));
  const RunReport das =
      run_scheme(timing_options(Scheme::kDAS, "flow-routing"));
  EXPECT_GT(das.sustained_bandwidth_bps(), ts.sustained_bandwidth_bps());
  EXPECT_GT(ts.sustained_bandwidth_bps(), nas.sustained_bandwidth_bps());
}

TEST(SchemeTimingTest, MoreDataTakesLonger) {
  SchemeRunOptions small = timing_options(Scheme::kDAS, "gaussian-2d");
  SchemeRunOptions large = small;
  large.workload.data_bytes = 4ULL << 30;
  EXPECT_LT(run_scheme(small).exec_seconds,
            run_scheme(large).exec_seconds);
}

TEST(SchemeTimingTest, MoreNodesAreFaster) {
  SchemeRunOptions few = timing_options(Scheme::kTS, "gaussian-2d");
  SchemeRunOptions many = few;
  many.cluster.storage_nodes = 8;
  many.cluster.compute_nodes = 8;
  EXPECT_GT(run_scheme(few).exec_seconds, run_scheme(many).exec_seconds);
}

TEST(SchemeTimingTest, ReportRecordsTheConfiguration) {
  const RunReport r = run_scheme(timing_options(Scheme::kNAS, "median-3x3"));
  EXPECT_EQ(r.scheme, "NAS");
  EXPECT_EQ(r.kernel, "median-3x3");
  EXPECT_EQ(r.data_bytes, 2ULL << 30);
  EXPECT_EQ(r.storage_nodes, 4U);
  EXPECT_EQ(r.compute_nodes, 4U);
  EXPECT_FALSE(r.data_mode);
  EXPECT_FALSE(r.output_verified);  // nothing to verify in timing mode
}

/// A small timing-mode sparse access: 64 rows of 1 MiB strips.
ListRunOptions list_options(Scheme scheme, const std::string& access) {
  const SchemeRunOptions t = timing_options(scheme, "flow-routing");
  ListRunOptions o;
  o.scheme = scheme;
  o.workload = t.workload;
  o.workload.data_bytes = 64ULL << 20;
  o.access = AccessSpec::parse(access);
  o.cluster = t.cluster;
  return o;
}

/// One pinned run_list_scheme row: the full to_csv line and the note.
struct PinnedListRow {
  Scheme scheme;
  const char* access;
  bool whole_strips;
  const char* csv;
  const char* decision_note;
};

// The list pricing prices the sampled runs, never their whole-strip
// expansion, so every strided:8 row carries the same note.
constexpr const char* kStrided8Note =
    "list 0.08s (25166200 wire B = 25165728 payload + 472 header, 31 runs -> "
    "31 extents, coalesce 1.00x) vs offload 0.10s (full 67108864 B sweep + "
    "6291456 halo B, 8388608 B returned): serve-normal";

// Recorded before the run paths shared one assembly. TS serves the access
// as list I/O (one read_regions per client, round-robin input); NAS
// delegates to run_scheme and only takes the list-aware note. DAS follows
// its decision: at strided:8 it declines the offload, so its row is the TS
// row under another scheme name.
TEST(ListSchemeTest, RowsArePinned) {
  static const PinnedListRow kRows[] = {
      {Scheme::kTS, "strided:8", false,
       "TS,flow-routing,67108864,4,4,0.147108,25166872,0,0,0,0,0,4.56188e+08,"
       "0.079339,0.185461,0,0.108763,0,0,0,0,0,0,0,0,0,0,0,1.0816e-05,"
       "0.0654205,0.0799492,8.5408e-05,0.0364484,0.0364484,0.00182857,"
       "0.00182857,0.00182857,0.0159999,0.0159999,0.0159999,0,0",
       kStrided8Note},
      {Scheme::kTS, "column", false,
       "TS,flow-routing,67108864,4,4,0.00658072,2176,0,0,0,0,0,1.01978e+10,"
       "0.972577,0.00170711,0,7.41561e-05,0,0,0,0,0,0,0,0,0,0,0,6.27e-07,"
       "1.352e-05,1.6224e-05,8.5408e-05,8.5826e-05,8.5826e-05,0.000400016,"
       "0.000400016,0.000400016,4.88e-07,4.88e-07,4.88e-07,0,0",
       "list 0.00s (1504 wire B = 768 payload + 736 header, 64 runs -> 64 "
       "extents, coalesce 1.00x) vs offload 0.08s (full 67108864 B sweep + "
       "6291456 halo B, 256 B returned): serve-normal"},
      {Scheme::kTS, "strided:8", true,
       "TS,flow-routing,67108864,4,4,0.159718,32506984,0,0,0,0,0,4.20172e+08,"
       "0.088728,0.220623,0,0.129395,0,0,0,0,0,0,0,0,0,0,0,1.3244e-05,"
       "0.0726895,0.0872165,8.5408e-05,0.0364484,0.0364484,0.00182857,"
       "0.00182857,0.00182857,0.0213333,0.0213333,0.0213333,0,0",
       kStrided8Note},
      {Scheme::kNAS, "strided:8", false,
       "NAS,flow-routing,67108864,4,4,0.381772,0,132120576,128,0,1,0,"
       "1.75782e+08,0.284238,0.750458,0.111759,0,0,0,0,0,0,0,0,0,0,0,0,"
       "0.0227152,0.0590789,0.0805313,8.4438e-05,0.0182663,0.0182663,"
       "0.00182857,0.00182857,0.00182857,0.00266667,0.00266667,0.00266667,0,0",
       kStrided8Note},
      {Scheme::kDAS, "strided:8", false,
       "DAS,flow-routing,67108864,4,4,0.147108,25166872,0,0,0,0,0,4.56188e+08,"
       "0.079339,0.185461,0,0.108763,0,0,0,0,0,0,0,0,0,0,0,1.0816e-05,"
       "0.0654205,0.0799492,8.5408e-05,0.0364484,0.0364484,0.00182857,"
       "0.00182857,0.00182857,0.0159999,0.0159999,0.0159999,0,0",
       kStrided8Note},
  };
  for (const PinnedListRow& row : kRows) {
    SCOPED_TRACE(std::string(to_string(row.scheme)) + " " + row.access +
                 (row.whole_strips ? " whole_strips" : ""));
    ListRunOptions o = list_options(row.scheme, row.access);
    o.whole_strips = row.whole_strips;
    const RunReport r = run_list_scheme(o);
    EXPECT_EQ(to_csv(r), row.csv);
    EXPECT_EQ(r.decision_note, row.decision_note);
  }
}

}  // namespace
}  // namespace das::core
