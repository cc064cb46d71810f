#include "traffic/engine.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

namespace das::traffic {
namespace {

TrafficConfig small_config() {
  TrafficConfig config;
  config.arrivals.tenants = 4;
  config.arrivals.jobs_per_tenant = 6;
  config.arrivals.rate_hz = 2.0;
  config.arrivals.job_bytes = 4ULL << 20;
  config.arrivals.strip_bytes = 1ULL << 20;
  config.arrivals.datasets = 2;
  config.arrivals.dataset_strips = 256;
  return config;
}

TEST(TrafficEngineTest, CompletesEveryJobAndAccountsBytes) {
  const TrafficReport report = run_traffic(small_config());
  ASSERT_EQ(report.tenants.size(), 4u);
  EXPECT_EQ(report.total.jobs_submitted, 24u);
  EXPECT_EQ(report.total.jobs_completed, 24u);
  EXPECT_EQ(report.total.bytes_read, 24u * (4ULL << 20));
  EXPECT_GT(report.makespan_s, 0.0);
  EXPECT_GT(report.events, 0u);
  EXPECT_EQ(report.reads_issued, 24u * 4u);  // 4 strips per job
  for (const TenantStats& tenant : report.tenants) {
    EXPECT_EQ(tenant.jobs_completed, 6u);
    EXPECT_EQ(tenant.sojourn.count(), 6u);
    EXPECT_EQ(tenant.service.count(), 6u);
  }
}

TEST(TrafficEngineTest, SloCsvIsByteIdenticalAcrossRuns) {
  const std::string a = run_traffic(small_config()).slo_csv();
  const std::string b = run_traffic(small_config()).slo_csv();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find(slo_csv_header()), std::string::npos);
  EXPECT_NE(a.find("\nall,"), std::string::npos);  // aggregate row present
}

TEST(TrafficEngineTest, SeedChangesResults) {
  TrafficConfig other = small_config();
  other.arrivals.seed += 1;
  EXPECT_NE(run_traffic(small_config()).slo_csv(),
            run_traffic(other).slo_csv());
}

TEST(TrafficEngineTest, KernelCostOverrideMovesMakespan) {
  // Kernel jobs are priced like the classic executors: a measured override
  // wins over the registry's built-in factor, and only kernel kinds pay.
  TrafficConfig costly = small_config();
  for (const char* name :
       {"flow-routing", "gaussian-2d", "flow-accumulation"}) {
    costly.cluster.compute_cost.kernel_cost_factor[name] = 50.0;
  }
  const TrafficReport base = run_traffic(small_config());
  const TrafficReport slow = run_traffic(costly);
  EXPECT_GT(slow.makespan_s, base.makespan_s);
  EXPECT_EQ(slow.total.bytes_read, base.total.bytes_read);
}

TEST(TrafficEngineTest, AdmissionDefersAndStillCompletes) {
  TrafficConfig config = small_config();
  config.arrivals.rate_hz = 50.0;  // burst everything at once
  config.admission.enabled = true;
  config.admission.capacity_bytes = 4ULL << 20;  // one job in flight
  const TrafficReport report = run_traffic(config);
  EXPECT_EQ(report.total.jobs_completed, 24u);
  EXPECT_GT(report.total.jobs_deferred, 0u);
  EXPECT_GT(report.total.admission_wait.summary().max, 0.0);

  // Throttled tenants trade sojourn for isolation: admission wait shows up
  // in sojourn but not in service time.
  EXPECT_GE(report.total.sojourn.summary().mean,
            report.total.service.summary().mean);
}

TEST(TrafficEngineTest, FairQueueKeepsThroughputAndCountsDispatches) {
  TrafficConfig config = small_config();
  config.fair_queue = true;
  const TrafficReport report = run_traffic(config);
  EXPECT_EQ(report.total.jobs_completed, 24u);
  EXPECT_GT(report.nic_scheduled, 0u);
  EXPECT_GT(report.disk_scheduled, 0u);
}

TEST(TrafficEngineTest, WfqWeightFavorsHeavyTenantUnderContention) {
  TrafficConfig config = small_config();
  config.arrivals.tenants = 16;
  config.arrivals.jobs_per_tenant = 8;
  config.arrivals.rate_hz = 100.0;  // near-simultaneous burst: deep queues
  config.fair_queue = true;
  config.weights = {8.0, 1.0};  // even tenants heavy, odd tenants light
  const TrafficReport report = run_traffic(config);

  double heavy = 0.0, light = 0.0;
  for (std::size_t t = 0; t < report.tenants.size(); ++t) {
    const double mean = report.tenants[t].sojourn.summary().mean;
    (t % 2 == 0 ? heavy : light) += mean;
  }
  EXPECT_LT(heavy, light);
}

TEST(TrafficEngineTest, TraceFileDrivesSubmissions) {
  const std::string path =
      ::testing::TempDir() + "das_traffic_engine_trace.csv";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "time_s,tenant,kind,bytes\n";
    for (int i = 0; i < 6; ++i) {
      out << (0.25 * i) << "," << (i % 2) << ",raw-read,2097152\n";
    }
  }
  TrafficConfig config = small_config();
  config.arrivals.tenants = 2;
  config.trace_file = path;
  const TrafficReport report = run_traffic(config);
  std::remove(path.c_str());

  EXPECT_EQ(report.total.jobs_completed, 6u);
  EXPECT_EQ(report.total.bytes_read, 6u * (2ULL << 20));
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].jobs_completed, 3u);
  EXPECT_EQ(report.tenants[1].jobs_completed, 3u);
}

TEST(TrafficEngineTest, TenKilotenantsStayAffordable) {
  // The scale end of the bench in miniature: many tenants, tiny jobs.
  TrafficConfig config = small_config();
  config.arrivals.tenants = 2000;
  config.arrivals.jobs_per_tenant = 1;
  config.arrivals.job_bytes = 1ULL << 20;
  const TrafficReport report = run_traffic(config);
  EXPECT_EQ(report.total.jobs_completed, 2000u);
  EXPECT_EQ(report.tenants.size(), 2000u);
}

}  // namespace
}  // namespace das::traffic
