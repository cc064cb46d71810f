// SloMonitor: burn-rate arithmetic, alert-once semantics, window pruning.
#include "telemetry/slo.hpp"

#include <gtest/gtest.h>

#include "simkit/stats.hpp"
#include "simkit/time.hpp"

namespace das::telemetry {
namespace {

SloConfig make_config(double target_s = 0.1, double budget = 0.25,
                      double window_s = 1.0) {
  SloConfig c;
  c.target_s = target_s;
  c.budget = budget;
  c.window_s = window_s;
  return c;
}

TEST(SloMonitorTest, NonPositiveTargetDisablesEverything) {
  SloMonitor slo(make_config(/*target_s=*/0.0));
  EXPECT_FALSE(slo.enabled());
  slo.record(0, sim::milliseconds(1), 99.0);
  EXPECT_EQ(slo.tenants(), 0u);
  EXPECT_EQ(slo.burn_rate(0), 0.0);
  EXPECT_EQ(slo.alerts_fired(), 0u);
}

TEST(SloMonitorTest, BurnRateIsViolationFractionOverBudget) {
  SloMonitor slo(make_config(/*target_s=*/0.1, /*budget=*/0.25));
  // 4 samples, 1 violation: fraction 0.25, budget 0.25 -> burn 1.0. Stay
  // below kMinAlertSamples so no alert interferes.
  slo.record(0, sim::milliseconds(1), 0.05);
  slo.record(0, sim::milliseconds(2), 0.05);
  slo.record(0, sim::milliseconds(3), 0.05);
  slo.record(0, sim::milliseconds(4), 0.50);
  EXPECT_DOUBLE_EQ(slo.burn_rate(0), 1.0);
  EXPECT_EQ(slo.alerts_fired(), 0u);  // only 4 of the 8 required samples
}

TEST(SloMonitorTest, ExactlyOnTargetIsNotAViolation) {
  SloMonitor slo(make_config(/*target_s=*/0.1));
  slo.record(0, sim::milliseconds(1), 0.1);
  EXPECT_EQ(slo.burn_rate(0), 0.0);
}

TEST(SloMonitorTest, AlertFiresOncePerTenantAtMinimumSampleCount) {
  SloMonitor slo(make_config(/*target_s=*/0.1, /*budget=*/0.05));
  std::uint32_t alert_tenant = 99;
  sim::SimTime alert_at = 0;
  double alert_burn = 0.0;
  int calls = 0;
  slo.set_alert_hook([&](std::uint32_t tenant, sim::SimTime now, double burn) {
    ++calls;
    alert_tenant = tenant;
    alert_at = now;
    alert_burn = burn;
  });
  // 7 violations: burn is sky-high but the window is too thin to trust.
  for (int i = 1; i <= 7; ++i) {
    slo.record(2, sim::milliseconds(i), 1.0);
    EXPECT_EQ(calls, 0);
  }
  // The 8th sample crosses kMinAlertSamples and fires.
  slo.record(2, sim::milliseconds(8), 1.0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(alert_tenant, 2u);
  EXPECT_EQ(alert_at, sim::milliseconds(8));
  EXPECT_DOUBLE_EQ(alert_burn, 1.0 / 0.05);
  EXPECT_TRUE(slo.alerted(2));
  EXPECT_EQ(slo.alerts_fired(), 1u);
  // Further breaches are latched out.
  slo.record(2, sim::milliseconds(9), 1.0);
  EXPECT_EQ(calls, 1);
}

TEST(SloMonitorTest, WindowP99IsTheRoundedIndexNotNearestRank) {
  // Pins the rule window_p99_s uses, which feeds the metrics CSV: the sample
  // at index round(0.99 * (n - 1)). At n = 60 that is index 58 (the 59th
  // smallest), where sim::Histogram's nearest rank picks index 59.
  SloMonitor slo(make_config(/*target_s=*/100.0));
  sim::Histogram histogram;
  for (int i = 60; i >= 1; --i) {  // unsorted arrival order
    slo.record(0, sim::milliseconds(61 - i), static_cast<double>(i));
    histogram.record(static_cast<double>(i));
  }
  EXPECT_EQ(slo.window_p99_s(0), 59.0);
  EXPECT_EQ(histogram.quantile(0.99), 60.0);
}

TEST(SloMonitorTest, AlertsAreIndependentPerTenant) {
  SloMonitor slo(make_config(/*target_s=*/0.1, /*budget=*/0.05));
  std::vector<std::uint32_t> fired;
  slo.set_alert_hook([&fired](std::uint32_t tenant, sim::SimTime, double) {
    fired.push_back(tenant);
  });
  for (int i = 1; i <= 8; ++i) {
    slo.record(0, sim::milliseconds(i), 1.0);  // tenant 0 breaches
    slo.record(1, sim::milliseconds(i), 0.01);  // tenant 1 is healthy
  }
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], 0u);
  EXPECT_TRUE(slo.alerted(0));
  EXPECT_FALSE(slo.alerted(1));
}

TEST(SloMonitorTest, WindowSlidesOldSamplesOut) {
  SloMonitor slo(make_config(/*target_s=*/0.1, /*budget=*/0.25,
                             /*window_s=*/0.1));
  // One violation early; after the window passes it stops counting.
  slo.record(0, sim::milliseconds(1), 1.0);
  EXPECT_GT(slo.burn_rate(0), 0.0);
  slo.record(0, sim::milliseconds(500), 0.01);
  EXPECT_EQ(slo.burn_rate(0), 0.0);  // the violation aged out on record()
}

TEST(SloMonitorTest, RefreshPrunesWithoutRecording) {
  SloMonitor slo(make_config(/*target_s=*/0.1, /*budget=*/0.25,
                             /*window_s=*/0.1));
  slo.record(0, sim::milliseconds(1), 1.0);
  EXPECT_GT(slo.burn_rate(0), 0.0);
  slo.refresh(sim::milliseconds(500));
  EXPECT_EQ(slo.burn_rate(0), 0.0);
  EXPECT_EQ(slo.window_p99_s(0), 0.0);
}

TEST(SloMonitorTest, WindowP99UsesNearestRank) {
  SloMonitor slo(make_config(/*target_s=*/10.0));  // high target: no alerts
  for (int i = 1; i <= 100; ++i) {
    slo.record(0, sim::milliseconds(i), static_cast<double>(i) / 1000.0);
  }
  // Nearest-rank over 100 sorted samples: rank(0.99) -> the 99th value.
  EXPECT_DOUBLE_EQ(slo.window_p99_s(0), 0.099);
  EXPECT_EQ(slo.window_p99_s(7), 0.0);  // unknown tenant
}

}  // namespace
}  // namespace das::telemetry
