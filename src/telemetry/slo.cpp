#include "telemetry/slo.hpp"

#include <algorithm>
#include <vector>

#include "simkit/assert.hpp"

namespace das::telemetry {

SloMonitor::SloMonitor(SloConfig config) : config_(config) {
  window_ns_ = sim::seconds(config_.window_s > 0.0 ? config_.window_s : 1.0);
}

SloMonitor::Window& SloMonitor::window_for(std::uint32_t tenant) {
  DAS_REQUIRE(tenant < config_.max_tenants);
  if (tenant >= windows_.size()) {
    windows_.resize(tenant + 1);
    alerted_.resize(tenant + 1, false);
  }
  return windows_[tenant];
}

void SloMonitor::prune(Window& window, sim::SimTime now) const {
  const sim::SimTime horizon = now - window_ns_;
  while (!window.empty() && window.front().at < horizon) window.pop_front();
}

void SloMonitor::record(std::uint32_t tenant, sim::SimTime now,
                        double latency_s) {
  if (!enabled()) return;
  Window& window = window_for(tenant);
  prune(window, now);
  window.push_back({now, latency_s});
  if (alerted_[tenant] || window.size() < kMinAlertSamples) return;
  const double burn = burn_rate(tenant);
  if (burn >= 1.0) {
    alerted_[tenant] = true;
    ++alerts_fired_;
    if (on_alert_) on_alert_(tenant, now, burn);
  }
}

void SloMonitor::refresh(sim::SimTime now) {
  for (Window& window : windows_) prune(window, now);
}

double SloMonitor::burn_rate(std::uint32_t tenant) const {
  if (tenant >= windows_.size()) return 0.0;
  const Window& window = windows_[tenant];
  if (window.empty()) return 0.0;
  std::size_t violations = 0;
  for (const Sample& s : window) {
    if (s.latency_s > config_.target_s) ++violations;
  }
  const double fraction =
      static_cast<double>(violations) / static_cast<double>(window.size());
  const double budget = config_.budget > 0.0 ? config_.budget : 0.01;
  return fraction / budget;
}

double SloMonitor::window_p99_s(std::uint32_t tenant) const {
  if (tenant >= windows_.size()) return 0.0;
  const Window& window = windows_[tenant];
  if (window.empty()) return 0.0;
  std::vector<double> latencies;
  latencies.reserve(window.size());
  for (const Sample& s : window) latencies.push_back(s.latency_s);
  std::sort(latencies.begin(), latencies.end());
  // Rounded-index p99: the sample at index round(0.99 * (n - 1)), halves
  // rounding up. This is not sim::Histogram's nearest rank (index
  // ceil(0.99 * n) - 1); the two differ for some n, e.g. 58 vs 59 at n = 60.
  // The value feeds the metrics CSV, so the rule stays as it is.
  const auto rank = static_cast<std::size_t>(
      0.99 * static_cast<double>(latencies.size() - 1) + 0.5);
  return latencies[std::min(rank, latencies.size() - 1)];
}

}  // namespace das::telemetry
