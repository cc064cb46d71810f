#include "core/scheme.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "cache/strip_cache.hpp"
#include "core/as_client.hpp"
#include "core/bandwidth_model.hpp"
#include "core/cluster.hpp"
#include "core/distribution_planner.hpp"
#include "grid/serialize.hpp"
#include "kernels/registry.hpp"
#include "pfs/migrate.hpp"
#include "simkit/assert.hpp"
#include "simkit/context.hpp"
#include "telemetry/plane.hpp"

namespace das::core {
namespace {

/// Snapshot of the network counters, for per-stage attribution.
struct TrafficSnapshot {
  std::uint64_t client_server = 0;
  std::uint64_t server_server = 0;
  std::uint64_t control = 0;

  static TrafficSnapshot take(const net::Network& network) {
    return TrafficSnapshot{
        network.bytes_delivered(net::TrafficClass::kClientServer),
        network.bytes_delivered(net::TrafficClass::kServerServer),
        network.messages_delivered(net::TrafficClass::kControl)};
  }
};

/// Choose the input layout for a run.
std::unique_ptr<pfs::Layout> choose_input_layout(
    const SchemeRunOptions& options, const pfs::FileMeta& meta,
    const std::vector<std::int64_t>& offsets) {
  const std::uint32_t servers = options.cluster.storage_nodes;
  if (options.scheme == Scheme::kDAS && options.pre_distributed) {
    const DistributionPlanner planner(options.distribution);
    if (const auto spec = planner.plan(meta, offsets, servers)) {
      return spec->make_layout();
    }
  }
  return std::make_unique<pfs::RoundRobinLayout>(servers);
}

/// Snapshot of the cache + prefetch counters, for per-stage attribution
/// (hub totals are cumulative, so stage rows must diff around each stage).
struct CacheSnapshot {
  cache::CacheStats cache;
  pfs::PrefetchStats prefetch;

  static CacheSnapshot take(Cluster& cluster) {
    return CacheSnapshot{cluster.pfs().cache_stats(),
                         cluster.pfs().prefetch_stats()};
  }
};

void fill_cache_stats(RunReport& report, Cluster& cluster,
                      const CacheSnapshot& before = {}) {
  cache::CacheStats stats = cluster.pfs().cache_stats();
  stats -= before.cache;
  report.cache_hits = stats.hits;
  report.cache_misses = stats.misses;
  report.cache_evictions = stats.evictions;
  report.cache_hit_bytes = stats.hit_bytes;
  report.prefetch_hits = stats.prefetch_hits;
  report.prefetch_hit_bytes = stats.prefetch_hit_bytes;

  pfs::PrefetchStats prefetch = cluster.pfs().prefetch_stats();
  prefetch -= before.prefetch;
  report.prefetch_issued = prefetch.issued;
  report.prefetch_issued_bytes = prefetch.issued_bytes;
  report.prefetch_coalesced = prefetch.coalesced;
  report.prefetch_dropped_stale = prefetch.dropped_stale;
}

/// Per-pass migration hook for the NAS repeated-pass path. After each pass
/// the just-finished executor's halo counters are the observed side of the
/// planner's divergence test; on a recommendation the layout migrator
/// re-stripes the input in the background while subsequent passes keep
/// reading it (per-strip frontier resolution in Pfs). At most one migration
/// per run.
class MigrationDriver {
 public:
  MigrationDriver(Cluster& cluster, const MigrationConfig& config,
                  const DistributionConfig& distribution, pfs::FileId input,
                  std::vector<std::int64_t> offsets, std::uint32_t repeats)
      : cluster_(cluster),
        planner_(distribution, config),
        migrator_(cluster.simulator(), cluster.pfs()),
        input_(input),
        offsets_(std::move(offsets)),
        repeats_(repeats) {}

  /// Feed the pass that just completed. Launches the migrator when the
  /// planner recommends; later passes then resolve reads per strip against
  /// the advancing frontier.
  void on_pass_done(const ActiveExecutor& exec) {
    ++pass_;
    if (pass_ >= repeats_ || migrator_.busy() || planner_.launched()) return;
    HaloFetchTotals totals;
    totals += exec;
    const std::uint64_t observed =
        totals.bytes_fetched + totals.cache_hit_bytes;
    const std::optional<MigrationPlan> plan = planner_.observe(
        cluster_.pfs().meta(input_), cluster_.pfs().layout(input_), offsets_,
        observed, repeats_ - pass_);
    if (!plan) return;
    planner_.notify_launched();
    pfs::MigrateOptions opt;
    opt.strips_per_round = planner_.config().strips_per_round;
    migrator_.migrate(input_, plan->target.make_layout(), opt, nullptr);
  }

  [[nodiscard]] const pfs::LayoutMigrator& migrator() const {
    return migrator_;
  }

 private:
  Cluster& cluster_;
  MigrationPlanner planner_;
  pfs::LayoutMigrator migrator_;
  pfs::FileId input_;
  std::vector<std::int64_t> offsets_;
  std::uint32_t repeats_;
  std::uint32_t pass_ = 0;
};

void fill_traffic(RunReport& report, const net::Network& network,
                  const TrafficSnapshot& before) {
  const TrafficSnapshot after = TrafficSnapshot::take(network);
  report.client_server_bytes = after.client_server - before.client_server;
  report.server_server_bytes = after.server_server - before.server_server;
  report.control_messages = after.control - before.control;
}

/// Resource busy fractions over [0, finish], averaged per node class.
void fill_utilization(RunReport& report, Cluster& cluster,
                      sim::SimTime finish) {
  if (finish <= 0) return;
  const double span = sim::to_seconds(finish);
  const std::uint32_t servers = cluster.config().storage_nodes;
  const std::uint32_t clients = cluster.config().compute_nodes;

  double disk = 0.0, nic = 0.0, server_compute = 0.0, client_compute = 0.0;
  for (pfs::ServerIndex s = 0; s < servers; ++s) {
    const net::NodeId node = cluster.storage_node(s);
    disk += sim::to_seconds(cluster.pfs().server(s).disk().busy_time());
    nic += (sim::to_seconds(cluster.network().nic(node).egress_busy()) +
            sim::to_seconds(cluster.network().nic(node).ingress_busy())) /
           2.0;
    server_compute += sim::to_seconds(cluster.engine(node).busy_time());
  }
  for (std::uint32_t c = 0; c < clients; ++c) {
    client_compute +=
        sim::to_seconds(cluster.engine(cluster.compute_node(c)).busy_time());
  }
  report.server_disk_utilization = disk / (span * servers);
  report.server_nic_utilization = nic / (span * servers);
  report.server_compute_utilization = server_compute / (span * servers);
  report.client_compute_utilization = client_compute / (span * clients);
}

LatencyQuantiles quantiles_of(const sim::Histogram& histogram) {
  const sim::HistogramSummary s = histogram.summary();
  return LatencyQuantiles{s.p50, s.p95, s.p99};
}

/// Merge the per-resource wait/service histograms across nodes and surface
/// their quantiles: where a request's time went (NIC queue vs wire vs disk
/// vs compute), over everything the run moved.
void fill_latency_breakdown(RunReport& report, Cluster& cluster) {
  report.net_queue_wait =
      quantiles_of(cluster.network().queue_wait_histogram());
  report.net_wire = quantiles_of(cluster.network().wire_histogram());

  sim::Histogram disk;
  sim::Histogram compute;
  for (pfs::ServerIndex s = 0; s < cluster.config().storage_nodes; ++s) {
    disk.merge(cluster.pfs().server(s).disk().service_histogram());
  }
  for (net::NodeId n = 0; n < cluster.config().total_nodes(); ++n) {
    compute.merge(cluster.engine(n).service_histogram());
  }
  report.disk_service = quantiles_of(disk);
  report.compute_service = quantiles_of(compute);
}

/// Gather output file `output` and record how far it is from `reference`.
void verify_against(RunReport& report, Cluster& cluster, pfs::FileId output,
                    const WorkloadSpec& workload,
                    const grid::Grid<float>& reference) {
  const grid::Grid<float> produced = grid::from_bytes(
      cluster.pfs().gather_bytes(output), workload.width(), workload.height());
  report.output_max_error = grid::max_abs_diff(produced, reference);
  report.output_verified = produced == reference;
}

/// Expand a region list to the whole strips it touches (adjacent strips
/// merge into one run) — the pre-list-I/O fetch shape.
pfs::RegionList expand_to_strips(const pfs::FileMeta& meta,
                                 const pfs::RegionList& regions) {
  std::vector<pfs::Run> runs;
  std::uint64_t prev_strip = UINT64_MAX;
  for (const pfs::StripRun& r : split_by_strip(meta, regions)) {
    if (r.strip == prev_strip) continue;
    prev_strip = r.strip;
    const pfs::StripRef ref = meta.strip(r.strip);
    if (!runs.empty() && runs.back().offset + runs.back().length == ref.offset) {
      runs.back().length += ref.length;
    } else {
      runs.push_back(pfs::Run{ref.offset, ref.length});
    }
  }
  return pfs::RegionList::from_runs(std::move(runs));
}

/// One simulated run, from the cluster to the report. It owns what every
/// run path shares: the cluster; the input file and, in correctness mode,
/// the host copy of its bytes; the executors and the Active Storage Client
/// that run operations over it; the telemetry enrolment; the timed event
/// loop; and the report fill.
class RunAssembly {
 public:
  /// Build the cluster and create the input file for an operation of
  /// `kernel_name`: the kernel generates its bytes in correctness mode and,
  /// under DAS, the file is laid out around its dependence pattern.
  RunAssembly(const SchemeRunOptions& options, const std::string& kernel_name)
      : options_(options),
        cluster_(options.cluster, options.context),
        kernel_(registry_.create(kernel_name)),
        meta_(options.workload.make_meta("input")),
        offsets_(kernel_->features().resolve(meta_.raster_width)),
        input_(create_input()),
        asc_(cluster_, registry_, options.distribution) {}

  [[nodiscard]] Cluster& cluster() { return cluster_; }
  [[nodiscard]] const kernels::ProcessingKernel& kernel() const {
    return *kernel_;
  }
  [[nodiscard]] const kernels::KernelRegistry& registry() const {
    return registry_;
  }
  [[nodiscard]] pfs::FileId input() const { return input_; }
  [[nodiscard]] const std::vector<std::int64_t>& offsets() const {
    return offsets_;
  }
  [[nodiscard]] const std::optional<std::vector<std::byte>>& data() const {
    return data_;
  }

  /// A report carrying the run's configuration and session id.
  [[nodiscard]] RunReport base_report(const std::string& kernel_name) const {
    RunReport report;
    report.scheme = to_string(options_.scheme);
    report.kernel = kernel_name;
    report.data_bytes = options_.workload.data_bytes;
    report.storage_nodes = options_.cluster.storage_nodes;
    report.compute_nodes = options_.cluster.compute_nodes;
    report.data_mode = options_.workload.with_data;
    if (options_.context != nullptr) {
      report.session_id = options_.context->session;
    }
    return report;
  }

  /// Enroll every component's counters with the run's telemetry plane, if
  /// it has one, and start its sampler. Call before job.start is scheduled,
  /// so the first sample already has the full column set.
  void arm_telemetry(const pfs::LayoutMigrator* migrator = nullptr) {
    if (plane_ == nullptr) return;
    cluster_.network().enroll(plane_->registry());
    for (pfs::ServerIndex s = 0; s < cluster_.pfs().num_servers(); ++s) {
      cluster_.pfs().server(s).enroll(plane_->registry());
    }
    for (std::uint32_t c = 0; c < options_.cluster.compute_nodes; ++c) {
      cluster_.client(c).enroll(plane_->registry());
    }
    if (migrator != nullptr) migrator->enroll(plane_->registry());
    plane_->start(cluster_.simulator());
  }

  /// Start one operation of `kernel` over `input` now, recording in
  /// `report` what its start decided. DAS submits through the Active
  /// Storage Client (Fig. 3: lookup, decide, redistribute, execute); TS and
  /// NAS create the output under the input's layout and run their static
  /// passes, after a metadata lookup when the operation stands alone (a
  /// pipeline stage already holds its input's metadata). `on_done` fires
  /// when the last pass completes.
  SubmissionResult start_operation(const kernels::ProcessingKernel& kernel,
                                   pfs::FileId input,
                                   std::uint32_t pipeline_length,
                                   bool standalone, RunReport& report,
                                   std::function<void()> on_done,
                                   MigrationDriver* migration = nullptr);

  /// Run the event loop to completion, timing it on the host clock.
  void run() {
    const auto start = std::chrono::steady_clock::now();
    cluster_.simulator().run();
    wall_seconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    if (plane_ != nullptr) plane_->finish(cluster_.simulator().now());
  }

  /// Fill what the run measured as a whole: exec seconds up to `finish`,
  /// host wall time, events, spans, cache counters and latency quantiles.
  void fill_run(RunReport& report, sim::SimTime finish) {
    report.exec_seconds = sim::to_seconds(finish);
    report.wall_seconds = wall_seconds_;
    // Sampler ticks are observational scaffolding, not workload events;
    // netting them out keeps the event count identical with telemetry
    // on/off.
    report.sim_events = cluster_.simulator().events_delivered() -
                        (plane_ != nullptr ? plane_->sampler_ticks() : 0);
    if (plane_ != nullptr) {
      report.spans_finished = plane_->spans().spans_finished();
      for (std::size_t h = 0; h < telemetry::kNumHops; ++h) {
        report.span_hop_seconds[h] = sim::to_seconds(
            plane_->spans().hop_total(static_cast<telemetry::Hop>(h)));
      }
    }
    fill_cache_stats(report, cluster_);
    fill_latency_breakdown(report, cluster_);
  }

  /// fill_run, plus the traffic and utilization a single operation owns
  /// over the whole run.
  void fill_operation(RunReport& report, sim::SimTime finish) {
    fill_run(report, finish);
    fill_traffic(report, cluster_.network(), TrafficSnapshot{});
    fill_utilization(report, cluster_, finish);
  }

  /// Fill the predicted-vs-observed decision audit for a single-operator
  /// run. DAS predictions come from the decision the engine actually took;
  /// NAS (static offload) is audited against the model's forecast under the
  /// file's layout, so the same residuals are comparable across schemes.
  void fill_audit(RunReport& report, const kernels::ProcessingKernel& kernel,
                  const SubmissionResult& das_result);

  /// Verify `output` against the sequential reference, computed from the
  /// host copy of the input bytes (the PFS holds its own copy, so the
  /// reference never reads it). Verification is the copy's last reader, so
  /// it is released before the output is gathered: one raster fewer is
  /// resident at the run's peak.
  void verify(RunReport& report, pfs::FileId output,
              const kernels::ProcessingKernel& kernel) {
    const WorkloadSpec& workload = options_.workload;
    if (!workload.with_data) return;
    DAS_REQUIRE(data_ && "correctness mode keeps its input copy");
    if (output == pfs::kInvalidFile || !kernel.tile_exact()) return;
    const grid::Grid<float> reference = kernel.run_reference(
        grid::from_bytes(*data_, workload.width(), workload.height()));
    data_.reset();
    verify_against(report, cluster_, output, workload, reference);
  }

 private:
  pfs::FileId create_input() {
    if (options_.workload.with_data) {
      data_ = grid::to_bytes(make_input(options_.workload, *kernel_));
    }
    return cluster_.pfs().create_file(
        meta_, choose_input_layout(options_, meta_, offsets_),
        data_ ? &*data_ : nullptr);
  }

  const SchemeRunOptions& options_;
  const kernels::KernelRegistry registry_ = kernels::standard_registry();
  Cluster cluster_;
  const kernels::KernelPtr kernel_;
  telemetry::Plane* plane_ =
      options_.context != nullptr ? options_.context->telemetry : nullptr;
  const pfs::FileMeta meta_;
  const std::vector<std::int64_t> offsets_;
  std::optional<std::vector<std::byte>> data_;
  const pfs::FileId input_;
  ActiveStorageClient asc_;
  // Static-scheme executors, one per pass; alive until the run ends.
  std::vector<std::unique_ptr<TsExecutor>> ts_execs_;
  std::vector<std::unique_ptr<ActiveExecutor>> active_execs_;
  double wall_seconds_ = 0.0;
};

SubmissionResult RunAssembly::start_operation(
    const kernels::ProcessingKernel& kernel, pfs::FileId input,
    std::uint32_t pipeline_length, bool standalone, RunReport& report,
    std::function<void()> on_done, MigrationDriver* migration) {
  SubmissionResult result;
  if (options_.scheme == Scheme::kDAS) {
    ActiveRequest request;
    request.input = input;
    request.kernel_name = kernel.name();
    request.pipeline_length = pipeline_length;
    request.repeat_count = options_.repeat_count;
    request.data_mode = options_.workload.with_data;
    result = asc_.submit(request, std::move(on_done));
  } else {
    const pfs::FileMeta in_meta = cluster_.pfs().meta(input);
    if (!kernel.is_reduction()) {
      pfs::FileMeta out_meta = in_meta;
      out_meta.name = in_meta.name + "." + kernel.name();
      result.output = cluster_.pfs().create_file(
          std::move(out_meta), cluster_.pfs().layout(input).clone(), nullptr);
    }
    result.offloaded = options_.scheme == Scheme::kNAS;
    const std::uint64_t halo = required_halo_strips(
        kernel.features().resolve(in_meta.raster_width),
        in_meta.element_size, in_meta.strip_size);
    auto passes = [this, &kernel, input, output = result.output, halo,
                   offloaded = result.offloaded, migration,
                   on_done = std::move(on_done)]() {
      const bool data_mode = options_.workload.with_data;
      if (offloaded) {
        run_passes(cluster_, ActiveExecutor::Options{&kernel, halo, data_mode},
                   input, output, options_.repeat_count, active_execs_,
                   on_done, [migration](const ActiveExecutor& exec) {
                     if (migration != nullptr) migration->on_pass_done(exec);
                   });
      } else {
        run_passes(cluster_, TsExecutor::Options{&kernel, halo, data_mode},
                   input, output, options_.repeat_count, ts_execs_, on_done);
      }
    };
    if (standalone) {
      cluster_.metadata_cache(0).lookup(
          input, [passes = std::move(passes)](pfs::FileInfo) { passes(); });
    } else {
      passes();
    }
  }
  report.offloaded = result.offloaded;
  report.redistributed = result.redistributed;
  report.redistribution_bytes = result.redistribution_bytes;
  report.decision_note = result.decision.rationale;
  return result;
}

void RunAssembly::fill_audit(RunReport& report,
                             const kernels::ProcessingKernel& kernel,
                             const SubmissionResult& das_result) {
  DecisionAudit& audit = report.audit;
  audit.valid = true;
  audit.repeats = options_.repeat_count;
  const cache::CacheConfig& cache = options_.cluster.server_cache;
  const pfs::PrefetchConfig& prefetch_cfg = options_.cluster.prefetch;
  audit.cache_capacity_bytes = cache.active() ? cache.capacity_bytes : 0;
  audit.prefetch_depth = prefetch_cfg.active() ? prefetch_cfg.depth : 0;
  const bool prefetching = cache.active() && prefetch_cfg.active();

  // Predicted side.
  switch (options_.scheme) {
    case Scheme::kTS:
      audit.action = "static-normal";
      break;
    case Scheme::kNAS: {
      audit.action = "static-offload";
      const PlacementSpec placement =
          PlacementSpec::from_layout(cluster_.pfs().layout(input_));
      const TrafficForecast forecast = forecast_traffic(
          meta_, offsets_, placement, kernel.output_bytes(meta_.size_bytes));
      audit.predicted_halo_bytes = forecast.active_strip_fetch_bytes;
      if (cache.active()) {
        audit.predicted_cache_hit_rate = predicted_cache_hit_rate(
            forecast, placement, cache.capacity_bytes);
      }
      if (prefetching) {
        audit.predicted_overlap =
            prefetch_overlap_fraction(prefetch_cfg.depth);
      }
      break;
    }
    case Scheme::kDAS: {
      audit.action = to_string(das_result.decision.action);
      if (das_result.offloaded) {
        const TrafficForecast& forecast =
            das_result.redistributed ? das_result.decision.target_forecast
                                     : das_result.decision.current_forecast;
        audit.predicted_halo_bytes = forecast.active_strip_fetch_bytes;
        if (prefetching) {
          audit.predicted_overlap =
              prefetch_overlap_fraction(prefetch_cfg.depth);
        }
      }
      audit.predicted_cache_hit_rate = das_result.decision.predicted_hit_rate;
      break;
    }
  }

  // Observed side. Halo acquisitions = network fetches + cache hits +
  // demand waiters coalesced onto in-flight fetches, averaged per pass.
  HaloFetchTotals totals;
  if (options_.scheme == Scheme::kDAS) totals = asc_.halo_totals();
  for (const auto& exec : active_execs_) totals += *exec;
  const pfs::PrefetchStats prefetch = cluster_.pfs().prefetch_stats();
  audit.observed_halo_bytes =
      static_cast<double>(totals.bytes_fetched + totals.cache_hit_bytes +
                          prefetch.coalesced_bytes) /
      static_cast<double>(audit.repeats);

  const std::uint64_t lookups = report.cache_hits + report.cache_misses;
  audit.observed_cache_hit_rate = report.cache_hit_rate();
  if (audit.repeats <= 1 || lookups == 0) {
    audit.observed_warm_cache_hit_rate = audit.observed_cache_hit_rate;
  } else {
    // Steady-state estimate: drop the (necessarily cold) first pass from
    // the denominator and the prefetcher-served hits from the numerator,
    // leaving cross-pass retention — what the prediction models.
    const double warm_lookups =
        static_cast<double>(lookups) -
        static_cast<double>(lookups) / static_cast<double>(audit.repeats);
    const double warm_hits = static_cast<double>(
        report.cache_hits - std::min(report.cache_hits, report.prefetch_hits));
    audit.observed_warm_cache_hit_rate =
        warm_lookups > 0.0 ? std::clamp(warm_hits / warm_lookups, 0.0, 1.0)
                           : 0.0;
  }

  const double overlap_denominator = static_cast<double>(
      totals.strips_fetched + totals.cache_hits + prefetch.coalesced);
  audit.observed_overlap =
      overlap_denominator > 0.0
          ? std::min(1.0, static_cast<double>(report.prefetch_hits +
                                              prefetch.coalesced) /
                              overlap_denominator)
          : 0.0;
}

}  // namespace

RunReport run_scheme(const SchemeRunOptions& options) {
  RunAssembly run(options, options.workload.kernel_name);
  const kernels::ProcessingKernel& kernel = run.kernel();
  std::unique_ptr<MigrationDriver> migration;
  if (options.migration.active() && options.scheme == Scheme::kNAS) {
    migration = std::make_unique<MigrationDriver>(
        run.cluster(), options.migration, options.distribution, run.input(),
        run.offsets(), options.repeat_count);
  }
  run.arm_telemetry(migration != nullptr ? &migration->migrator() : nullptr);

  RunReport report = run.base_report(kernel.name());
  SubmissionResult result;
  sim::SimTime finish = -1;
  run.cluster().simulator().schedule_at(
      options.cluster.job_startup,
      [&]() {
        result = run.start_operation(
            kernel, run.input(), options.pipeline_length, true, report,
            [&]() { finish = run.cluster().simulator().now(); },
            migration.get());
      },
      "job.start");
  run.run();
  DAS_REQUIRE(finish >= 0 && "scheme run did not complete");

  run.fill_operation(report, finish);
  if (migration != nullptr) {
    report.migrations = migration->migrator().total_migrations();
    report.migration_bytes = migration->migrator().total_bytes_moved();
  }
  run.fill_audit(report, kernel, result);
  run.verify(report, result.output, kernel);
  return report;
}

std::vector<RunReport> run_pipeline(
    const SchemeRunOptions& options,
    const std::vector<std::string>& kernel_chain) {
  DAS_REQUIRE(!kernel_chain.empty());
  RunAssembly run(options, kernel_chain.front());
  const WorkloadSpec& workload = options.workload;

  std::vector<kernels::KernelPtr> chain;
  chain.reserve(kernel_chain.size());
  for (std::size_t i = 0; i < kernel_chain.size(); ++i) {
    chain.push_back(run.registry().create(kernel_chain[i]));
    // A reduction has no raster output to feed a successor.
    DAS_REQUIRE(!chain.back()->is_reduction() ||
                i + 1 == kernel_chain.size());
  }

  struct Stage {
    RunReport report;
    pfs::FileId output = pfs::kInvalidFile;
    sim::SimTime finish = -1;
    TrafficSnapshot before;
    CacheSnapshot cache_before;
  };
  std::vector<Stage> stages(kernel_chain.size());
  for (std::size_t i = 0; i < stages.size(); ++i) {
    stages[i].report = run.base_report(kernel_chain[i]);
  }
  run.arm_telemetry();

  // Stage i starts on stage i-1's output the moment stage i-1 completes.
  Cluster& cluster = run.cluster();
  std::function<void(std::size_t, pfs::FileId)> launch =
      [&](std::size_t i, pfs::FileId in) {
        Stage& stage = stages[i];
        stage.before = TrafficSnapshot::take(cluster.network());
        stage.cache_before = CacheSnapshot::take(cluster);
        auto stage_done = [&, i]() {
          Stage& st = stages[i];
          st.finish = cluster.simulator().now();
          fill_traffic(st.report, cluster.network(), st.before);
          // True per-stage deltas: the hub counters are cumulative, so
          // without the diff stage N's row would include hits earned by
          // stages 1..N-1.
          fill_cache_stats(st.report, cluster, st.cache_before);
          st.report.exec_seconds =
              sim::to_seconds(st.finish) -
              (i == 0 ? sim::to_seconds(options.cluster.job_startup)
                      : sim::to_seconds(stages[i - 1].finish));
          if (i + 1 < stages.size()) launch(i + 1, st.output);
        };
        stage.output =
            run.start_operation(*chain[i], in,
                                static_cast<std::uint32_t>(stages.size() - i),
                                false, stage.report, stage_done)
                .output;
      };
  cluster.simulator().schedule_at(
      options.cluster.job_startup, [&]() { launch(0, run.input()); },
      "pipeline.start");
  run.run();

  std::vector<RunReport> reports;
  RunReport combined = run.base_report("pipeline");
  // Stage-wise verification chains the references from the retained input
  // copy: stage i is checked against kernel_i applied to the reference
  // output of stage i-1, and only while every stage so far was tile-exact
  // (a non-exact stage's output legitimately diverges from the reference
  // downstream, so the chain stops there).
  std::optional<grid::Grid<float>> reference;
  if (run.data()) {
    reference =
        grid::from_bytes(*run.data(), workload.width(), workload.height());
  }
  for (std::size_t i = 0; i < stages.size(); ++i) {
    Stage& stage = stages[i];
    DAS_REQUIRE(stage.finish >= 0 && "pipeline stage did not complete");
    if (reference && !chain[i]->is_reduction()) {
      if (chain[i]->tile_exact()) {
        reference = chain[i]->run_reference(*reference);
        verify_against(stage.report, cluster, stage.output, workload,
                       *reference);
      } else {
        reference.reset();
      }
    }
    combined.client_server_bytes += stage.report.client_server_bytes;
    combined.server_server_bytes += stage.report.server_server_bytes;
    combined.control_messages += stage.report.control_messages;
    combined.redistribution_bytes += stage.report.redistribution_bytes;
    combined.offloaded = combined.offloaded || stage.report.offloaded;
    combined.redistributed =
        combined.redistributed || stage.report.redistributed;
    reports.push_back(stage.report);
  }
  run.fill_run(combined, stages.back().finish);
  reports.push_back(combined);
  return reports;
}

RunReport run_list_scheme(const ListRunOptions& options) {
  DAS_REQUIRE(options.access.active());
  const kernels::KernelPtr kernel =
      kernels::standard_registry().create(options.workload.kernel_name);

  pfs::FileMeta meta = options.workload.make_meta("input");
  const auto offsets = kernel->features().resolve(meta.raster_width);
  const pfs::RegionList list_regions = build_access_regions(
      meta, options.access, halo_rows_for(meta, offsets));

  // Price the list access itself (never the whole-strip expansion): this is
  // the decision that must flip TS <-> DAS as sparsity varies.
  const ListStats stats =
      list_stats(meta, list_regions, options.cluster.storage_nodes);
  const double cost_factor = options.cluster.compute_cost.factor_for(
      kernel->name(), kernel->cost_factor());
  const std::uint64_t full_output = kernel->output_bytes(meta.size_bytes);
  const ListDecision decision = decide_list_access(
      meta, offsets, stats, options.cluster, options.distribution,
      cost_factor, full_output,
      access_output_bytes(meta, options.access,
                          halo_rows_for(meta, offsets), full_output));

  SchemeRunOptions classic;
  classic.scheme = options.scheme;
  classic.workload = options.workload;
  classic.cluster = options.cluster;
  classic.distribution = options.distribution;
  classic.context = options.context;
  // NAS always offloads; DAS follows its list-aware decision.
  if (options.scheme == Scheme::kNAS ||
      (options.scheme == Scheme::kDAS &&
       decision.action != OffloadAction::kServeNormal)) {
    // Offloaded service: active storage runs the full sweep the classic
    // runner already models; only the decision note changes.
    RunReport report = run_scheme(classic);
    report.decision_note = decision.rationale;
    return report;
  }

  // Served as list I/O (TS, or DAS declining the offload), from the
  // round-robin input.
  classic.pre_distributed = false;
  RunAssembly run(classic, options.workload.kernel_name);
  Cluster& cluster = run.cluster();
  const pfs::RegionList regions =
      options.whole_strips ? expand_to_strips(meta, list_regions)
                           : list_regions;
  run.arm_telemetry();

  // Contiguous run partition: client c owns runs [c*R/C, (c+1)*R/C), so
  // each client issues exactly one read_regions and the per-server batches
  // stay large (strided patterns land on few clients per server).
  const std::uint32_t clients = options.cluster.compute_nodes;
  const std::size_t num_runs = regions.runs().size();
  std::vector<pfs::RegionList> parts(clients);
  std::uint32_t remaining = 0;
  for (std::uint32_t c = 0; c < clients; ++c) {
    const std::size_t lo = c * num_runs / clients;
    const std::size_t hi = (c + 1) * num_runs / clients;
    if (hi > lo) {
      parts[c] = regions.subset(lo, hi);
      ++remaining;
    }
  }
  DAS_REQUIRE(remaining > 0 && "sparse access selected no runs");

  sim::SimTime finish = -1;
  for (std::uint32_t c = 0; c < clients; ++c) {
    if (parts[c].empty()) continue;
    cluster.simulator().schedule_at(
        options.cluster.job_startup,
        [&cluster, &parts, &finish, &remaining, c, cost_factor,
         input = run.input()]() {
          cluster.client(c).read_regions(
              input, parts[c],
              [&cluster, &parts, &finish, &remaining, c, cost_factor]() {
                // The client computes over the rows it fetched (sampled
                // rows + halo); the sampled outputs are kept client-side,
                // so nothing is written back.
                sim::Simulator& sim = cluster.simulator();
                const sim::SimTime done =
                    cluster.engine(cluster.compute_node(c))
                        .execute(sim.now(), parts[c].total_bytes(),
                                 cost_factor);
                sim.schedule_at(
                    done,
                    [&cluster, &finish, &remaining]() {
                      DAS_REQUIRE(remaining > 0);
                      if (--remaining == 0) {
                        finish = cluster.simulator().now();
                      }
                    },
                    "list.compute");
              });
        },
        "job.start");
  }
  run.run();
  DAS_REQUIRE(finish >= 0 && "list run did not complete");

  RunReport report = run.base_report(kernel->name());
  report.decision_note = decision.rationale;
  run.fill_operation(report, finish);
  return report;
}

}  // namespace das::core
