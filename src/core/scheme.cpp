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

RunReport make_base_report(const SchemeRunOptions& options,
                           const std::string& kernel_name) {
  RunReport report;
  report.scheme = to_string(options.scheme);
  report.kernel = kernel_name;
  report.data_bytes = options.workload.data_bytes;
  report.storage_nodes = options.cluster.storage_nodes;
  report.compute_nodes = options.cluster.compute_nodes;
  report.data_mode = options.workload.with_data;
  return report;
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

/// Start `repeats` back-to-back passes of one operation. `start_pass` must
/// launch a fresh executor and invoke its argument when the pass completes
/// (executors hold per-start state, so instances cannot be restarted).
void run_repeated(std::uint32_t repeats,
                  std::function<void(std::function<void()>)> start_pass,
                  std::function<void()> on_done) {
  DAS_REQUIRE(repeats >= 1);
  auto run = std::make_shared<std::function<void(std::uint32_t)>>();
  *run = [run, repeats, start_pass = std::move(start_pass),
          on_done = std::move(on_done)](std::uint32_t pass) {
    std::function<void()> pass_done;
    if (pass + 1 < repeats) {
      pass_done = [run, pass]() { (*run)(pass + 1); };
    } else {
      pass_done = [run, on_done]() {
        if (on_done) on_done();
        *run = nullptr;  // release the self-reference
      };
    }
    start_pass(std::move(pass_done));
  };
  (*run)(0);
}

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

/// Fill the predicted-vs-observed decision audit for a single-operator run.
/// DAS predictions come from the decision the engine actually took; NAS
/// (static offload) is audited against the model's forecast under the
/// file's layout, so the same residuals are comparable across schemes.
void fill_audit(RunReport& report, const SchemeRunOptions& options,
                Cluster& cluster, const pfs::FileMeta& meta,
                const std::vector<std::int64_t>& offsets,
                const kernels::ProcessingKernel& kernel, pfs::FileId input,
                const SubmissionResult& das_result,
                const ActiveStorageClient* asc,
                const std::vector<std::unique_ptr<ActiveExecutor>>&
                    nas_execs) {
  DecisionAudit& audit = report.audit;
  audit.valid = true;
  audit.repeats = options.repeat_count;
  const cache::CacheConfig& cache = options.cluster.server_cache;
  const pfs::PrefetchConfig& prefetch_cfg = options.cluster.prefetch;
  audit.cache_capacity_bytes = cache.active() ? cache.capacity_bytes : 0;
  audit.prefetch_depth = prefetch_cfg.active() ? prefetch_cfg.depth : 0;
  const bool prefetching = cache.active() && prefetch_cfg.active();

  // Predicted side.
  switch (options.scheme) {
    case Scheme::kTS:
      audit.action = "static-normal";
      break;
    case Scheme::kNAS: {
      audit.action = "static-offload";
      const PlacementSpec placement =
          PlacementSpec::from_layout(cluster.pfs().layout(input));
      const TrafficForecast forecast = forecast_traffic(
          meta, offsets, placement, kernel.output_bytes(meta.size_bytes));
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
  if (options.scheme == Scheme::kDAS && asc != nullptr) {
    totals = asc->halo_totals();
  }
  for (const auto& exec : nas_execs) totals += *exec;
  const pfs::PrefetchStats prefetch = cluster.pfs().prefetch_stats();
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

/// Gather output file `output` and record how far it is from `reference`.
void verify_against(RunReport& report, Cluster& cluster, pfs::FileId output,
                    const WorkloadSpec& workload,
                    const grid::Grid<float>& reference) {
  const grid::Grid<float> produced = grid::from_bytes(
      cluster.pfs().gather_bytes(output), workload.width(), workload.height());
  report.output_max_error = grid::max_abs_diff(produced, reference);
  report.output_verified = produced == reference;
}

/// Verify a produced output file against the sequential reference, computed
/// from `input`: the host copy of the input bytes the run created its input
/// file from. The PFS holds its own copy, so the reference never reads it.
void verify_output(RunReport& report, Cluster& cluster, pfs::FileId output,
                   const WorkloadSpec& workload,
                   const kernels::ProcessingKernel& kernel,
                   const std::vector<std::byte>* input) {
  if (!workload.with_data) return;
  DAS_REQUIRE(input != nullptr && "correctness mode keeps its input copy");
  if (output == pfs::kInvalidFile || !kernel.tile_exact()) return;
  const grid::Grid<float> reference = kernel.run_reference(
      grid::from_bytes(*input, workload.width(), workload.height()));
  verify_against(report, cluster, output, workload, reference);
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

}  // namespace

RunReport run_scheme(const SchemeRunOptions& options) {
  Cluster cluster(options.cluster, options.context);
  const kernels::KernelRegistry registry = kernels::standard_registry();
  const kernels::KernelPtr kernel =
      registry.create(options.workload.kernel_name);
  const WorkloadSpec& workload = options.workload;

  pfs::FileMeta meta = workload.make_meta("input");
  const auto offsets = kernel->features().resolve(meta.raster_width);
  const std::uint64_t halo_strips =
      required_halo_strips(offsets, meta.element_size, meta.strip_size);

  std::optional<std::vector<std::byte>> data;
  if (workload.with_data) {
    data = grid::to_bytes(make_input(workload, *kernel));
  }

  const pfs::FileId input = cluster.pfs().create_file(
      meta, choose_input_layout(options, meta, offsets),
      data ? &*data : nullptr);

  RunReport report = make_base_report(options, kernel->name());
  const TrafficSnapshot before = TrafficSnapshot::take(cluster.network());

  sim::SimTime finish = -1;
  auto on_done = [&cluster, &finish]() { finish = cluster.simulator().now(); };

  std::vector<std::unique_ptr<TsExecutor>> ts_execs;
  std::vector<std::unique_ptr<ActiveExecutor>> active_execs;
  std::unique_ptr<ActiveStorageClient> asc;
  std::unique_ptr<MigrationDriver> migration;
  if (options.migration.active() && options.scheme == Scheme::kNAS) {
    migration = std::make_unique<MigrationDriver>(
        cluster, options.migration, options.distribution, input, offsets,
        options.repeat_count);
  }
  pfs::FileId output = pfs::kInvalidFile;
  SubmissionResult das_result;
  const std::uint32_t repeats = options.repeat_count;

  // Enroll every component's counters with the telemetry plane before any
  // event runs, so the first sample already has the full column set.
  telemetry::Plane* plane =
      options.context != nullptr ? options.context->telemetry : nullptr;
  if (plane != nullptr) {
    cluster.network().enroll(plane->registry());
    for (pfs::ServerIndex s = 0; s < cluster.pfs().num_servers(); ++s) {
      cluster.pfs().server(s).enroll(plane->registry());
    }
    for (std::uint32_t c = 0; c < options.cluster.compute_nodes; ++c) {
      cluster.client(c).enroll(plane->registry());
    }
    if (migration != nullptr) {
      migration->migrator().enroll(plane->registry());
    }
    plane->start(cluster.simulator());
  }

  switch (options.scheme) {
    case Scheme::kTS: {
      if (!kernel->is_reduction()) {
        pfs::FileMeta out_meta = meta;
        out_meta.name = "output";
        output = cluster.pfs().create_file(
            std::move(out_meta),
            std::make_unique<pfs::RoundRobinLayout>(
                options.cluster.storage_nodes),
            nullptr);
      }
      TsExecutor::Options opt{kernel.get(), halo_strips, workload.with_data};
      cluster.simulator().schedule_at(
          options.cluster.job_startup,
          [&cluster, &ts_execs, opt, input, output, on_done, repeats]() {
            cluster.metadata_cache(0).lookup(
                input, [&cluster, &ts_execs, opt, input, output, on_done,
                        repeats](pfs::FileInfo) {
                  run_repeated(
                      repeats,
                      [&cluster, &ts_execs, opt, input,
                       output](std::function<void()> pass_done) {
                        ts_execs.push_back(
                            std::make_unique<TsExecutor>(cluster, opt));
                        ts_execs.back()->start(input, output,
                                               std::move(pass_done));
                      },
                      on_done);
                });
          },
          "job.start");
      break;
    }
    case Scheme::kNAS: {
      if (!kernel->is_reduction()) {
        pfs::FileMeta out_meta = meta;
        out_meta.name = "output";
        output = cluster.pfs().create_file(
            std::move(out_meta), cluster.pfs().layout(input).clone(),
            nullptr);
      }
      ActiveExecutor::Options opt{kernel.get(), halo_strips,
                                  workload.with_data};
      cluster.simulator().schedule_at(
          options.cluster.job_startup,
          [&cluster, &active_execs, opt, input, output, on_done, repeats,
           mig = migration.get()]() {
            cluster.metadata_cache(0).lookup(
                input, [&cluster, &active_execs, opt, input, output, on_done,
                        repeats, mig](pfs::FileInfo) {
                  run_repeated(
                      repeats,
                      [&cluster, &active_execs, opt, input, output,
                       mig](std::function<void()> pass_done) {
                        active_execs.push_back(
                            std::make_unique<ActiveExecutor>(cluster, opt));
                        ActiveExecutor* exec = active_execs.back().get();
                        if (mig != nullptr) {
                          pass_done = [mig, exec,
                                       pass_done = std::move(pass_done)]() {
                            mig->on_pass_done(*exec);
                            pass_done();
                          };
                        }
                        exec->start(input, output, std::move(pass_done));
                      },
                      on_done);
                });
          },
          "job.start");
      report.offloaded = true;
      break;
    }
    case Scheme::kDAS: {
      asc = std::make_unique<ActiveStorageClient>(cluster, registry,
                                                  options.distribution);
      cluster.simulator().schedule_at(
          options.cluster.job_startup,
          [&asc, &das_result, &workload, input, on_done,
           pipeline = options.pipeline_length, repeats]() {
            ActiveRequest request;
            request.input = input;
            request.kernel_name = workload.kernel_name;
            request.pipeline_length = pipeline;
            request.repeat_count = repeats;
            request.data_mode = workload.with_data;
            das_result = asc->submit(request, on_done);
          },
          "job.start");
      break;
    }
  }

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.simulator().run();
  const auto wall_end = std::chrono::steady_clock::now();
  DAS_REQUIRE(finish >= 0 && "scheme run did not complete");
  if (plane != nullptr) plane->finish(cluster.simulator().now());

  report.exec_seconds = sim::to_seconds(finish);
  report.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  // Sampler ticks are observational scaffolding, not workload events; netting
  // them out keeps the reported event count identical with telemetry on/off.
  report.sim_events =
      cluster.simulator().events_delivered() -
      (plane != nullptr ? plane->sampler_ticks() : 0);
  if (options.context != nullptr) report.session_id = options.context->session;
  if (plane != nullptr) {
    report.spans_finished = plane->spans().spans_finished();
    for (std::size_t h = 0; h < telemetry::kNumHops; ++h) {
      report.span_hop_seconds[h] = sim::to_seconds(
          plane->spans().hop_total(static_cast<telemetry::Hop>(h)));
    }
  }
  fill_traffic(report, cluster.network(), before);
  fill_utilization(report, cluster, finish);
  fill_cache_stats(report, cluster);
  fill_latency_breakdown(report, cluster);

  if (options.scheme == Scheme::kDAS) {
    output = das_result.output;
    report.offloaded = das_result.offloaded;
    report.redistributed = das_result.redistributed;
    report.redistribution_bytes = das_result.redistribution_bytes;
    report.decision_note = das_result.decision.rationale;
  }
  if (migration != nullptr) {
    report.migrations = migration->migrator().total_migrations();
    report.migration_bytes = migration->migrator().total_bytes_moved();
  }
  fill_audit(report, options, cluster, meta, offsets, *kernel, input,
             das_result, asc.get(), active_execs);

  verify_output(report, cluster, output, workload, *kernel,
                data ? &*data : nullptr);
  return report;
}

std::vector<RunReport> run_pipeline(
    const SchemeRunOptions& options,
    const std::vector<std::string>& kernel_chain) {
  DAS_REQUIRE(!kernel_chain.empty());
  Cluster cluster(options.cluster, options.context);
  const kernels::KernelRegistry registry = kernels::standard_registry();
  const WorkloadSpec& workload = options.workload;

  std::vector<kernels::KernelPtr> chain;
  chain.reserve(kernel_chain.size());
  for (std::size_t i = 0; i < kernel_chain.size(); ++i) {
    chain.push_back(registry.create(kernel_chain[i]));
    // A reduction has no raster output to feed a successor.
    DAS_REQUIRE(!chain.back()->is_reduction() ||
                i + 1 == kernel_chain.size());
  }

  pfs::FileMeta meta = workload.make_meta("input");
  const auto offsets0 = chain.front()->features().resolve(meta.raster_width);

  std::optional<std::vector<std::byte>> data;
  if (workload.with_data) {
    data = grid::to_bytes(make_input(workload, *chain.front()));
  }
  const pfs::FileId input = cluster.pfs().create_file(
      meta, choose_input_layout(options, meta, offsets0),
      data ? &*data : nullptr);

  // Shared pipeline state driven by completion callbacks.
  struct Stage {
    RunReport report;
    pfs::FileId output = pfs::kInvalidFile;
    sim::SimTime finish = -1;
    TrafficSnapshot before;
    CacheSnapshot cache_before;
  };
  auto stages = std::make_shared<std::vector<Stage>>(kernel_chain.size());
  for (std::size_t i = 0; i < kernel_chain.size(); ++i) {
    (*stages)[i].report = make_base_report(options, kernel_chain[i]);
  }

  auto asc = std::make_unique<ActiveStorageClient>(cluster, registry,
                                                   options.distribution);
  auto ts_execs = std::make_shared<std::vector<std::unique_ptr<TsExecutor>>>();
  auto active_execs =
      std::make_shared<std::vector<std::unique_ptr<ActiveExecutor>>>();

  // Recursive stage launcher. Callbacks hold a raw pointer: the function
  // object outlives the simulation run because `launch` stays in scope.
  auto launch = std::make_shared<std::function<void(std::size_t, pfs::FileId)>>();
  auto* launch_raw = launch.get();
  *launch = [&, stages, ts_execs, active_execs, launch_raw](std::size_t i,
                                                            pfs::FileId in) {
    Stage& stage = (*stages)[i];
    stage.before = TrafficSnapshot::take(cluster.network());
    stage.cache_before = CacheSnapshot::take(cluster);
    const kernels::ProcessingKernel& kernel = *chain[i];
    const pfs::FileMeta in_meta = cluster.pfs().meta(in);
    const auto offs = kernel.features().resolve(in_meta.raster_width);
    const std::uint64_t halo = required_halo_strips(
        offs, in_meta.element_size, in_meta.strip_size);

    auto stage_done = [&, stages, launch_raw, i]() {
      Stage& st = (*stages)[i];
      st.finish = cluster.simulator().now();
      fill_traffic(st.report, cluster.network(), st.before);
      // True per-stage deltas: the hub counters are cumulative, so without
      // the diff stage N's row would include hits earned by stages 1..N-1.
      fill_cache_stats(st.report, cluster, st.cache_before);
      st.report.exec_seconds =
          sim::to_seconds(st.finish) -
          (i == 0 ? sim::to_seconds(options.cluster.job_startup)
                  : sim::to_seconds((*stages)[i - 1].finish));
      if (i + 1 < stages->size()) (*launch_raw)(i + 1, st.output);
    };

    if (options.scheme == Scheme::kDAS) {
      ActiveRequest request;
      request.input = in;
      request.kernel_name = kernel.name();
      request.pipeline_length =
          static_cast<std::uint32_t>(stages->size() - i);
      request.repeat_count = options.repeat_count;
      request.data_mode = workload.with_data;
      const SubmissionResult r = asc->submit(request, stage_done);
      stage.output = r.output;
      stage.report.offloaded = r.offloaded;
      stage.report.redistributed = r.redistributed;
      stage.report.redistribution_bytes = r.redistribution_bytes;
      stage.report.decision_note = r.decision.rationale;
    } else {
      if (!kernel.is_reduction()) {
        pfs::FileMeta out_meta = in_meta;
        out_meta.name = in_meta.name + "." + kernel.name();
        stage.output = cluster.pfs().create_file(
            std::move(out_meta), cluster.pfs().layout(in).clone(), nullptr);
      }
      if (options.scheme == Scheme::kNAS) {
        ActiveExecutor::Options opt{&kernel, halo, workload.with_data};
        run_repeated(
            options.repeat_count,
            [&cluster, active_execs, opt, in,
             out = stage.output](std::function<void()> pass_done) {
              active_execs->push_back(
                  std::make_unique<ActiveExecutor>(cluster, opt));
              active_execs->back()->start(in, out, std::move(pass_done));
            },
            stage_done);
        stage.report.offloaded = true;
      } else {
        TsExecutor::Options opt{&kernel, halo, workload.with_data};
        run_repeated(
            options.repeat_count,
            [&cluster, ts_execs, opt, in,
             out = stage.output](std::function<void()> pass_done) {
              ts_execs->push_back(
                  std::make_unique<TsExecutor>(cluster, opt));
              ts_execs->back()->start(in, out, std::move(pass_done));
            },
            stage_done);
      }
    }
  };

  cluster.simulator().schedule_at(
      options.cluster.job_startup,
      [launch, input]() { (*launch)(0, input); }, "pipeline.start");
  const auto wall_start = std::chrono::steady_clock::now();
  cluster.simulator().run();
  const auto wall_end = std::chrono::steady_clock::now();

  std::vector<RunReport> reports;
  RunReport combined = make_base_report(options, "pipeline");
  // Stage-wise verification chains the references from the retained input
  // copy: stage i is checked against kernel_i applied to the reference
  // output of stage i-1, and only while every stage so far was tile-exact
  // (a non-exact stage's output legitimately diverges from the reference
  // downstream, so the chain stops there).
  std::optional<grid::Grid<float>> reference;
  if (data) {
    reference = grid::from_bytes(*data, workload.width(), workload.height());
  }
  for (std::size_t i = 0; i < stages->size(); ++i) {
    Stage& stage = (*stages)[i];
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
  combined.exec_seconds = sim::to_seconds(stages->back().finish);
  combined.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  combined.sim_events = cluster.simulator().events_delivered();
  fill_cache_stats(combined, cluster);
  fill_latency_breakdown(combined, cluster);
  reports.push_back(combined);
  if (options.context != nullptr) {
    for (RunReport& r : reports) r.session_id = options.context->session;
  }
  return reports;
}

RunReport run_list_scheme(const ListRunOptions& options) {
  DAS_REQUIRE(options.access.active());
  const kernels::KernelRegistry registry = kernels::standard_registry();
  const kernels::KernelPtr kernel =
      registry.create(options.workload.kernel_name);
  const WorkloadSpec& workload = options.workload;

  pfs::FileMeta meta = workload.make_meta("input");
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

  if (options.scheme != Scheme::kTS) {
    // Offloaded service: active storage runs the full sweep the classic
    // runner already models; only the decision note changes.
    SchemeRunOptions classic;
    classic.scheme = options.scheme;
    classic.workload = options.workload;
    classic.cluster = options.cluster;
    classic.distribution = options.distribution;
    classic.context = options.context;
    RunReport report = run_scheme(classic);
    report.decision_note = decision.rationale;
    return report;
  }

  Cluster cluster(options.cluster, options.context);
  const pfs::RegionList regions =
      options.whole_strips ? expand_to_strips(meta, list_regions)
                           : list_regions;

  std::optional<std::vector<std::byte>> data;
  if (workload.with_data) {
    data = grid::to_bytes(make_input(workload, *kernel));
  }
  const pfs::FileId input = cluster.pfs().create_file(
      meta,
      std::make_unique<pfs::RoundRobinLayout>(options.cluster.storage_nodes),
      data ? &*data : nullptr);

  RunReport report;
  report.scheme = to_string(options.scheme);
  report.kernel = kernel->name();
  report.data_bytes = workload.data_bytes;
  report.storage_nodes = options.cluster.storage_nodes;
  report.compute_nodes = options.cluster.compute_nodes;
  report.data_mode = workload.with_data;
  report.decision_note = decision.rationale;

  const TrafficSnapshot before = TrafficSnapshot::take(cluster.network());

  telemetry::Plane* plane =
      options.context != nullptr ? options.context->telemetry : nullptr;
  if (plane != nullptr) {
    cluster.network().enroll(plane->registry());
    for (pfs::ServerIndex s = 0; s < cluster.pfs().num_servers(); ++s) {
      cluster.pfs().server(s).enroll(plane->registry());
    }
    for (std::uint32_t c = 0; c < options.cluster.compute_nodes; ++c) {
      cluster.client(c).enroll(plane->registry());
    }
    plane->start(cluster.simulator());
  }

  // Contiguous run partition: client c owns runs [c*R/C, (c+1)*R/C), so
  // each client issues exactly one read_regions and the per-server batches
  // stay large (strided patterns land on few clients per server).
  struct ClientPart {
    pfs::RegionList part;
  };
  const std::uint32_t clients = options.cluster.compute_nodes;
  const std::size_t num_runs = regions.runs().size();
  std::vector<ClientPart> parts(clients);
  std::uint32_t active = 0;
  for (std::uint32_t c = 0; c < clients; ++c) {
    const std::size_t lo = c * num_runs / clients;
    const std::size_t hi = (c + 1) * num_runs / clients;
    if (hi > lo) {
      parts[c].part = regions.subset(lo, hi);
      ++active;
    }
  }
  DAS_REQUIRE(active > 0 && "sparse access selected no runs");

  sim::SimTime finish = -1;
  std::uint32_t remaining = active;
  for (std::uint32_t c = 0; c < clients; ++c) {
    if (parts[c].part.empty()) continue;
    cluster.simulator().schedule_at(
        options.cluster.job_startup,
        [&cluster, &parts, &finish, &remaining, c, cost_factor, input]() {
          cluster.client(c).read_regions(
              input, parts[c].part,
              [&cluster, &parts, &finish, &remaining, c, cost_factor]() {
                // The client computes over the rows it fetched (sampled
                // rows + halo); the sampled outputs are kept client-side,
                // so nothing is written back.
                sim::Simulator& sim = cluster.simulator();
                const sim::SimTime done =
                    cluster.engine(cluster.compute_node(c))
                        .execute(sim.now(), parts[c].part.total_bytes(),
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

  const auto wall_start = std::chrono::steady_clock::now();
  cluster.simulator().run();
  const auto wall_end = std::chrono::steady_clock::now();
  DAS_REQUIRE(finish >= 0 && "list run did not complete");
  if (plane != nullptr) plane->finish(cluster.simulator().now());

  report.exec_seconds = sim::to_seconds(finish);
  report.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  report.sim_events =
      cluster.simulator().events_delivered() -
      (plane != nullptr ? plane->sampler_ticks() : 0);
  if (options.context != nullptr) report.session_id = options.context->session;
  if (plane != nullptr) {
    report.spans_finished = plane->spans().spans_finished();
    for (std::size_t h = 0; h < telemetry::kNumHops; ++h) {
      report.span_hop_seconds[h] = sim::to_seconds(
          plane->spans().hop_total(static_cast<telemetry::Hop>(h)));
    }
  }
  fill_traffic(report, cluster.network(), before);
  fill_utilization(report, cluster, finish);
  fill_cache_stats(report, cluster);
  fill_latency_breakdown(report, cluster);
  return report;
}

}  // namespace das::core
