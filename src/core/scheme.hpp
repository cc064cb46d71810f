// Scheme runners: one call reproduces one bar/point of the paper's
// evaluation (TS / NAS / DAS on one kernel, one data size, one cluster
// size), returning the RunReport the benches aggregate into tables.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/list_access.hpp"
#include "core/metrics.hpp"
#include "core/migration_planner.hpp"
#include "core/workload.hpp"
#include "simkit/context.hpp"

namespace das::core {

enum class Scheme { kTS, kNAS, kDAS };

[[nodiscard]] constexpr const char* to_string(Scheme s) {
  switch (s) {
    case Scheme::kTS: return "TS";
    case Scheme::kNAS: return "NAS";
    case Scheme::kDAS: return "DAS";
  }
  return "?";
}

struct SchemeRunOptions {
  Scheme scheme = Scheme::kDAS;
  WorkloadSpec workload;
  ClusterConfig cluster;
  DistributionConfig distribution;
  /// DAS: the file is already stored in the planned distribution (the
  /// paper's evaluation setting). Set false to charge the runtime
  /// redistribution (ablation A4).
  bool pre_distributed = true;
  /// Successive operations sharing the dependence pattern (decision input).
  std::uint32_t pipeline_length = 1;
  /// How many times the whole operation re-runs over the same input within
  /// one simulation (recurring analyses of a hot dataset). Repeats past the
  /// first can hit the servers' strip caches when those are enabled.
  std::uint32_t repeat_count = 1;
  /// Online layout migration (NAS repeated passes): watch per-pass halo
  /// traffic and re-stripe the input in the background when the layout is
  /// demonstrably wrong for the observed pattern. Disabled by default —
  /// every byte flow then reproduces the migration-free system exactly.
  MigrationConfig migration;
  /// Run context (logger/tracer/rng) for this run; null gives the cluster's
  /// simulator its private default. Parallel sweeps give every run its own
  /// context so concurrent simulations never share mutable state.
  sim::RunContext* context = nullptr;
};

/// Run one scheme on one workload and report the result.
[[nodiscard]] RunReport run_scheme(const SchemeRunOptions& options);

/// One sparse-access run through the list-I/O request plane.
struct ListRunOptions {
  /// kTS serves the access as list I/O: each client issues one
  /// read_regions over its contiguous share of the runs and computes over
  /// the fetched rows. kNAS delegates to run_scheme (active storage
  /// computes every output — it cannot subset the sweep); kDAS does
  /// whichever of the two the list-aware decision picks. The pricing is
  /// recorded in the decision note either way. A sparse
  /// run is one pass of one operation on the scheme's default layout: there
  /// is no repeat count, pipeline length, pre-distribution switch or
  /// migration here, and das_sim rejects those flags under --access.
  Scheme scheme = Scheme::kTS;
  WorkloadSpec workload;
  AccessSpec access;
  ClusterConfig cluster;
  DistributionConfig distribution;
  /// Expand every run to its enclosing whole strips before issuing — the
  /// pre-list-I/O behavior, kept as the A/B baseline bench_listio
  /// measures the bytes-moved reduction against.
  bool whole_strips = false;
  sim::RunContext* context = nullptr;
};

/// Run one sparse access (see ListRunOptions). The report's
/// client_server_bytes is the bytes-moved metric of EXPERIMENTS.md: runs +
/// list headers only, never the enclosing strips (unless whole_strips).
[[nodiscard]] RunReport run_list_scheme(const ListRunOptions& options);

/// Run a chain of kernels (e.g. flow-routing then flow-accumulation), each
/// consuming the previous operator's output, within ONE simulation —
/// the successive-operation scenario of the paper's introduction. Returns
/// one report per stage plus a combined report (last element).
[[nodiscard]] std::vector<RunReport> run_pipeline(
    const SchemeRunOptions& options,
    const std::vector<std::string>& kernel_chain);

}  // namespace das::core
