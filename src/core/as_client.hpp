// Active Storage Client — the public entry point applications use
// (paper Fig. 2: "Applications interact with ... the Active Storage Client
// [which] responds to active storage I/O requests").
//
// submit() runs the full Fig. 3 workflow: look up the operator's Kernel
// Features, predict the bandwidth cost under the file's current layout,
// optionally re-lay-out the file (charging the redistribution traffic), and
// then either offload the kernel to the storage servers or serve the request
// as normal I/O on the compute nodes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/active_executor.hpp"
#include "core/cluster.hpp"
#include "core/decision.hpp"
#include "core/ts_executor.hpp"
#include "kernels/catalog.hpp"
#include "kernels/registry.hpp"
#include "simkit/assert.hpp"

namespace das::core {

/// Run `repeats` back-to-back passes of one operation over `input`, each on
/// a fresh executor appended to `executors` (executors hold per-start
/// state, so instances cannot be restarted; `executors` must outlive the
/// simulation). `after_pass` sees each executor as its pass completes;
/// `on_done` fires after the last pass.
template <typename Executor>
void run_passes(Cluster& cluster, const typename Executor::Options& options,
                pfs::FileId input, pfs::FileId output, std::uint32_t repeats,
                std::vector<std::unique_ptr<Executor>>& executors,
                std::function<void()> on_done,
                std::type_identity_t<std::function<void(const Executor&)>>
                    after_pass = nullptr) {
  DAS_REQUIRE(repeats >= 1);
  executors.push_back(std::make_unique<Executor>(cluster, options));
  Executor& exec = *executors.back();
  exec.start(input, output, [&cluster, &exec, &executors, options, input,
                             output, repeats, on_done = std::move(on_done),
                             after_pass = std::move(after_pass)]() {
    if (after_pass) after_pass(exec);
    if (repeats > 1) {
      run_passes(cluster, options, input, output, repeats - 1, executors,
                 on_done, after_pass);
    } else if (on_done) {
      on_done();
    }
  });
}

struct ActiveRequest {
  pfs::FileId input = pfs::kInvalidFile;
  std::string kernel_name;
  /// Output size; 0 means "same as input" (true for all Table-I kernels).
  std::uint64_t output_bytes = 0;
  /// Successive operations expected to reuse the dependence pattern
  /// (paper: flow-routing is always followed by flow-accumulation).
  std::uint32_t pipeline_length = 1;
  /// How many times the whole request is re-run over the same input
  /// (recurring analyses of a hot dataset). Repeats past the first can be
  /// served from the servers' strip caches when those are enabled.
  std::uint32_t repeat_count = 1;
  /// Permit the engine to re-lay-out the file before offloading.
  bool allow_redistribution = true;
  /// Carry real bytes end to end (correctness mode).
  bool data_mode = false;
};

struct SubmissionResult {
  Decision decision;
  pfs::FileId output = pfs::kInvalidFile;
  bool offloaded = false;
  bool redistributed = false;
  std::uint64_t redistribution_bytes = 0;
};

class ActiveStorageClient {
 public:
  ActiveStorageClient(Cluster& cluster,
                      const kernels::KernelRegistry& registry,
                      const DistributionConfig& distribution);

  /// Serve one request. Creates the output file (named
  /// "<input-name>.<kernel>"), decides, optionally redistributes, and runs
  /// the appropriate executor. `on_done` fires at completion.
  SubmissionResult submit(const ActiveRequest& request,
                          std::function<void()> on_done);

  /// The active executor of the latest pass of the most recent submission
  /// (for halo fetch statistics); nullptr if that request was served as
  /// normal.
  [[nodiscard]] const ActiveExecutor* last_active_executor() const {
    return last_offloaded_ ? active_executors_.back().get() : nullptr;
  }

  /// Halo-acquisition counters summed over every offloaded pass this client
  /// has run (all passes of all submissions) — the observed side of the
  /// decision audit.
  [[nodiscard]] HaloFetchTotals halo_totals() const;

  [[nodiscard]] const DecisionEngine& engine() const { return engine_; }

  /// Install a Kernel Features catalog (paper §III-B). Records in the
  /// catalog override the kernels' built-in dependence patterns; the
  /// catalog must outlive this client. Pass nullptr to remove.
  void set_features_catalog(const kernels::FeaturesCatalog* catalog) {
    catalog_ = catalog;
  }

 private:
  Cluster& cluster_;
  const kernels::KernelRegistry& registry_;
  DecisionEngine engine_;
  const kernels::FeaturesCatalog* catalog_ = nullptr;
  // Keep executors and kernels alive for the duration of the simulation.
  std::vector<std::unique_ptr<ActiveExecutor>> active_executors_;
  std::vector<std::unique_ptr<TsExecutor>> ts_executors_;
  std::vector<kernels::KernelPtr> kernels_;
  bool last_offloaded_ = false;
};

}  // namespace das::core
