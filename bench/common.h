/**
 * @file
 * Shared scaffolding for the per-figure benchmark binaries: standard
 * command-line flags, a helper that runs the full Encore pipeline on a
 * workload, and suite-aggregation utilities.
 */
#ifndef ENCORE_BENCH_COMMON_H
#define ENCORE_BENCH_COMMON_H

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "encore/analysis_base.h"
#include "encore/pipeline.h"
#include "fault/models/fault_model.h"
#include "interp/decoded.h"
#include "interp/snapshot.h"
#include "support/cli.h"
#include "support/table.h"
#include "support/thread_pool.h"
#include "workloads/workload.h"

namespace encore::bench {

/// A workload taken through the whole pipeline.
struct PreparedWorkload
{
    const workloads::Workload *workload = nullptr;
    std::unique_ptr<ir::Module> module; ///< Instrumented in place.
    EncoreReport report;
    /// Regions as finalized by the pipeline (valid while pipeline
    /// lives).
    std::unique_ptr<EncorePipeline> pipeline;
};

/// Builds + profiles + analyzes + instruments one workload under the
/// given configuration (opaque functions are merged in from the
/// workload's own list).
PreparedWorkload prepareWorkload(const workloads::Workload &workload,
                                 EncoreConfig config);

/// Prepares every workload under `config` with `jobs`-way parallelism
/// (0 = hardware concurrency); results come back in suite order.
std::vector<PreparedWorkload> prepareSuite(const EncoreConfig &config,
                                           std::size_t jobs);

/**
 * One workload's shared analysis state for configuration sweeps: the
 * module is built and profiled once, and per-region dataflow results
 * are memoized across config points (see encore/analysis_base.h).
 * analyze() never instruments the module, so any number of configs
 * can be evaluated against one session; reports are bit-identical to
 * prepareWorkload's at the same config.
 */
class WorkloadSession
{
  public:
    explicit WorkloadSession(const workloads::Workload &workload);
    ~WorkloadSession();

    /// Report for one config point (the workload's opaque-function
    /// list is merged into `config`, as prepareWorkload does).
    EncoreReport analyze(EncoreConfig config,
                         AnalysisPhaseTimings *timings = nullptr);

    const workloads::Workload &workload() const { return *workload_; }

  private:
    const workloads::Workload *workload_;
    std::unique_ptr<ir::Module> module_;
    std::unique_ptr<AnalysisBase> base_;
    std::unique_ptr<AnalysisCache> cache_;
};

/// Runs `fn` for every workload in suite order.
void forEachWorkload(
    const std::function<void(const workloads::Workload &)> &fn);

/// Parallel counterpart of forEachWorkload for the benches: runs the
/// expensive `produce` for every workload on `jobs` threads, then runs
/// `consume(workload, result)` sequentially in suite order, so table
/// rows and aggregates stay deterministic while the pipeline work
/// (build + profile + analyze + instrument) is spread across cores.
template <typename Produce, typename Consume>
void
mapWorkloads(std::size_t jobs, Produce produce, Consume consume)
{
    using T = std::invoke_result_t<Produce, const workloads::Workload &>;
    const std::vector<workloads::Workload> &suite =
        workloads::allWorkloads();
    std::vector<std::optional<T>> results(suite.size());
    ThreadPool(jobs).parallelFor(suite.size(),
                                 [&](std::uint64_t i, std::size_t) {
                                     results[i].emplace(produce(suite[i]));
                                 });
    for (std::size_t i = 0; i < suite.size(); ++i)
        consume(suite[i], *results[i]);
}

/// Standard flags most benches share. Returns a CommandLine with
/// --seed, --trials and --jobs registered (callers may add more before
/// parse).
CommandLine standardFlags(const std::string &trials_default);

/// Resolved --jobs value: 0 (the default) means hardware concurrency;
/// a negative value is fatal.
std::size_t jobsFlag(const CommandLine &cli);

/// Registers the standard --json flag with the given default path
/// ("" disables the report).
void addJsonFlag(CommandLine &cli, const std::string &default_path);

/// Registers --engine=decoded|fused (default fused), the interpreter
/// tier selector shared by every binary that executes workloads.
void addEngineFlag(CommandLine &cli);

/// Resolved --engine value; exits with an actionable message on
/// anything parseEngineKind rejects.
interp::EngineKind engineFlag(const CommandLine &cli);

/// Registers --snapshot-stride, with the library's
/// interp::SnapshotConfig default as its own.
void addSnapshotStrideFlag(CommandLine &cli);

/// Registers --fault-model (default reg-bit) / --detector (default
/// analytic), the injection-scenario axis shared by every binary that
/// runs fault-injection campaigns.
void addFaultModelFlag(CommandLine &cli);
void addDetectorFlag(CommandLine &cli);

/// Resolved --fault-model / --detector values; exit with the list of
/// registered names on an unknown one.
const fault::models::FaultModel &faultModelFlag(const CommandLine &cli);
const fault::models::Detector &detectorFlag(const CommandLine &cli);

/// Parses a comma-separated scenario list ("reg-bit,cf-branch"); an
/// empty string means every registered name. Exits with the registered
/// list on an unknown entry. Used by the sweep benches (table1).
std::vector<const fault::models::FaultModel *>
faultModelListFlag(const CommandLine &cli);
std::vector<const fault::models::Detector *>
detectorListFlag(const CommandLine &cli);

/**
 * Writes the machine-readable report to `path`: an opening brace and
 * a "build" provenance object (git hash, compiler, build type,
 * computed-goto state — support/build_info.h) are emitted first, then
 * `body(out)` supplies the remaining top-level fields and the closing
 * brace. A no-op returning true when `path` is empty. On failure
 * prints the standard actionable message to stderr and returns false
 * (callers exit non-zero); on success prints "Wrote <path>.".
 */
bool writeJsonReport(const std::string &path,
                     const std::function<void(std::ostream &)> &body);

/// Prints the standard header naming the figure being reproduced.
void printHeader(const std::string &figure, const std::string &summary);

} // namespace encore::bench

#endif // ENCORE_BENCH_COMMON_H
