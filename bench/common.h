/**
 * @file
 * Shared scaffolding for the per-figure benchmark binaries: standard
 * command-line flags, a helper that runs the full Encore pipeline on a
 * workload, and the per-suite figure table.
 */
#ifndef ENCORE_BENCH_COMMON_H
#define ENCORE_BENCH_COMMON_H

#include <chrono>
#include <cstdint>
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
};

/// Builds + profiles + analyzes + instruments one workload under the
/// given configuration (opaque functions are merged in from the
/// workload's own list).
PreparedWorkload prepareWorkload(const workloads::Workload &workload,
                                 EncoreConfig config);

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

/// Runs the expensive `produce` for every workload on `jobs` threads,
/// then runs `consume(workload, result)` sequentially in suite order,
/// so table rows and aggregates stay deterministic while the pipeline
/// work (build + profile + analyze + instrument) is spread across
/// cores.
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

/// A CommandLine with --jobs registered, the flag every bench that
/// prepares workloads in parallel shares (callers may add more before
/// parse).
CommandLine jobsFlags();

/// jobsFlags() plus --seed and --trials, for the benches that run
/// fault-injection campaigns.
CommandLine campaignFlags(const std::string &trials_default);

/// Resolved --jobs value: 0 (the default) means hardware concurrency;
/// a negative value or one above 256 is fatal.
std::size_t jobsFlag(const CommandLine &cli);

/// Registers the standard --json flag with the given default path
/// ("" disables the report).
void addJsonFlag(CommandLine &cli, const std::string &default_path);

/// Registers --snapshot-stride, with the library's
/// interp::SnapshotConfig default as its own.
void addSnapshotStrideFlag(CommandLine &cli);

/// The snapshot tier --snapshot-stride asks for: that stride, or the
/// tier off when it is 0.
interp::SnapshotConfig snapshotStrideFlag(const CommandLine &cli);

/// The --`name` value as comma-separated positive integers, in list
/// order. Exits 1 with "--<name> expects comma-separated positive
/// integers, got '<entry>'" on any other entry.
std::vector<std::uint64_t> positiveIntsFlag(const CommandLine &cli,
                                            const std::string &name);

/// The workloads the comma-separated --workloads flag names, in list
/// order (empty entries skipped; an empty list is the whole suite),
/// each looked up with workloads::workloadNamed.
std::vector<const workloads::Workload *>
workloadsFlag(const CommandLine &cli);

/// Registers --fault-model (default reg-bit) and --detector (default
/// analytic), the injection-scenario axis shared by every binary that
/// runs fault-injection campaigns.
void addScenarioFlags(CommandLine &cli);

/// One fault-model x detector pair: two rows of the fault/models
/// tables.
struct Scenario
{
    const fault::models::FaultModel *model;
    const fault::models::Detector *detector;
};

/// The --fault-model and --detector values, each looked up by name in
/// its table; exits with the table's names on an unknown one.
Scenario scenarioFlags(const CommandLine &cli);

/// The sweep form (table1): each flag is a comma-separated list
/// ("reg-bit,cf-branch"; "" is the whole table), and the result is
/// every model x detector pair, model-major. Exits with the table's
/// names on an unknown entry.
std::vector<Scenario> scenarioListFlags(const CommandLine &cli);

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

/// Wall-clock seconds elapsed since `start`.
double secondsSince(std::chrono::steady_clock::time_point start);

/**
 * The per-workload layout of Figs. 5, 6, 7a, 7b and 8: one row per
 * workload, with a separator where the suite changes; then a
 * separator, one "Mean <suite>" row for each suite of
 * workloads::suiteNames() that has rows, and "Mean ALL". A workload
 * row holds the bench's numbers; a mean row's numbers are the column
 * sums over its rows, added in row order, and their count. One
 * renderer turns either into cells, so a workload row reads as its
 * own mean at count 1.
 */
class SuiteTable
{
  public:
    /// The value cells for column `sums` over `count` rows.
    using Renderer = std::function<std::vector<std::string>(
        const std::vector<double> &sums, std::size_t count)>;

    struct Row
    {
        const workloads::Workload *workload;
        std::vector<double> values;
        /// Cells after the rendered ones; mean rows leave them blank.
        std::vector<std::string> trailing;
    };

    /// Column sums over some rows, and how many rows.
    struct Sums
    {
        std::vector<double> values;
        std::size_t count = 0;
    };

    SuiteTable(std::vector<std::string> headers, Renderer render);

    /// Appends `workload`'s row; the table keeps a pointer to it, so
    /// it must outlive the table (the registry's workloads do).
    void add(const workloads::Workload &workload,
             std::vector<double> values,
             std::vector<std::string> trailing = {});

    const std::vector<Row> &rows() const { return rows_; }

    /// Sums over the rows of `suite`, or over every row when it is
    /// empty.
    Sums sums(const std::string &suite = "") const;

    /// The workload rows, separators and mean rows, ready to print.
    Table table() const;

    /// The "workloads" array that closes a figure's JSON report: one
    /// object per row, its name and suite first, then what `fields`
    /// writes from its values.
    void writeJson(std::ostream &out,
                   const std::function<void(std::ostream &,
                                            const std::vector<double> &)>
                       &fields) const;

  private:
    std::vector<std::string> headers_;
    Renderer render_;
    std::vector<Row> rows_;
};

/// SuiteTable renderer for means shown as percentages (fractions in,
/// one formatPercent cell per column).
std::vector<std::string> percentMeans(const std::vector<double> &sums,
                                      std::size_t count);

} // namespace encore::bench

#endif // ENCORE_BENCH_COMMON_H
