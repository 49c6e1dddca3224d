/**
 * @file
 * The repo benchmark's workloads and the pieces they share.
 *
 * A workload prepares every program once per set-up repetition, then
 * runs fixed units of work (one unit = every cell of the workload once)
 * until the run's time is up. The library is driven only through its
 * public calls; the benchmark fixes no snapshot stride, engine or
 * dispatcher of its own except in reference mode, which records the
 * output digests on the decoded engine with snapshots off.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "encore/analysis_base.h"
#include "fault/injector.h"
#include "trace.h"
#include "workloads/workload.h"

namespace perfbench {

/// Output digests are recorded for, and checked at, this seed only.
constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    /// Recorded digests to check against at the default seed.
    std::string digests;
    /// Reference mode: run one unit on the decoded engine with
    /// snapshots off and write its digests here.
    std::string record;
    /// Scratch directory for trial stores and sidecars.
    std::string workdir = ".";
};

/// Metric name -> (value, unit), printed in insertion order.
class Metrics
{
  public:
    void set(const std::string &name, double value, const std::string &unit);
    std::string json() const;
    const std::vector<std::pair<std::string, std::pair<double, std::string>>> &
    entries() const
    {
        return entries_;
    }

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        entries_;
};

/// Per-layer set-up cost, summed over the programs prepared.
struct SetupCost
{
    double build_s = 0.0;
    encore::AnalysisPhaseTimings phases;
    double decode_s = 0.0;
    double golden_s = 0.0;
    std::uint64_t golden_dyn_instrs = 0;
    std::uint64_t regions_selected = 0;
    std::uint64_t snapshot_count = 0;
    std::uint64_t snapshot_bytes = 0;
    /// Engine and snapshot stride the injectors actually use.
    std::string engine;
    std::uint64_t snapshot_stride = 0;

    /// Field-wise median over repetitions.
    static SetupCost median(const std::vector<SetupCost> &reps);
    /// The encore.* and interp.* per-layer metrics.
    void report(Metrics &metrics) const;
};

/// One program taken through the pipeline, ready for trials.
struct Program
{
    const encore::workloads::Workload *workload = nullptr;
    std::unique_ptr<encore::ir::Module> module;
    encore::EncoreReport report;
    std::unique_ptr<encore::fault::FaultInjector> injector;
};

/// Workload::build, AnalysisBase + runConfig (profiled on the train
/// inputs), the FaultInjector constructor (decode + fusion) and
/// prepare (golden run + snapshots) on `eval_args`. `reference`
/// selects the decoded engine with snapshots off. Returns nullopt when
/// the golden run fails.
std::optional<Program>
prepareProgram(const encore::workloads::Workload &w,
               encore::EncoreConfig config,
               const std::vector<std::uint64_t> &eval_args, bool reference,
               SetupCost &cost, Tracer &tracer);

/// 64-bit FNV-1a hash of `text`.
std::uint64_t fnv1a(const std::string &text);

/// Hex FNV-1a digest of a cell's outcome tallies and replay cost.
std::string tallyDigest(const encore::fault::CampaignResult &result);

/**
 * The benchmark's output checks. Every check is one attempted
 * operation; a failed one counts against failed_frac and makes the
 * run exit non-zero.
 */
class Checks
{
  public:
    /// `params` names everything the digests depend on besides the
    /// seed (trial counts); a digest file recorded under other params
    /// fails every cell.
    Checks(const Options &options, const std::string &params);

    /// A library operation that must succeed (golden run, resume,
    /// merge).
    void op(bool ok, const std::string &what);

    /// One cell's tallies: counts must sum to `universe`, the digest
    /// must equal the one recorded at the default seed, and every unit
    /// must reproduce the first unit's digest.
    void cell(const std::string &key,
              const encore::fault::CampaignResult &result,
              std::uint64_t universe);

    /// Writes the first unit's digests (reference mode).
    bool writeDigests(const std::string &path) const;

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    void fail(const std::string &message);

    std::string params_;
    bool check_recorded_ = false;
    std::map<std::string, std::string> recorded_;
    std::map<std::string, std::string> first_;
    std::vector<std::string> order_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    int messages_ = 0;
};

/// What one timed unit accounted for.
struct Unit
{
    std::uint64_t trials = 0; ///< Trials accounted (reused, masked too).
    /// Wall time of each (config point x program) cell, in cell order.
    std::vector<double> cell_s;

    /// Accounts one finished cell that started at `start`.
    void
    add(std::uint64_t cell_trials, Clock::time_point start)
    {
        cell_s.push_back(secondsSince(start));
        trials += cell_trials;
    }
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;
    /// Worker threads the workload's campaigns use.
    virtual std::size_t jobs() const = 0;
    /// Digest parameters (see Checks).
    virtual std::string params() const = 0;
    /// Prepares every program; the last repetition's programs are the
    /// ones the timed units use.
    virtual void setup(SetupCost &cost, Checks &checks) = 0;
    /// One timed unit. Spans go to `tracer` (disabled in untraced
    /// units).
    virtual Unit run(Tracer &tracer, Checks &checks) = 0;
    /// Per-layer metrics gathered over the traced units. `setup` is
    /// the median set-up cost.
    virtual void layerMetrics(const Tracer &tracer, const SetupCost &setup,
                              std::size_t traced_units,
                              Metrics &metrics) = 0;
};

std::unique_ptr<BenchWorkload> makeCampaign(const Options &options);
std::unique_ptr<BenchWorkload> makeDurable(const Options &options);
std::unique_ptr<BenchWorkload> makeSweep(const Options &options);

/// Per-cell campaign seed derived from the workload seed.
std::uint64_t cellSeed(std::uint64_t seed, std::uint64_t cell);

/// Sum of `values` whose key starts with `prefix`.
double sumByPrefix(const std::map<std::string, double> &values,
                   const std::string &prefix);

/// Adds `result`'s tallies to `total`.
void accumulate(encore::fault::CampaignResult &total,
                const encore::fault::CampaignResult &result);

/// The fault.* outcome metrics for a per-unit aggregate.
void reportOutcomes(const encore::fault::CampaignResult &result,
                    Metrics &metrics);

/// Snapshot hit/miss/resync counters summed over `programs`.
encore::interp::SnapshotStats
snapshotTotals(const std::vector<Program> &programs);

/// interp.snapshot_hit_rate and interp.snapshot_resyncs for the
/// trials between two snapshotTotals() readings.
void reportSnapshotUse(const encore::interp::SnapshotStats &before,
                       const encore::interp::SnapshotStats &after,
                       Metrics &metrics);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
