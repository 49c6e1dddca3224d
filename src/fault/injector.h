/**
 * @file
 * Statistical fault injection on the instrumented interpreter.
 *
 * The fault and detection scenario of each trial comes from the two
 * tables in fault/models/: the default pair reproduces the paper's
 * model (§4.2.1) — flip one random bit in the destination
 * value of one uniformly chosen value-producing dynamic instruction,
 * then fire a detection event after a uniformly distributed latency in
 * [0, Dmax] dynamic instructions. Alternative models inject multi-bit
 * flips, corrupted branch targets, or memory/address-bus faults, and
 * the replay detector checks at Dmax-wide window boundaries instead of
 * drawing a latency. Runtime symptoms (wild pointers, division by
 * zero) fire detection immediately under the analytical detector,
 * reflecting the fast symptom-based detection of ReStore/Shoestring
 * that the paper assumes for address and control faults (§4.3).
 *
 * Outcomes are judged by *execution*, not by the analytical model: a
 * trial only counts as recovered when the rollback actually ran and
 * the program finished with output identical to the golden run. A
 * detection landing in a different region instance than the fault is
 * Not Recoverable, matching the paper's criterion (s + l < n).
 *
 * A trial has one definition in three pieces: drawTrial draws its fault
 * parameters, FaultInjector::runTrial executes the draw, and runTrials
 * is the pooled loop that spreads trials across CampaignConfig::jobs
 * threads (support/thread_pool.h). runCampaign, the durable runner and
 * the planner all go through them. Trials are mutually independent —
 * each is a pure function of (module, golden run, trial seed) — so
 * counter-based per-trial seeding keeps campaign results bit-identical
 * at any thread count.
 *
 * Execution cost per trial is kept allocation-free in steady state:
 * the injector pre-decodes the instrumented module once (one immutable
 * DecodedModule shared read-only by every worker), each campaign
 * worker reuses a single Interpreter whose frames / undo logs / memory
 * storage are pooled across trials, and golden-output checking
 * compares global memory in place instead of snapshotting it.
 */
#ifndef ENCORE_FAULT_INJECTOR_H
#define ENCORE_FAULT_INJECTOR_H

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "encore/pipeline.h"
#include "fault/models/fault_model.h"
#include "interp/interpreter.h"

namespace encore::fault {

enum class FaultOutcome
{
    Masked,              ///< Hardware-masked (modelled) fault.
    RecoveredIdempotent, ///< Rolled back in an idempotent region.
    RecoveredCheckpoint, ///< Rolled back in a checkpointed region.
    NotRecoverable,      ///< Detected too late / outside protection.
    RecoveryFailed,      ///< Rollback ran but the output was wrong —
                         ///< the statistical (Pmin) risk materialized.
    Benign,              ///< Never detected, output still correct.
    SilentCorruption,    ///< Never detected, output wrong (program
                         ///< ended before the latency elapsed).
    NumOutcomes,
};

std::string_view outcomeName(FaultOutcome outcome);

/// A trial's run is cut off after this many times the golden run's
/// dynamic instructions, plus 10,000; runaway corrupted executions end
/// there and count as unrecoverable.
inline constexpr std::uint64_t kRunBudgetFactor = 4;

struct TrialConfig
{
    /// Maximum detection latency Dmax, in dynamic instructions (the
    /// replay detector uses it as its window width).
    std::uint64_t dmax = 100;
    /// Fault model and detector; the table defaults are reg-bit under
    /// the analytical Dmax detector (the pre-registry behaviour,
    /// byte-identical to it).
    const models::FaultModel *model = models::defaultFaultModel();
    const models::Detector *detector = models::defaultDetector();
};

/// The average hardware masking rate the paper measured by Monte Carlo
/// fault injection on a Verilog model of an ARM926 (§4, §5.4). That
/// per-gate experiment contributes one scalar to the coverage figures,
/// so here it is the rate of one Bernoulli draw per trial (DESIGN.md).
inline constexpr double kArm926MaskingRate = 0.91;

struct CampaignConfig
{
    std::uint64_t trials = 1000;
    std::uint64_t seed = 12345;
    /// Worker threads for the campaign: 1 = sequential, 0 = all
    /// hardware threads. Trials use counter-based per-trial seeding
    /// (Rng::forStream(seed, trial)), so the aggregated result is
    /// bit-identical for every value of `jobs`.
    std::size_t jobs = 1;
    TrialConfig trial;
    double masking_rate = kArm926MaskingRate;
    /// When true, masked trials are drawn but not executed (they
    /// contribute to the Masked bucket only), matching the paper's
    /// presentation of coverage over *all* injected faults.
    bool model_masking = true;
};

/// Validates a campaign configuration at campaign entry: trials > 0,
/// masking_rate in [0, 1], dmax > 0. Invalid
/// configurations exit through support/diagnostics fatal() with a
/// message naming the offending field, instead of silently producing
/// nonsense tables (e.g. a 0-trial campaign whose every fraction is 0).
void validateCampaignConfig(const CampaignConfig &config);

/// The fault parameters of one campaign trial. For a masked draw only
/// `masked` is meaningful.
struct TrialDraw
{
    bool masked = false;
    models::InjectionPlan plan;
    models::DetectionPlan detection;
};

/// Draws campaign trial `trial` from its own counter-derived stream
/// Rng::forStream(config.seed, trial): the masking coin at
/// config.masking_rate first (when config.model_masking), then the
/// fault model's injection plan, then
/// the detector's detection plan. The coin comes before the model
/// draws, so whether a trial index is masked does not depend on the
/// model. `golden_value_instrs` is the fault-site universe
/// (FaultInjector::golden().value_instrs). The only code that draws a
/// trial: campaigns, the durable runner and the planner all execute
/// what it returns.
TrialDraw drawTrial(const CampaignConfig &config, std::uint64_t trial,
                    std::uint64_t golden_value_instrs);

/// What one trial yields.
struct TrialResult
{
    FaultOutcome outcome = FaultOutcome::Masked;
    /// Replayed dynamic instructions under the replay detector,
    /// saturated to 32 bits; 0 otherwise. The durable trial store
    /// persists it next to the outcome so resumed and merged campaigns
    /// reproduce replay-cost aggregates exactly.
    std::uint32_t aux = 0;

    bool operator==(const TrialResult &) const = default;
};

struct CampaignResult
{
    std::uint64_t counts[static_cast<int>(FaultOutcome::NumOutcomes)] = {};
    std::uint64_t trials = 0;
    /// Total replayed dynamic instructions across all trials — the
    /// Dichev-style recovery-cost side of the replay detector. Always 0
    /// under the analytical detector.
    std::uint64_t replay_cost = 0;

    void
    add(const TrialResult &trial)
    {
        ++counts[static_cast<int>(trial.outcome)];
        ++trials;
        replay_cost += trial.aux;
    }

    void
    merge(const CampaignResult &other)
    {
        for (int i = 0; i < static_cast<int>(FaultOutcome::NumOutcomes);
             ++i)
            counts[i] += other.counts[i];
        trials += other.trials;
        replay_cost += other.replay_cost;
    }

    std::uint64_t
    count(FaultOutcome outcome) const
    {
        return counts[static_cast<int>(outcome)];
    }

    double
    fraction(FaultOutcome outcome) const
    {
        return trials ? static_cast<double>(count(outcome)) /
                            static_cast<double>(trials)
                      : 0.0;
    }

    /// Paper's headline metric: masked + recovered (benign completions
    /// count as tolerated as well).
    double
    coveredFraction() const
    {
        return fraction(FaultOutcome::Masked) +
               fraction(FaultOutcome::RecoveredIdempotent) +
               fraction(FaultOutcome::RecoveredCheckpoint) +
               fraction(FaultOutcome::Benign);
    }
};

/**
 * Everything a finished trial execution exposes to outcome
 * classification. Factoring the mapping out of runTrial keeps every
 * outcome leg unit-testable — including the ones that are unreachable
 * end-to-end under full determinism (e.g. the SilentCorruption leg of
 * the not-injected path, which requires a run that diverges from the
 * golden prefix *before* any fault was injected).
 */
struct TrialObservation
{
    interp::RunResult::Status status = interp::RunResult::Status::Ok;
    bool injected = false;
    /// Detection fired (by latency expiry or symptom).
    bool detected = false;
    /// Detection fired in the same region instance as the fault.
    bool same_instance = false;
    /// Return value and global memory match the golden run.
    bool same_output = false;
    /// Class of the region the fault struck.
    RegionClass region_class = RegionClass::NonIdempotent;
};

/// The trial outcome table (see runTrial for the execution that fills
/// a TrialObservation in). Pure; exercised directly by tests.
FaultOutcome classifyTrialOutcome(const TrialObservation &obs);

/**
 * Runs fault-injection campaigns against one instrumented module.
 */
class FaultInjector
{
  public:
    /// `report` supplies region-id → class attribution; the module must
    /// already be instrumented by the pipeline. The third parameter
    /// selects nothing: perfbench/src/common.cc's reference mode passes
    /// interp::EngineKind::Decoded, the only engine.
    FaultInjector(const ir::Module &module, const EncoreReport &report,
                  interp::EngineKind = interp::EngineKind::Decoded);

    /// Selects the snapshot tier configuration for the next prepare()
    /// (snapshots are rebuilt from scratch by every prepare). Call
    /// before prepare(); a config with enabled=false (or stride 0)
    /// turns the tier off and every trial re-executes from entry.
    void configureSnapshots(const interp::SnapshotConfig &config);

    const interp::SnapshotConfig &
    snapshotConfig() const
    {
        return snap_config_;
    }

    /// True when prepare() recorded at least one snapshot.
    bool
    snapshotsActive() const
    {
        return snapshots_ && snapshots_->size() > 0;
    }

    /// Store counters (count/bytes/stride/hit-rate); all-zero when the
    /// tier is disabled.
    interp::SnapshotStats snapshotStats() const;

    /// Executes the golden (fault-free) run; must be called before
    /// trials. When the snapshot tier is enabled, the same run also
    /// records the prefix SnapshotStore that trial execution seeks
    /// into. Returns false when the program itself fails.
    bool prepare(const std::string &entry,
                 const std::vector<std::uint64_t> &args);

    /// Executes one drawn trial on a caller-owned interpreter (which
    /// must have been constructed over decodedModule()); the one trial
    /// executor. A masked draw yields Masked without executing.
    /// Otherwise the fault strikes per draw.plan and detection fires
    /// per draw.detection (or at the first symptom). When the snapshot
    /// tier is active, execution starts from the nearest snapshot
    /// at-or-before the plan's anchor — bit-identical to a full run by
    /// construction. The trial installs its own hooks and clears them
    /// before returning, so one interpreter serves any number of
    /// trials and steady-state trials allocate nothing.
    TrialResult runTrial(const TrialDraw &draw,
                         interp::Interpreter &interp) const;

    /// Campaign trial `trial`: runTrial of drawTrial(config, trial,
    /// golden().value_instrs), with the result's aux in `aux`. The
    /// outcome is a pure function of (module, golden run, config.seed,
    /// trial), which is what makes a resumed or sharded campaign
    /// bit-identical to an uninterrupted single-process one.
    FaultOutcome runCampaignTrial(std::uint64_t trial,
                                  const CampaignConfig &config,
                                  interp::Interpreter &interp,
                                  std::uint32_t &aux) const;

    /// Runs a whole campaign (including modelled masking) through
    /// runTrials on `config.jobs` threads. Per-trial seeding makes the
    /// result bit-identical regardless of thread count or schedule.
    /// Fatal on an invalid config (see validateCampaignConfig).
    CampaignResult runCampaign(const CampaignConfig &config) const;

    const interp::RunResult &golden() const { return golden_; }

    /// Identity of the prepared campaign target, used by the durable
    /// trial store to fingerprint which (module, entry, args) a store
    /// belongs to. moduleHash() is a stable hash of the instrumented
    /// module's printed form, computed on the first call (printing the
    /// module costs more than decoding it, and most injectors never
    /// ask); thread-safe.
    std::uint64_t moduleHash() const;
    const std::string &entry() const { return entry_; }
    const std::vector<std::uint64_t> &args() const { return args_; }

    /// The instrumented module trials run against. The campaign
    /// planner walks it to build the call graph behind its
    /// per-function instrumentation-closure fingerprints.
    const ir::Module &module() const { return module_; }

    /// The immutable pre-decoded code cache shared by every trial.
    const std::shared_ptr<const interp::DecodedModule> &
    decodedModule() const
    {
        return decoded_;
    }

  private:
    RegionClass regionClassOf(ir::RegionId id) const;

    const ir::Module &module_;
    mutable std::once_flag module_hash_once_;
    mutable std::uint64_t module_hash_ = 0;
    /// Built once in the constructor (the module is already in its
    /// final instrumented form there) and never mutated afterwards.
    std::shared_ptr<const interp::DecodedModule> decoded_;
    /// Region-id → class lookup, flat-indexed by id: this sits on the
    /// per-trial hot path, so no tree walk.
    std::vector<RegionClass> region_class_;
    std::string entry_;
    std::vector<std::uint64_t> args_;
    interp::RunResult golden_;
    bool prepared_ = false;

    /// Snapshot tier: configured before prepare(), recorded during it,
    /// then shared read-only by every trial thread. shared_ptr so the
    /// store outlives re-prepares already-running readers might race
    /// (in practice prepare() happens once, before trials start).
    interp::SnapshotConfig snap_config_;
    std::shared_ptr<interp::SnapshotStore> snapshots_;
};

/// The pooled trial loop every campaign runs on: calls body(i, interp)
/// for each i in [0, n) across `jobs` threads (0 = all hardware
/// threads; never more threads than trials), giving each thread one
/// interpreter over injector.decodedModule() and one tally of the
/// bodies' results, and returns the merged tally. Sums do not depend on
/// order, so the result is identical at any `jobs`. `body` runs
/// concurrently on different threads; anything it writes besides its
/// return value must be thread-safe.
CampaignResult runTrials(
    const FaultInjector &injector, std::size_t jobs, std::uint64_t n,
    const std::function<TrialResult(std::uint64_t, interp::Interpreter &)>
        &body);

/// Mixes into `hash` every campaign-config input a trial outcome
/// depends on: entry, argument count, arguments, seed, trials, Dmax,
/// run budget factor (a constant), masking rate, masking on/off,
/// fault-model name and detector name. The trial-store fingerprint and the planner's
/// tally-group keys both hash this run of fields, so an input added
/// here reaches both. `jobs` is deliberately absent: it never changes
/// results.
std::uint64_t mixCampaignIdentity(std::uint64_t hash,
                                  const FaultInjector &injector,
                                  const CampaignConfig &config);

} // namespace encore::fault

#endif // ENCORE_FAULT_INJECTOR_H
