/**
 * @file
 * Campaign planner: compositional reuse on top of the fault-injection
 * campaign machinery.
 *
 * The planner sits between the benches / CLI and the raw campaign
 * execution path. It draws every trial up front with fault::drawTrial
 * (no execution needed), attributes each fault site to the function
 * and region it strikes with one hooked golden-speed run, and
 * partitions the trial universe into *groups* whose outcomes are a
 * pure function of
 *
 *   (program semantics, fault-model parameters, the struck function's
 *    instrumentation closure)
 *
 * — see DESIGN.md §10 for the soundness argument. Each group's outcome
 * tally is keyed by a fingerprint over exactly those inputs and stored
 * in a CRC'd sidecar table (campaign/tally_store.h). A later sweep
 * point (different γ/η/budget) re-injects only the groups whose
 * fingerprint changed and folds the stored tallies of the rest into
 * its aggregate: bit-identical outcomes for re-injected trials, and a
 * tally-identical aggregate overall, at a fraction of the wall-clock.
 *
 * Every trial is also counted in one stratum: modelled-masked draws,
 * or the class of the struck code (idempotent / checkpointed /
 * unprotected). run() reports the coverage of each.
 */
#ifndef ENCORE_CAMPAIGN_PLANNER_H
#define ENCORE_CAMPAIGN_PLANNER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "campaign/tally_store.h"
#include "encore/pipeline.h"
#include "fault/injector.h"

namespace encore::campaign {

struct PlannerOptions
{
    /// Sidecar tally table for compositional reuse; empty disables
    /// reuse (every group executes). Created on first use.
    std::string sidecar_path;
    /// Caller-supplied identity of the *uninstrumented* program and
    /// its input (e.g. a hash of the workload name). Part of every
    /// group fingerprint; sweep points over the same workload share
    /// it, different workloads must not.
    std::uint64_t program_key = 0;
};

/// One reuse group: all trials striking the same function/region
/// under the same fingerprint regime. The unit of sidecar reuse.
struct GroupSummary
{
    std::string function;
    /// True when the group's faults strike inside a selected region
    /// (false: unprotected code of `function`).
    bool protected_region = false;
    /// Tail groups race detection against program end and never reuse
    /// across configs (see DESIGN.md §10).
    bool tail = false;
    std::uint64_t trials = 0;
    bool reused = false;
};

/// Per-stratum slice of a planned campaign. plan() fills only the
/// universe; run() accounts for every trial, so its estimate is exact.
struct StratumSummary
{
    std::string name;
    std::uint64_t universe = 0;  ///< Trials belonging to the stratum.
    std::uint64_t sampled = 0;   ///< Trials actually executed.
    std::uint64_t covered = 0;   ///< Covered outcomes in the stratum.
    double estimate = 0.0;       ///< covered / universe.
};

struct PlanSummary
{
    /// Outcome tallies, tally-identical to the brute-force campaign
    /// over all trials.
    fault::CampaignResult result;

    /// Exact coverage (every trial accounted for) with the 95% Wilson
    /// interval over the universe.
    double coverage = 0.0;
    double ci_half = 0.0;
    double low = 0.0;
    double high = 1.0;

    std::uint64_t universe = 0;       ///< config.trials.
    std::uint64_t masked_trials = 0;  ///< Modelled-masked draws.
    std::uint64_t executed = 0;       ///< Trials actually executed.
    std::uint64_t reused_trials = 0;  ///< Folded from the sidecar.
    std::size_t groups = 0;
    std::size_t groups_reused = 0;
    /// Torn/corrupt tail bytes the sidecar reader dropped (0 when
    /// reuse is off or the table was clean).
    std::uint64_t sidecar_dropped_bytes = 0;

    std::vector<StratumSummary> strata;
    /// First-encounter order over ascending trial index.
    std::vector<GroupSummary> group_details;
};

/// Canonical text rendering (deterministic formatting) — the byte
/// equality criterion of the planner determinism tests, and the
/// human-readable summary the CLI prints.
std::string formatPlanSummary(const PlanSummary &summary);

/**
 * Plans and executes campaigns for one prepared injector. `report`
 * must be the pipeline report for the same instrumented module (it
 * supplies region-id → class/structure attribution); both referents
 * must outlive the planner. The injector must be prepare()d.
 *
 * plan() — attribution + grouping + sidecar probe, no trial executes;
 *          fills the universe/group/strata counts and what reuse would
 *          save.
 * run()  — the full campaign: reused groups fold their stored tallies,
 *          the rest execute the draws plan() grouped (the trials
 *          attributed are the trials run); the aggregate is
 *          tally-identical to FaultInjector::runCampaign and
 *          re-executed trials are bit-identical to it.
 */
class CampaignPlanner
{
  public:
    CampaignPlanner(const fault::FaultInjector &injector,
                    const encore::EncoreReport &report,
                    const fault::CampaignConfig &config,
                    PlannerOptions options = {});
    ~CampaignPlanner();

    PlanSummary plan();
    PlanSummary run();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace encore::campaign

#endif // ENCORE_CAMPAIGN_PLANNER_H
