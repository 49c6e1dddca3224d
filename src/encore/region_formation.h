/**
 * @file
 * Candidate region formation and merging (paper §3.3, §3.4.2).
 *
 * Level-0 intervals of the CFG seed the candidate set; the interval
 * hierarchy's derived levels propose progressively larger SEME regions.
 * For each derived interval the merge is adopted when the reliability
 * return justifies the extra checkpointing:
 *
 *   ΔCoverage = Coverage(r') / max(Coverage(r_i))        (Equation 5)
 *   ΔCost     = added overhead as a fraction of the function's
 *               dynamic instructions
 *   merge iff ΔCost <= 0, or ΔCoverage/ΔCost > η
 *
 * Merged candidates that the idempotence analysis cannot process
 * (Unknown) or cannot checkpoint are rejected, keeping their
 * constituents. The final region set always partitions the reachable
 * blocks of the function.
 */
#ifndef ENCORE_ENCORE_REGION_FORMATION_H
#define ENCORE_ENCORE_REGION_FORMATION_H

#include <functional>

#include "encore/cost_model.h"
#include "encore/idempotence.h"

namespace encore {

/// A formed region together with its analysis and cost artifacts.
struct CandidateRegion
{
    Region region;
    IdempotenceResult analysis;
    RegionCost cost;
    /// Interval-hierarchy level the region was adopted from.
    unsigned level = 0;
};

/// Fills candidate.analysis and candidate.cost for candidate.region
/// (header, blocks and func already set, blocks sorted). analyzeConfig
/// passes its AnalysisCache's memoized evaluation (see
/// encore/analysis_base.h).
using RegionEvaluation = std::function<void(CandidateRegion &)>;

struct FormationOptions
{
    /// Merge acceptance threshold; larger values resist merging.
    double eta = 100.0;
    /// Disable to keep level-0 intervals only (ablation).
    bool merge = true;
    /// Reject merges whose expected per-instance checkpoint storage
    /// exceeds this many bytes (guard against pathological merges).
    double max_storage_bytes = 16384.0;
    /// Reject merges whose hot-path length would exceed this many
    /// dynamic instructions per instance (Table 1's interval target).
    double max_hot_path = 1000.0;
};

/**
 * Forms the final disjoint region set for one function, evaluating
 * every candidate through `evaluate`. The interval hierarchy comes
 * from the function's shared context.
 */
std::vector<CandidateRegion> formRegions(const ir::Function &func,
                                         const FunctionContext &ctx,
                                         const interp::ProfileData &profile,
                                         const RegionEvaluation &evaluate,
                                         const FormationOptions &options);

} // namespace encore

#endif // ENCORE_ENCORE_REGION_FORMATION_H
