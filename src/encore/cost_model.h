/**
 * @file
 * Profile-driven cost/coverage model for region selection and merging
 * (paper §3.4.2).
 *
 * Coverage surrogate: the hot-path length through the region — here the
 * expected number of dynamic instructions executed per region entry,
 * derived from profiled block counts. Cost: the expected checkpointing
 * instructions per entry relative to that hot-path length. A region is
 * instrumented when Coverage/Cost > γ; adjacent regions are merged when
 * ΔCoverage/ΔCost > η with ΔCoverage from Equation 5.
 */
#ifndef ENCORE_ENCORE_COST_MODEL_H
#define ENCORE_ENCORE_COST_MODEL_H

#include "analysis/liveness.h"
#include "encore/region.h"
#include "interp/profile.h"

namespace encore {

/// Registers that must be checkpointed at region entry: live-in to the
/// header and overwritten somewhere inside the region (§3.2).
std::vector<ir::RegId> regionRegisterCheckpoints(
    const Region &region, const analysis::Liveness &liveness);

/// Dynamic entries into the region *from outside* — header executions
/// reached via an edge whose source is not a member block, plus
/// external entries (function entry). Loop back edges do not count: a
/// region instance spans all iterations of its loops.
double regionOutsideEntries(const interp::ProfileData &profile,
                            const Region &region);

struct RegionCost
{
    /// Dynamic region instances: entries from outside (profile).
    double entries = 0.0;
    /// Expected dynamic (non-pseudo) instructions per instance — the
    /// hot-path length n used for coverage and for Equation 7's α.
    double hot_path_length = 0.0;
    /// Expected instrumentation instructions per entry: the header's
    /// region.enter, register checkpoints, and memory checkpoints
    /// weighted by their blocks' execution frequency.
    double ckpt_per_entry = 0.0;
    /// Total added dynamic instructions over the profiled run.
    double overhead_instrs = 0.0;
    /// Total baseline dynamic instructions attributed to the region.
    double dyn_instrs = 0.0;
    /// Static counts for the storage model (Figure 7b).
    std::size_t static_mem_ckpts = 0;
    std::size_t static_reg_ckpts = 0;

    double
    coverage() const
    {
        return hot_path_length;
    }

    /// Checkpoint density along the hot path (the paper's cost
    /// estimate); 0-entry regions cost nothing at runtime.
    double
    cost() const
    {
        return hot_path_length > 0.0 ? ckpt_per_entry / hot_path_length
                                     : 0.0;
    }

    /// Expected *dynamic* checkpoint-log size per instance in bytes:
    /// memory undo records are 16 B (address + datum), register
    /// records 8 B. Grows with loop trip counts.
    double storage_bytes = 0.0;
    double storage_mem_bytes = 0.0;
    double storage_reg_bytes = 0.0;
    /// Static reserved-slot size (the paper's Figure 7b metric): one
    /// 16 B slot per checkpoint site plus 8 B per register.
    double static_storage_mem_bytes = 0.0;
    double static_storage_reg_bytes = 0.0;
};

class CostModel
{
  public:
    explicit CostModel(const interp::ProfileData &profile)
        : profile_(profile)
    {
    }

    /// Evaluates the cost of instrumenting `region` given its analysis
    /// result. `liveness` must belong to the region's function.
    RegionCost evaluate(const Region &region,
                        const IdempotenceResult &analysis,
                        const analysis::Liveness &liveness) const;

  private:
    const interp::ProfileData &profile_;
};

} // namespace encore

#endif // ENCORE_ENCORE_COST_MODEL_H
