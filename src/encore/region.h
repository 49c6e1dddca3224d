/**
 * @file
 * SEME recovery regions and their classification.
 *
 * A region is a single-entry multiple-exit subgraph whose header
 * dominates every member block (§2.1). Encore's candidate regions come
 * from interval partitioning, which guarantees this property; the
 * struct here just carries the flattened membership plus bookkeeping
 * shared by the analysis, cost model and instrumenter.
 */
#ifndef ENCORE_ENCORE_REGION_H
#define ENCORE_ENCORE_REGION_H

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/memloc.h"
#include "ir/function.h"

namespace encore {

/// How the idempotence analysis classified a region (Figure 5).
enum class RegionClass
{
    Idempotent,    ///< No WAR hazard on any (live) path; free recovery.
    NonIdempotent, ///< Recoverable after selective checkpointing.
    Unknown,       ///< Analysis could not process the region (opaque
                   ///< calls, irreducible cycles, unbounded callee
                   ///< side effects).
};

std::string regionClassName(RegionClass cls);

struct Region
{
    const ir::Function *func = nullptr;
    ir::BlockId header = 0;
    /// Sorted member block ids; includes the header.
    std::vector<ir::BlockId> blocks;

    bool
    contains(ir::BlockId block) const
    {
        return std::binary_search(blocks.begin(), blocks.end(), block);
    }

    /// Blocks with an edge leaving the region or with no successors.
    std::vector<ir::BlockId> exitingBlocks() const;
};

/**
 * Result of the idempotence analysis over one region: classification,
 * the checkpoint plan (the CP set of §3.2), and diagnostics.
 */
struct IdempotenceResult
{
    RegionClass cls = RegionClass::Unknown;
    std::string unknown_reason;

    /// Stores that require a ckpt.mem immediately before them.
    std::vector<const ir::Instruction *> checkpoint_stores;

    /// Calls whose summarized side effects violate idempotence: each
    /// exact mod location is checkpointed just before the call.
    struct CallCheckpoint
    {
        const ir::Instruction *call;
        std::vector<analysis::MemLoc> mods;
    };
    std::vector<CallCheckpoint> checkpoint_calls;

    /// False when some offender cannot be checkpointed statically
    /// (e.g. a callee store to a statically unresolvable address); the
    /// region then cannot be instrumented and loses coverage.
    bool checkpointable = true;

    /// Diagnostic WAR pairs (exposed access origin, violating store).
    struct Violation
    {
        const ir::Instruction *exposed;
        const ir::Instruction *store;
    };
    std::vector<Violation> violations;

    bool
    isIdempotent() const
    {
        return cls == RegionClass::Idempotent;
    }

    /// Number of checkpoint instructions the plan would insert.
    std::size_t
    staticCheckpointCount() const
    {
        std::size_t count = checkpoint_stores.size();
        for (const auto &call : checkpoint_calls)
            count += call.mods.size();
        return count;
    }
};

} // namespace encore

#endif // ENCORE_ENCORE_REGION_H
