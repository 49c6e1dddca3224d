/**
 * @file
 * Alias analyses.
 *
 * The paper evaluates Encore under two alias regimes (Figure 7a):
 *
 *  - "Static Alias Analysis": what a conservative compile-time analysis
 *    can prove. Implemented here as a flow-insensitive points-to over
 *    `lea` provenance — a register holding a pointer is traced back to
 *    the objects it can address; anything that escapes the tracking
 *    (loaded pointers, call results, un-annotated parameters) aliases
 *    all of memory.
 *
 *  - "Optimistic Alias Analysis": a lower bound assuming a future
 *    (potentially dynamic) framework can disambiguate everything the
 *    profile run observed. Implemented as a profile-guided oracle that
 *    compares the concrete address sets recorded per static memory
 *    instruction and falls back to the static answer when a profile is
 *    missing or overflowed.
 */
#ifndef ENCORE_ANALYSIS_ALIAS_H
#define ENCORE_ANALYSIS_ALIAS_H

#include <set>
#include <unordered_map>

#include "analysis/memloc.h"

namespace encore::analysis {

class AliasAnalysis
{
  public:
    virtual ~AliasAnalysis() = default;

    /// Abstract location of a memory-accessing instruction's address
    /// expression within `func`.
    virtual MemLoc classify(const ir::Function &func,
                            const ir::Instruction &inst) const = 0;

    /// Pairwise refinement hooks; the defaults use only the abstract
    /// locations.
    virtual bool mayAlias(const LocEntry &a, const LocEntry &b) const;
    virtual bool mustAlias(const LocEntry &a, const LocEntry &b) const;

    /// True when mayAlias/mustAlias consult the origin instructions and
    /// not just the abstract locations. Lets memoization layers pick
    /// the smallest sound cache key (location pair vs entry pair).
    virtual bool
    originSensitive() const
    {
        return false;
    }
};

/**
 * Flow-insensitive, conservative points-to for register bases.
 */
class StaticAliasAnalysis : public AliasAnalysis
{
  public:
    explicit StaticAliasAnalysis(const ir::Module &module);

    MemLoc classify(const ir::Function &func,
                    const ir::Instruction &inst) const override;

    /// Points-to result for a register: unknown flag + candidate
    /// objects. Exposed for tests.
    struct PointsTo
    {
        bool unknown = false;
        std::set<ir::ObjectId> objects;

        bool
        isEmpty() const
        {
            return !unknown && objects.empty();
        }
    };

    const PointsTo &pointsTo(const ir::Function &func, ir::RegId reg) const;

  private:
    void analyzeFunction(const ir::Function &func);

    const ir::Module &module_;
    std::unordered_map<const ir::Function *, std::vector<PointsTo>>
        points_to_;
    PointsTo empty_;
};

/**
 * Concrete addresses observed for one static memory instruction during
 * profiling. When more than `kMaxAddrs` distinct addresses are seen the
 * set degrades to object granularity (overflow), keeping profiles small
 * for streaming access patterns.
 */
struct AddrObservation
{
    static constexpr std::size_t kMaxAddrs = 64;

    bool overflow = false;
    std::set<std::pair<ir::ObjectId, std::uint32_t>> addrs;
    std::set<ir::ObjectId> objects;

    void record(ir::ObjectId object, std::uint32_t offset);
};

/// Per-instruction dynamic address profile, filled during a profiling
/// run by the ProfileCollector (or AddressProfiler) hooks of
/// interp/profile.h.
struct DynamicAddressProfile
{
    std::unordered_map<const ir::Instruction *, AddrObservation>
        observations;

    const AddrObservation *find(const ir::Instruction *inst) const;
};

class ProfileGuidedAliasAnalysis : public AliasAnalysis
{
  public:
    /// Both referees must outlive this object.
    ProfileGuidedAliasAnalysis(const StaticAliasAnalysis &fallback,
                               const DynamicAddressProfile &profile);

    MemLoc classify(const ir::Function &func,
                    const ir::Instruction &inst) const override;

    bool mayAlias(const LocEntry &a, const LocEntry &b) const override;
    bool mustAlias(const LocEntry &a, const LocEntry &b) const override;

    bool
    originSensitive() const override
    {
        // The queries compare the concrete address sets observed at the
        // origin instructions.
        return true;
    }

  private:
    const StaticAliasAnalysis &fallback_;
    const DynamicAddressProfile &profile_;
};

} // namespace encore::analysis

#endif // ENCORE_ANALYSIS_ALIAS_H
