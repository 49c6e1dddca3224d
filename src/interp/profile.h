/**
 * @file
 * Profiling hooks and the profile data consumed by Encore.
 *
 * Each collector below is an ExecHooks that only listens (block
 * entries and memory accesses) and changes nothing; install it with
 * Interpreter::setHooks for the profiled runs.
 *
 *  - Profiler / ProfileData: basic-block execution counts. These feed
 *    the Pmin pruning heuristic (§3.4.1, Figure 5), the hot-path length
 *    that serves as the coverage surrogate in region selection
 *    (§3.4.2), and the dynamic-instruction accounting behind Figures 6
 *    and 7a.
 *  - AddressProfiler: per-static-instruction concrete address sets for
 *    the optimistic alias analysis (Figure 7a's lower bound).
 *  - ProfileCollector: both of the above from one hook over flat
 *    storage — the profiling run of the analysis pipeline. Profiler
 *    and AddressProfiler stay as its reference.
 *  - TraceCollector: the dynamic memory-access trace used to measure
 *    the inherent idempotence of execution windows (Figure 1).
 */
#ifndef ENCORE_INTERP_PROFILE_H
#define ENCORE_INTERP_PROFILE_H

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "analysis/alias.h"
#include "interp/observer.h"

namespace encore::interp {

class ProfileData
{
  public:
    /// Counts `times` entries into `block`, over the edge from `from`
    /// or, when it is nullptr, from outside the function.
    void
    countBlock(const ir::Function &func, const ir::BasicBlock &block,
               const ir::BasicBlock *from, std::uint64_t times = 1)
    {
        auto &counts = block_counts_[&func];
        if (counts.size() < func.numBlocks())
            counts.resize(func.numBlocks(), 0);
        counts[block.id()] += times;
        if (from)
            edge_counts_[&func][{from->id(), block.id()}] += times;
        else
            external_entries_[&func][block.id()] += times;
    }

    /// Taken count of the CFG edge from -> to.
    std::uint64_t edgeCount(const ir::Function &func, ir::BlockId from,
                            ir::BlockId to) const;

    /// Entries into `block` that did not come from an intra-function
    /// branch (function entry on call, rollback redirects).
    std::uint64_t externalEntries(const ir::Function &func,
                                  ir::BlockId block) const;

    /// Executions of a block across the profiled runs.
    std::uint64_t blockCount(const ir::Function &func,
                             ir::BlockId block) const;

    /// Invocations of the function (entry-block executions).
    std::uint64_t functionEntries(const ir::Function &func) const;

    /// Execution probability used by the Pmin heuristic: block count
    /// normalized by function invocations. May exceed 1 inside loops.
    double blockProbability(const ir::Function &func,
                            ir::BlockId block) const;

    /// Total dynamic (non-pseudo) instructions across profiled runs,
    /// estimated from block counts and static block sizes.
    std::uint64_t totalDynInstrs() const;

    /// Dynamic instructions attributable to one function.
    std::uint64_t functionDynInstrs(const ir::Function &func) const;

    bool
    empty() const
    {
        return block_counts_.empty();
    }

  private:
    std::map<const ir::Function *, std::vector<std::uint64_t>>
        block_counts_;
    std::map<const ir::Function *,
             std::map<std::pair<ir::BlockId, ir::BlockId>, std::uint64_t>>
        edge_counts_;
    std::map<const ir::Function *, std::map<ir::BlockId, std::uint64_t>>
        external_entries_;
};

/// Hooks filling a ProfileData.
class Profiler : public ExecHooks
{
  public:
    explicit Profiler(ProfileData &data) : data_(data) {}

    void
    onBlockEnter(const ir::Function &func, const ir::BasicBlock &block,
                 const ir::BasicBlock *from) override
    {
        data_.countBlock(func, block, from);
    }

  private:
    ProfileData &data_;
};

/// Hooks filling a DynamicAddressProfile for the optimistic alias
/// analysis.
class AddressProfiler : public ExecHooks
{
  public:
    explicit AddressProfiler(analysis::DynamicAddressProfile &profile)
        : profile_(profile)
    {
    }

    void
    onMemoryAccess(const ir::Instruction &inst, ir::ObjectId object,
                   std::uint32_t offset, bool is_store,
                   std::uint64_t dyn_index) override
    {
        (void)is_store;
        (void)dyn_index;
        profile_.observations[&inst].record(object, offset);
    }

  private:
    analysis::DynamicAddressProfile &profile_;
};

/**
 * Fills a ProfileData and a DynamicAddressProfile from one hook,
 * with exactly the contents Profiler + AddressProfiler would give, over
 * flat storage built up front from the module:
 *
 *  - per function, the taken count of each block's (at most two)
 *    terminator successors and the external-entry count of each block;
 *    block counts are their sums, so they are not stored;
 *  - per load/store instruction, a slot holding its distinct objects
 *    and a fixed-size open-addressing table of its distinct addresses,
 *    until AddrObservation::kMaxAddrs overflows it.
 *
 * Functions and instructions find their storage through a flat
 * pointer index. exportTo() writes the counts out once the runs are
 * done. The module must not change while the collector observes it,
 * and a branch into a block that is not one of its terminator's
 * successors is a panic here.
 */
class ProfileCollector : public ExecHooks
{
  public:
    explicit ProfileCollector(const ir::Module &module);

    void onBlockEnter(const ir::Function &func, const ir::BasicBlock &block,
                      const ir::BasicBlock *from) override;

    void onMemoryAccess(const ir::Instruction &inst, ir::ObjectId object,
                        std::uint32_t offset, bool is_store,
                        std::uint64_t dyn_index) override;

    /// Adds everything observed so far to `data` and `profile`.
    void exportTo(ProfileData &data,
                  analysis::DynamicAddressProfile &profile) const;

  private:
    /// Immutable open-addressing map from a pointer to a dense index.
    class PointerIndex
    {
      public:
        void build(const std::vector<const void *> &keys);
        /// The index of `key`; panics when it was not built in.
        std::uint32_t find(const void *key) const;

      private:
        std::size_t home(const void *key) const;

        /// 64 minus log2 of the table size.
        unsigned shift_ = 63;
        std::vector<const void *> keys_;
        std::vector<std::uint32_t> values_;
    };

    struct FunctionCounts
    {
        const ir::Function *func = nullptr;
        /// Successor block ids of block b at 2b and 2b + 1
        /// (kNoBlock when the terminator has fewer).
        std::vector<ir::BlockId> succ;
        /// Taken counts of those successor edges.
        std::vector<std::uint64_t> taken;
        std::vector<std::uint64_t> external;
    };

    struct AddrSlot
    {
        /// A power of two; it holds at most kMaxAddrs + 1 addresses, so
        /// it stays about half empty.
        static constexpr unsigned kTableBits = 7;
        static_assert((std::size_t{1} << kTableBits) >=
                      2 * analysis::AddrObservation::kMaxAddrs);

        const ir::Instruction *inst = nullptr;
        /// The last address recorded: a repeat changes nothing.
        std::uint64_t last = kNoAddr;
        bool overflow = false;
        std::vector<ir::ObjectId> objects;
        /// Distinct addresses (kNoAddr marks a free entry), empty
        /// until the first access and again after overflow.
        std::vector<std::uint64_t> table;
        std::size_t addr_count = 0;
    };

    static constexpr ir::BlockId kNoBlock = ~ir::BlockId{0};
    static constexpr std::uint64_t kNoAddr = ~std::uint64_t{0};

    std::vector<FunctionCounts> funcs_;
    /// The function of the last block entry (a loop stays in one).
    FunctionCounts *current_ = nullptr;
    std::vector<AddrSlot> slots_;
    PointerIndex func_index_;
    PointerIndex inst_index_;
};

/// One dynamic memory access.
struct TraceAccess
{
    std::uint64_t dyn_index;
    ir::ObjectId object;
    std::uint32_t offset;
    bool is_store;
};

/**
 * Records the dynamic memory-access stream (up to a cap) for
 * window-idempotence analysis.
 */
class TraceCollector : public ExecHooks
{
  public:
    explicit TraceCollector(std::size_t max_accesses = 4'000'000)
        : max_accesses_(max_accesses)
    {
    }

    void
    onMemoryAccess(const ir::Instruction &inst, ir::ObjectId object,
                   std::uint32_t offset, bool is_store,
                   std::uint64_t dyn_index) override
    {
        (void)inst;
        if (accesses_.size() < max_accesses_) {
            accesses_.push_back(
                TraceAccess{dyn_index, object, offset, is_store});
        } else {
            truncated_ = true;
        }
    }

    const std::vector<TraceAccess> &accesses() const { return accesses_; }
    bool truncated() const { return truncated_; }

  private:
    std::size_t max_accesses_;
    std::vector<TraceAccess> accesses_;
    bool truncated_ = false;
};

/**
 * Measures, over a stream of dynamic windows of `window` instructions,
 * the fraction that are inherently idempotent — no location is read
 * (while still holding its pre-window value) and later overwritten
 * within the window. Reproduces the metric of Figure 1.
 */
struct WindowIdempotence
{
    std::uint64_t windows = 0;
    std::uint64_t idempotent = 0;
    /// Windows whose WAR violations involve at most `tolerance`
    /// distinct store sites — the "nearly idempotent" population that
    /// the paper's Idempotence Target curve aims to recover.
    std::uint64_t nearly_idempotent = 0;

    double
    idempotentFraction() const
    {
        return windows ? static_cast<double>(idempotent) /
                             static_cast<double>(windows)
                       : 0.0;
    }
};

/// Computes window idempotence over a collected trace. Windows are laid
/// back-to-back (non-overlapping) over the traced run's `length`
/// dynamic instructions (its RunResult::dyn_instrs). `tolerance` is the
/// max number of violating stores for the "nearly idempotent"
/// classification. A truncated trace is refused (fatal): the windows
/// past its cap would count as idempotent.
WindowIdempotence analyzeWindows(const TraceCollector &trace,
                                 std::uint64_t length, std::uint64_t window,
                                 std::uint64_t tolerance);

} // namespace encore::interp

#endif // ENCORE_INTERP_PROFILE_H
