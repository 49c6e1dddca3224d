/**
 * @file
 * The Encore idempotence analysis (paper §3.1).
 *
 * For a SEME region the analysis computes, per node of a condensed
 * acyclic view of the region:
 *
 *   RS  — reachable stores (Equation 1, forward post-order),
 *   GA  — guarded addresses (Equation 2, reverse traversal, must-set),
 *   EA  — exposed addresses (Equation 3, reverse traversal),
 *
 * and flags a violation wherever EA ∩ RS ≠ ∅ under may-alias
 * (Equation 4). The stores named by the violating RS entries form the
 * CP checkpoint set of §3.2.
 *
 * Cycles are handled hierarchically (§3.1.2): every natural loop is
 * summarized bottom-up — RS^l = AS^l (all stores, capturing
 * cross-iteration WARs), GA^l = the must-written set at its exits,
 * EA^l = the union of exposed addresses at its exits — and the loop
 * then participates in enclosing analyses as a single pseudo-block.
 * Cycles that are not natural loops cannot be canonicalized and leave
 * the region Unknown, as do calls the CallSummaries cannot analyze.
 *
 * Profile-driven pruning (§3.4.1): with pmin >= 0, blocks whose
 * execution probability is zero (pmin == 0, the paper's "never executed
 * while profiling" point) or below pmin are excluded from the child
 * sets of every equation — trading a statistical sliver of soundness
 * for substantially more idempotence, exactly the Figure 5 experiment.
 *
 * Implementation note: construction runs a deterministic pre-pass that
 * interns every location/entry the dataflow can ever see (per-block
 * access events, call-summary mod/ref sets anchored at their call
 * sites) into dense u32 IDs — see analysis/interning.h. The RS/GA/EA
 * sets are then IdSets with linear merges, may-alias queries are
 * memoized per location/entry pair, and region analysis itself is
 * lookup-only, so results are bit-reproducible regardless of the order
 * regions are analyzed in.
 */
#ifndef ENCORE_ENCORE_IDEMPOTENCE_H
#define ENCORE_ENCORE_IDEMPOTENCE_H

#include <memory>
#include <mutex>
#include <unordered_map>

#include "analysis/alias.h"
#include "analysis/interning.h"
#include "analysis/intervals.h"
#include "analysis/liveness.h"
#include "analysis/loop_info.h"
#include "encore/call_summary.h"
#include "encore/region.h"
#include "interp/profile.h"

namespace encore {

/// Cached per-function CFG structures, shared by the idempotence
/// analysis, region formation (intervals) and instrumentation
/// (liveness). Pure functions of the (pristine) function body.
struct FunctionContext
{
    analysis::DiGraph cfg;
    analysis::DominatorTree dom;
    analysis::LoopInfo loops;
    analysis::IntervalHierarchy intervals;
    analysis::Liveness liveness;

    explicit FunctionContext(const ir::Function &func)
        : cfg(analysis::buildCfg(func)),
          dom(cfg, func.entry()->id()),
          loops(cfg, dom),
          intervals(cfg, func.entry()->id()),
          liveness(func)
    {
    }
};

/**
 * Lazily-built per-function context cache. One instance can be shared
 * read-mostly across every analysis variant of a workload (the contexts
 * depend only on the module, not on any EncoreConfig field); get() is
 * thread-safe.
 */
class FunctionContextCache
{
  public:
    const FunctionContext &get(const ir::Function &func);

    /// Pre-inserts a context built elsewhere (parallel warm-up);
    /// no-op when the function already has one.
    void put(const ir::Function &func,
             std::unique_ptr<FunctionContext> ctx);

  private:
    std::mutex mutex_;
    std::unordered_map<const ir::Function *,
                       std::unique_ptr<FunctionContext>>
        contexts_;
};

class IdempotenceAnalysis
{
  public:
    struct Options
    {
        /// Execution-probability threshold for pruning; negative means
        /// the paper's ∅ column (no pruning). 0.0 prunes only blocks
        /// never executed during profiling.
        double pmin = -1.0;
        /// When false, any call with side effects makes the region
        /// Unknown (the paper's behaviour); when true, analyzable
        /// callees participate through their mod/ref summaries.
        bool use_call_summaries = true;
    };

    /// `profile` may be null, in which case no pruning happens
    /// regardless of pmin. `shared_contexts` (optional) supplies the
    /// per-function CFG structures so several analysis variants over
    /// one module can share them; when null a private cache is used.
    /// Instances are not internally synchronized: concurrent
    /// analyzeRegion calls on one instance must be serialized by the
    /// caller (AnalysisCache does).
    IdempotenceAnalysis(const ir::Module &module,
                        const analysis::AliasAnalysis &aa,
                        const CallSummaries &summaries,
                        const interp::ProfileData *profile,
                        Options options,
                        FunctionContextCache *shared_contexts = nullptr);

    ~IdempotenceAnalysis();

    IdempotenceResult analyzeRegion(const Region &region);

  private:
    struct LoopSummaryData;
    struct Subgraph;

    const FunctionContext &context(const ir::Function &func);

    /// Per-block access events, precomputed by the interning pre-pass.
    struct Event
    {
        enum class Kind : std::uint8_t
        {
            Load,
            Store,
            Call
        };
        Kind kind;
        analysis::EntryId entry = analysis::kInvalidInternId;
        analysis::GuardId guard = analysis::kInvalidInternId;
        std::uint32_t call = 0; ///< Index into call_sites_ (Kind::Call).
    };

    /// A call site with its summary pre-resolved against the options.
    struct CallSite
    {
        bool ok = true;
        std::string fail_reason;
        /// Callee ref entries anchored at the call: (entry, guard of
        /// the underlying location), in summary order.
        std::vector<std::pair<analysis::EntryId, analysis::GuardId>> refs;
        /// Callee mod entries anchored at the call.
        analysis::IdSet mods;
    };

    const LoopSummaryData &loopSummary(const ir::Function &func,
                                       const analysis::Loop *loop);

    /// Shared worker: runs the RS/GA/EA equations over the subgraph
    /// (`loop_mode` applies the RS^l = AS^l rule and drops back edges).
    void analyzeSubgraph(Subgraph &sub);

    /// Builds the condensed node view for a block set.
    std::unique_ptr<Subgraph> buildSubgraph(const ir::Function &func,
                                            ir::BlockId header,
                                            const std::vector<ir::BlockId>
                                                &blocks,
                                            bool loop_mode);

    void internModule();

    const ir::Module &module_;
    const analysis::AliasAnalysis &aa_;
    const CallSummaries &summaries_;
    const interp::ProfileData *profile_;
    Options options_;

    analysis::LocationInterner interner_;
    analysis::AliasFilter filter_;
    /// Per function, per block id: the interned access events.
    std::unordered_map<const ir::Function *, std::vector<std::vector<Event>>>
        block_events_;
    std::vector<CallSite> call_sites_;

    FunctionContextCache *contexts_;
    FunctionContextCache own_contexts_;
    std::unordered_map<const analysis::Loop *,
                       std::unique_ptr<LoopSummaryData>>
        loop_summaries_;
};

} // namespace encore

#endif // ENCORE_ENCORE_IDEMPOTENCE_H
