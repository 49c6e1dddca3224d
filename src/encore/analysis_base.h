/**
 * @file
 * Shared analysis state for configuration sweeps.
 *
 * The Encore pipeline naturally splits into an expensive, config-
 * independent part and a cheap, config-dependent part:
 *
 *   AnalysisBase   — module checks, profiling runs, alias analyses and
 *                    the per-function CFG structures (dominators,
 *                    loops, intervals, liveness). Pure functions of
 *                    the module and the profiling runs; computed once
 *                    per workload and shared read-only across every
 *                    config point and every thread.
 *
 *   AnalysisCache  — memoized config-dependent artifacts, and the one
 *                    region-evaluation path; layered by what
 *                    invalidates them:
 *                      * call summaries, keyed (alias_mode,
 *                        opaque_functions);
 *                      * an idempotence-analysis variant, keyed
 *                        (alias_mode, opaque_functions,
 *                        use_call_summaries, effective pmin);
 *                      * per-region dataflow + cost results inside
 *                        each variant, keyed (function, header,
 *                        block set).
 *
 *   analyzeConfig  — region formation, γ selection, budget auto-tune
 *                    and report building for one EncoreConfig. Always
 *                    recomputed (γ/η/budget sweeps are pure selection
 *                    changes); evaluates regions through a cache (a
 *                    memo local to the call when none is given); does
 *                    not mutate the module, so a sweep can evaluate
 *                    any number of configs against one AnalysisBase.
 *
 *   runConfig      — analyzeConfig plus instrumentation. Mutates the
 *                    module (once per module, like EncorePipeline).
 *
 * Determinism: every cached value is a pure function of its key, and
 * region analysis itself is lookup-only over state interned before any
 * parallelism starts, so reports are bit-identical whether the cache is
 * shared or local to one call, and at any thread count.
 */
#ifndef ENCORE_ENCORE_ANALYSIS_BASE_H
#define ENCORE_ENCORE_ANALYSIS_BASE_H

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "encore/pipeline.h"
#include "encore/region_formation.h"
#include "support/thread_pool.h"

namespace encore {

/// Wall-clock seconds per pipeline phase, accumulated across calls.
struct AnalysisPhaseTimings
{
    double profile = 0.0;     ///< Profiling interpreter runs.
    double structures = 0.0;  ///< Alias analyses + CFG structures.
    double formation = 0.0;   ///< Region formation minus dataflow.
    double dataflow = 0.0;    ///< Idempotence dataflow + cost model.
    double select_merge = 0.0; ///< γ selection, auto-tune, report.
    double instrument = 0.0;  ///< Instruction insertion + verify.

    void
    accumulate(const AnalysisPhaseTimings &other)
    {
        profile += other.profile;
        structures += other.structures;
        formation += other.formation;
        dataflow += other.dataflow;
        select_merge += other.select_merge;
        instrument += other.instrument;
    }
};

/**
 * The immutable, config-independent analysis state of one workload.
 * Construction profiles the module and builds every shared structure;
 * afterwards the object is read-only (the context cache and memoized
 * alias queries mutate internally under their own locks) and safe to
 * share across threads.
 *
 * `jobs` sizes the internal thread pool used for the parallel
 * context warm-up and for per-function region formation in
 * analyzeConfig (1 = fully sequential; 0 = hardware concurrency).
 * Results are identical for every value.
 */
class AnalysisBase
{
  public:
    AnalysisBase(ir::Module &module,
                 const std::vector<RunSpec> &profile_runs,
                 std::uint64_t profile_max_instrs, std::size_t jobs = 1);
    ~AnalysisBase();

    AnalysisBase(const AnalysisBase &) = delete;
    AnalysisBase &operator=(const AnalysisBase &) = delete;

    /// The analyzed module. Non-const: runConfig instruments it.
    ir::Module &module() const { return module_; }

    const interp::ProfileData &profile() const { return profile_; }

    const analysis::AliasAnalysis &alias(EncoreConfig::AliasMode mode) const;

    FunctionContextCache &contexts() const { return contexts_; }

    const ThreadPool &pool() const { return pool_; }

    /// Seconds spent profiling / building shared structures.
    const AnalysisPhaseTimings &setupTimings() const { return timings_; }

  private:
    ir::Module &module_;
    interp::ProfileData profile_;
    analysis::DynamicAddressProfile addr_profile_;
    std::unique_ptr<analysis::StaticAliasAnalysis> static_aa_;
    std::unique_ptr<analysis::ProfileGuidedAliasAnalysis> optimistic_aa_;
    mutable FunctionContextCache contexts_;
    ThreadPool pool_;
    AnalysisPhaseTimings timings_;
};

struct ConfigAnalysis;

/**
 * Thread-safe memo of config-dependent analysis artifacts over one
 * AnalysisBase, and the one way a candidate region is evaluated: every
 * analyzeConfig call goes through a memo (its caller's, or one local
 * to the call). Sharing a cache across sweep points makes repeated
 * configs (γ/η/budget changes, or re-evaluating a config) reuse the
 * per-region dataflow results; distinct (alias_mode, opaque,
 * use_call_summaries, pmin) tuples get distinct variants and never
 * contaminate each other.
 */
class AnalysisCache
{
  public:
    explicit AnalysisCache(const AnalysisBase &base) : base_(base) {}

    struct Stats
    {
        std::size_t variants = 0;
        std::size_t region_evals = 0; ///< Dataflow runs (cache misses).
        std::size_t region_hits = 0;  ///< Memoized region lookups.
    };
    Stats stats() const;

  private:
    friend ConfigAnalysis analyzeConfig(const AnalysisBase &,
                                        const EncoreConfig &,
                                        AnalysisCache *,
                                        AnalysisPhaseTimings *);

    struct RegionKey
    {
        const ir::Function *func = nullptr;
        ir::BlockId header = 0;
        std::vector<ir::BlockId> blocks;

        bool
        operator==(const RegionKey &other) const
        {
            return func == other.func && header == other.header &&
                   blocks == other.blocks;
        }
    };

    struct RegionKeyHash
    {
        std::size_t operator()(const RegionKey &key) const;
    };

    struct CachedRegion
    {
        IdempotenceResult analysis;
        RegionCost cost;
    };

    /// One idempotence-analysis variant plus its per-region memo. The
    /// mutex serializes analyzeRegion (the analysis instance is not
    /// internally synchronized) and guards the memo.
    struct Variant
    {
        std::unique_ptr<IdempotenceAnalysis> idem;
        std::unordered_map<RegionKey, CachedRegion, RegionKeyHash> regions;
        std::mutex mutex;
    };

    using SummariesKey = std::pair<int, std::string>;
    using VariantKey = std::tuple<int, std::string, bool, double>;

    /// Finds or builds the variant for a config (thread-safe).
    Variant &variant(const EncoreConfig &config);

    /// Fills candidate.analysis and candidate.cost from the variant's
    /// memo, running the dataflow and cost model on a miss. Hit or
    /// miss, the values are pure functions of the key, so results are
    /// order- and thread-count-independent. Adds the seconds spent here
    /// to `seconds` (under the variant's lock).
    void evaluate(Variant &variant, const CostModel &cost_model,
                  CandidateRegion &candidate, double &seconds);

    const AnalysisBase &base_;
    mutable std::mutex mutex_;
    std::map<SummariesKey, std::unique_ptr<CallSummaries>> summaries_;
    std::map<VariantKey, std::unique_ptr<Variant>> variants_;
    std::atomic<std::size_t> region_evals_{0};
    std::atomic<std::size_t> region_hits_{0};
};

/// The analysis-side outcome of one config point: the figure-ready
/// report plus the formed regions with their selection decisions
/// (region ids assigned, instrumentation not yet applied).
struct ConfigAnalysis
{
    EncoreReport report;
    std::vector<InstrumentedRegion> regions;
};

/**
 * Evaluates one config point against a shared base: region formation,
 * γ selection, budget auto-tune and the report. Never mutates the
 * module. Regions are evaluated through `cache`, or, when it is null,
 * through a memo local to this call (identical reports either way);
 * timings, when non-null, accumulate the phase costs of this call.
 */
ConfigAnalysis analyzeConfig(const AnalysisBase &base,
                             const EncoreConfig &config,
                             AnalysisCache *cache = nullptr,
                             AnalysisPhaseTimings *timings = nullptr);

/**
 * analyzeConfig plus instrumentation of the module (recovery
 * pseudo-ops for the selected regions). Like EncorePipeline::run this
 * may only be applied once per module.
 */
ConfigAnalysis runConfig(const AnalysisBase &base,
                         const EncoreConfig &config,
                         AnalysisCache *cache = nullptr,
                         AnalysisPhaseTimings *timings = nullptr);

} // namespace encore

#endif // ENCORE_ENCORE_ANALYSIS_BASE_H
