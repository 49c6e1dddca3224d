/**
 * @file
 * The end-to-end Encore pipeline (Figure 3 of the paper):
 *
 *   profile → partition into SEME regions → idempotence analysis →
 *   region selection & merging heuristics → instrumentation.
 *
 * The pipeline owns nothing but configuration; it mutates the module in
 * place (adding the recovery pseudo-ops) and returns a report carrying
 * every per-region statistic that the evaluation figures need.
 */
#ifndef ENCORE_ENCORE_PIPELINE_H
#define ENCORE_ENCORE_PIPELINE_H

#include <set>

#include "encore/instrumenter.h"

namespace encore {

struct EncoreConfig
{
    /// Pruning threshold Pmin; `prune == false` is the paper's ∅
    /// column. Pmin = 0.0 prunes only never-executed blocks.
    bool prune = true;
    double pmin = 0.0;

    /// Region selection: instrument iff Coverage/Cost > gamma, i.e.
    /// hot_path² / ckpt_per_entry > gamma.
    double gamma = 50.0;

    /// Region merging threshold (ΔCoverage/ΔCost > eta).
    double eta = 100.0;
    bool merge_regions = true;

    /// Upper bound on the merged hot-path length (expected dynamic
    /// instructions per region instance). Matches Table 1's
    /// 100-1000-instruction interval target; merging stops before
    /// regions degenerate into whole-program checkpoints. Level-0
    /// intervals larger than this (big monolithic loops) are kept
    /// as-is.
    double max_region_length = 1000.0;

    /// Checkpoint-storage guard per region instance, in bytes. The
    /// paper's reserved stack area holds the *static* checkpoint slots
    /// (~10-100 B, Table 1 / Figure 7b); the undo log additionally
    /// grows with the dynamic checkpoint count of an instance. Regions
    /// whose expected log exceeds this are not instrumented and merges
    /// that would blow it are rejected — primarily a guard against
    /// pathological megaregions; cost-based selection (gamma + the
    /// overhead budget) does the real pruning.
    double max_storage_bytes = 16384.0;

    /// Target runtime overhead; when auto_tune is set, the costliest
    /// regions are dropped until the projected overhead fits (the
    /// paper's "γ and η empirically derived per application to target
    /// ~20%").
    double overhead_budget = 0.20;
    bool auto_tune = true;

    /// Use mod/ref summaries for internal calls; disabled, any call
    /// with side effects leaves the region Unknown (paper behaviour).
    bool use_call_summaries = true;

    /// Optimistic (profile-guided) alias analysis instead of the
    /// conservative static one (Figure 7a's second bar).
    enum class AliasMode { Static, Optimistic };
    AliasMode alias_mode = AliasMode::Static;

    /// Functions to treat as opaque library calls (regions containing
    /// calls to them become Unknown).
    std::set<std::string> opaque_functions;

    /// Budget for each profiling run.
    std::uint64_t profile_max_instrs = 200'000'000;
};

/// A named entry point + arguments, used for profiling runs.
struct RunSpec
{
    std::string entry;
    std::vector<std::uint64_t> args;
};

/// Per-region entry of the report.
struct RegionReport
{
    ir::RegionId id = ir::kInvalidRegion;
    std::string function;
    ir::BlockId header = 0;
    std::size_t num_blocks = 0;
    RegionClass cls = RegionClass::Unknown;
    std::string unknown_reason;
    bool selected = false;
    std::string rejection_reason;
    double entries = 0.0;
    double hot_path_length = 0.0;
    double dyn_instrs = 0.0;
    double overhead_instrs = 0.0;
    std::size_t static_mem_ckpts = 0;
    std::size_t static_reg_ckpts = 0;
    double storage_bytes = 0.0;
    double storage_mem_bytes = 0.0;
    double storage_reg_bytes = 0.0;
    double static_storage_mem_bytes = 0.0;
    double static_storage_reg_bytes = 0.0;
};

struct EncoreReport
{
    std::vector<RegionReport> regions;

    /// Baseline dynamic instructions over the profiling runs.
    double baseline_dyn_instrs = 0.0;
    /// Projected added dynamic instructions of the selected regions.
    double projected_overhead_instrs = 0.0;

    double
    projectedOverheadFraction() const
    {
        return baseline_dyn_instrs > 0.0
                   ? projected_overhead_instrs / baseline_dyn_instrs
                   : 0.0;
    }

    // --- Figure 5: static region classification -----------------------
    std::size_t countByClass(RegionClass cls) const;

    // --- Figure 6: dynamic execution breakdown -------------------------
    /// Fractions of baseline dynamic instructions spent in regions that
    /// are (a) selected & idempotent, (b) selected & checkpointed,
    /// (c) unprotected.
    double dynFractionIdempotent() const;
    double dynFractionCheckpointed() const;
    double dynFractionUnprotected() const;

    // --- Figure 7b: storage -----------------------------------------------
    /// Entry-weighted average *static* checkpoint slot size per region
    /// in bytes (the paper's metric: reserved stack space for the
    /// selective checkpoint sites).
    double avgStorageBytes() const;
    double avgStorageMemBytes() const;
    double avgStorageRegBytes() const;

    /// Mean dynamic region length (instructions per region entry) over
    /// selected regions — the "interval length" row of Table 1.
    double meanSelectedRegionLength() const;

    /// Canonical byte serialization of every field (doubles rendered
    /// with full precision) — two reports are bit-identical iff their
    /// serializations compare equal. Used by the determinism tests.
    std::string serialized() const;
};

/**
 * Single-config convenience wrapper over the shared-analysis API: one
 * AnalysisBase, one runConfig (see encore/analysis_base.h). Sweeps
 * over many configs should use that API directly so the base and the
 * per-region dataflow results are shared across config points.
 */
class EncorePipeline
{
  public:
    EncorePipeline(ir::Module &module, EncoreConfig config);

    /// Profiles the module on the given runs, then analyzes, selects
    /// and instruments. May be called once per module.
    EncoreReport run(const std::vector<RunSpec> &profile_runs);

  private:
    ir::Module &module_;
    EncoreConfig config_;
    bool ran_ = false;
};

} // namespace encore

#endif // ENCORE_ENCORE_PIPELINE_H
