#include "encore/analysis_base.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>

#include "interp/interpreter.h"
#include "ir/verifier.h"
#include "support/diagnostics.h"

namespace encore {

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

AnalysisBase::AnalysisBase(ir::Module &module,
                           const std::vector<RunSpec> &profile_runs,
                           std::uint64_t profile_max_instrs,
                           std::size_t jobs)
    : module_(module), pool_(jobs)
{
    module_.resolveCalls();
    ir::verifyOrDie(module_);

    // The analysis assumes a pristine module.
    for (const auto &func : module_.functions()) {
        for (const auto &bb : func->blocks()) {
            for (const auto &inst : bb->instructions()) {
                ENCORE_ASSERT(!inst.isPseudo(),
                              "module is already instrumented");
            }
        }
    }

    // Profiling runs (Stage 1 of the pipeline).
    double t0 = nowSeconds();
    {
        // The default (fused) engine: the collector's hooks leave
        // fusion on, and it measured no slower than the decoded one
        // (encore.profile_s over 12 alternating perfbench pairs on a
        // 4-core VM, GCC 12 Release: pair-ratio median 0.96, lower in
        // 9 of 12; EXPERIMENTS.md "Incremental analysis pipeline").
        interp::Interpreter interp(module_);
        interp::ProfileCollector collector(module_);
        interp.setHooks(&collector);
        interp.setMaxInstructions(profile_max_instrs);
        for (const RunSpec &spec : profile_runs) {
            const interp::RunResult result = interp.run(spec.entry,
                                                        spec.args);
            if (!result.ok()) {
                fatalf("profiling run of @", spec.entry,
                       " failed: ", result.error);
            }
        }
        collector.exportTo(profile_, addr_profile_);
    }
    timings_.profile += nowSeconds() - t0;

    // Shared structures: both alias analyses (the optimistic one is a
    // cheap view over the static one + the address profile) and the
    // per-function CFG contexts, built in parallel and then published
    // into the shared cache.
    t0 = nowSeconds();
    static_aa_ = std::make_unique<analysis::StaticAliasAnalysis>(module_);
    optimistic_aa_ =
        std::make_unique<analysis::ProfileGuidedAliasAnalysis>(
            *static_aa_, addr_profile_);

    const auto &funcs = module_.functions();
    std::vector<std::unique_ptr<FunctionContext>> built(funcs.size());
    pool_.parallelFor(funcs.size(),
                      [&](std::uint64_t i, std::size_t) {
                          built[i] = std::make_unique<FunctionContext>(
                              *funcs[i]);
                      });
    for (std::size_t i = 0; i < funcs.size(); ++i)
        contexts_.put(*funcs[i], std::move(built[i]));
    timings_.structures += nowSeconds() - t0;
}

AnalysisBase::~AnalysisBase() = default;

const analysis::AliasAnalysis &
AnalysisBase::alias(EncoreConfig::AliasMode mode) const
{
    if (mode == EncoreConfig::AliasMode::Optimistic)
        return *optimistic_aa_;
    return *static_aa_;
}

std::size_t
AnalysisCache::RegionKeyHash::operator()(const RegionKey &key) const
{
    std::uint64_t h = 1469598103934665603ull; // FNV-1a
    const auto mix = [&h](std::uint64_t value) {
        h ^= value;
        h *= 1099511628211ull;
    };
    mix(reinterpret_cast<std::uintptr_t>(key.func));
    mix(static_cast<std::uint64_t>(key.header));
    for (const ir::BlockId block : key.blocks)
        mix(static_cast<std::uint64_t>(block));
    return static_cast<std::size_t>(h);
}

AnalysisCache::Stats
AnalysisCache::stats() const
{
    Stats stats;
    stats.region_evals = region_evals_.load();
    stats.region_hits = region_hits_.load();
    std::lock_guard<std::mutex> lock(mutex_);
    stats.variants = variants_.size();
    return stats;
}

AnalysisCache::Variant &
AnalysisCache::variant(const EncoreConfig &config)
{
    const int mode = static_cast<int>(config.alias_mode);
    std::string opaque;
    for (const std::string &name : config.opaque_functions) {
        opaque += name;
        opaque += '\0';
    }
    const double pmin = config.prune ? config.pmin : -1.0;

    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<CallSummaries> &summaries =
        summaries_[SummariesKey(mode, opaque)];
    if (!summaries) {
        summaries = std::make_unique<CallSummaries>(
            base_.module(), base_.alias(config.alias_mode),
            config.opaque_functions);
    }

    std::unique_ptr<Variant> &variant =
        variants_[VariantKey(mode, opaque, config.use_call_summaries,
                             pmin)];
    if (!variant) {
        variant = std::make_unique<Variant>();
        IdempotenceAnalysis::Options options;
        options.pmin = pmin;
        options.use_call_summaries = config.use_call_summaries;
        variant->idem = std::make_unique<IdempotenceAnalysis>(
            base_.module(), base_.alias(config.alias_mode), *summaries,
            &base_.profile(), options, &base_.contexts());
    }
    return *variant;
}

void
AnalysisCache::evaluate(Variant &variant, const CostModel &cost_model,
                        CandidateRegion &candidate, double &seconds)
{
    const double t0 = nowSeconds();
    RegionKey key;
    key.func = candidate.region.func;
    key.header = candidate.region.header;
    key.blocks = candidate.region.blocks;

    const analysis::Liveness &liveness =
        base_.contexts().get(*candidate.region.func).liveness;

    std::lock_guard<std::mutex> lock(variant.mutex);
    auto it = variant.regions.find(key);
    if (it != variant.regions.end()) {
        candidate.analysis = it->second.analysis;
        candidate.cost = it->second.cost;
        region_hits_.fetch_add(1, std::memory_order_relaxed);
    } else {
        candidate.analysis = variant.idem->analyzeRegion(candidate.region);
        candidate.cost = cost_model.evaluate(candidate.region,
                                             candidate.analysis, liveness);
        variant.regions.emplace(
            std::move(key), CachedRegion{candidate.analysis, candidate.cost});
        region_evals_.fetch_add(1, std::memory_order_relaxed);
    }
    seconds += nowSeconds() - t0;
}

ConfigAnalysis
analyzeConfig(const AnalysisBase &base, const EncoreConfig &config,
              AnalysisCache *cache, AnalysisPhaseTimings *timings)
{
    // One evaluation path: a null cache gets a memo local to this call.
    std::optional<AnalysisCache> local_cache;
    if (!cache)
        cache = &local_cache.emplace(base);
    AnalysisCache::Variant &variant = cache->variant(config);
    const CostModel cost_model(base.profile());

    FormationOptions formation;
    formation.eta = config.eta;
    formation.merge = config.merge_regions;
    formation.max_storage_bytes = config.max_storage_bytes;
    formation.max_hot_path = config.max_region_length;

    // Seconds spent evaluating regions, so formation and dataflow can
    // be timed separately.
    double dataflow_seconds = 0.0;
    const RegionEvaluation evaluate = [&](CandidateRegion &candidate) {
        cache->evaluate(variant, cost_model, candidate, dataflow_seconds);
    };

    // Region formation, one function at a time in parallel. Results
    // land in module function order regardless of completion order.
    const double form_t0 = nowSeconds();
    const auto &funcs = base.module().functions();
    std::vector<std::vector<CandidateRegion>> formed(funcs.size());
    base.pool().parallelFor(
        funcs.size(), [&](std::uint64_t i, std::size_t) {
            const ir::Function &func = *funcs[i];
            formed[i] = formRegions(func, base.contexts().get(func),
                                    base.profile(), evaluate, formation);
        });

    ConfigAnalysis out;
    for (std::vector<CandidateRegion> &candidates : formed) {
        for (CandidateRegion &candidate : candidates) {
            InstrumentedRegion region;
            region.candidate = std::move(candidate);
            out.regions.push_back(std::move(region));
        }
    }
    if (timings) {
        timings->dataflow += dataflow_seconds;
        timings->formation +=
            std::max(0.0, nowSeconds() - form_t0 - dataflow_seconds);
    }

    const double select_t0 = nowSeconds();
    std::vector<InstrumentedRegion> &regions_ = out.regions;

    // Selection: γ filter.
    for (InstrumentedRegion &region : regions_) {
        const CandidateRegion &cand = region.candidate;
        if (cand.analysis.cls == RegionClass::Unknown) {
            region.rejection_reason = cand.analysis.unknown_reason;
            continue;
        }
        if (!cand.analysis.checkpointable) {
            region.rejection_reason = "offender not checkpointable";
            continue;
        }
        if (cand.cost.entries <= 0.0) {
            // Never profiled: protect only when free (idempotent).
            if (cand.analysis.isIdempotent()) {
                region.selected = true;
            } else {
                region.rejection_reason = "cold region needing checkpoints";
            }
            continue;
        }
        if (cand.cost.storage_bytes > config.max_storage_bytes) {
            region.rejection_reason = "exceeds checkpoint storage budget";
            continue;
        }
        const double n = cand.cost.coverage();
        const double c = std::max(cand.cost.ckpt_per_entry, 1e-9);
        if (n * n / c > config.gamma) {
            region.selected = true;
        } else {
            region.rejection_reason = "coverage/cost below gamma";
        }
    }

    // Budget auto-tune: drop the least efficient regions until the
    // projected overhead fits.
    const double baseline =
        static_cast<double>(base.profile().totalDynInstrs());
    if (config.auto_tune && baseline > 0.0) {
        auto projected = [&]() {
            // Clearing enters are only emitted in functions with at
            // least one protected region (see instrumentFunction).
            std::set<const ir::Function *> protected_funcs;
            for (const InstrumentedRegion &region : regions_) {
                if (region.selected)
                    protected_funcs.insert(region.candidate.region.func);
            }
            double total = 0.0;
            for (const InstrumentedRegion &region : regions_) {
                if (region.selected) {
                    total += region.candidate.cost.overhead_instrs;
                } else if (protected_funcs.count(
                               region.candidate.region.func)) {
                    total += region.candidate.cost.entries; // clear enter
                }
            }
            return total;
        };
        while (projected() > config.overhead_budget * baseline) {
            InstrumentedRegion *worst = nullptr;
            double worst_ratio = -1.0;
            for (InstrumentedRegion &region : regions_) {
                if (!region.selected)
                    continue;
                const RegionCost &cost = region.candidate.cost;
                const double saved =
                    cost.overhead_instrs - cost.entries;
                if (saved <= 0.0)
                    continue; // dropping gains nothing
                const double ratio =
                    saved / std::max(cost.dyn_instrs, 1.0);
                if (ratio > worst_ratio) {
                    worst_ratio = ratio;
                    worst = &region;
                }
            }
            if (!worst)
                break;
            worst->selected = false;
            worst->rejection_reason = "dropped to meet overhead budget";
        }
    }

    // Region ids: selection order, independent of instrumentation.
    ir::RegionId next_id = 0;
    for (InstrumentedRegion &region : regions_) {
        if (region.selected)
            region.id = next_id++;
    }

    // Report.
    EncoreReport &report = out.report;
    report.baseline_dyn_instrs = baseline;
    std::set<const ir::Function *> protected_funcs;
    for (const InstrumentedRegion &region : regions_) {
        if (region.selected)
            protected_funcs.insert(region.candidate.region.func);
    }
    for (const InstrumentedRegion &region : regions_) {
        const CandidateRegion &cand = region.candidate;
        RegionReport entry;
        entry.id = region.id;
        entry.function = cand.region.func->name();
        entry.header = cand.region.header;
        entry.num_blocks = cand.region.blocks.size();
        entry.cls = cand.analysis.cls;
        entry.unknown_reason = cand.analysis.unknown_reason;
        entry.selected = region.selected;
        entry.rejection_reason = region.rejection_reason;
        entry.entries = cand.cost.entries;
        entry.hot_path_length = cand.cost.hot_path_length;
        entry.dyn_instrs = cand.cost.dyn_instrs;
        entry.overhead_instrs =
            region.selected ? cand.cost.overhead_instrs
            : protected_funcs.count(cand.region.func)
                ? cand.cost.entries
                : 0.0;
        entry.static_mem_ckpts = cand.cost.static_mem_ckpts;
        entry.static_reg_ckpts = cand.cost.static_reg_ckpts;
        entry.storage_bytes = cand.cost.storage_bytes;
        entry.storage_mem_bytes = cand.cost.storage_mem_bytes;
        entry.storage_reg_bytes = cand.cost.storage_reg_bytes;
        entry.static_storage_mem_bytes =
            cand.cost.static_storage_mem_bytes;
        entry.static_storage_reg_bytes =
            cand.cost.static_storage_reg_bytes;
        report.projected_overhead_instrs += entry.overhead_instrs;
        report.regions.push_back(std::move(entry));
    }
    if (timings)
        timings->select_merge += nowSeconds() - select_t0;

    return out;
}

ConfigAnalysis
runConfig(const AnalysisBase &base, const EncoreConfig &config,
          AnalysisCache *cache, AnalysisPhaseTimings *timings)
{
    ConfigAnalysis out = analyzeConfig(base, config, cache, timings);

    const double t0 = nowSeconds();
    for (const auto &func : base.module().functions()) {
        std::vector<InstrumentedRegion *> mine;
        for (InstrumentedRegion &region : out.regions) {
            if (region.candidate.region.func == func.get())
                mine.push_back(&region);
        }
        instrumentFunction(*func, mine,
                           base.contexts().get(*func).liveness);
    }
    ir::verifyOrDie(base.module());
    if (timings)
        timings->instrument += nowSeconds() - t0;

    return out;
}

} // namespace encore
