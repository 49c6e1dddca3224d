#include "campaign/planner.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "ir/basic_block.h"
#include "ir/module.h"
#include "support/checksum.h"
#include "support/diagnostics.h"
#include "support/stats.h"
#include "support/strings.h"

namespace encore::campaign {

namespace {

constexpr std::size_t kNumOutcomes = kTallyOutcomeSlots;

/// Trials whose latency window can reach past the golden program end
/// (target + dmax within this slack of the last value index) race
/// detection against program termination, and the race depends on
/// pseudo-op counts *outside* the struck function's closure. They go
/// into per-function "tail" groups whose fingerprint includes the
/// whole instrumented module hash, so they never reuse across
/// configurations. See DESIGN.md §10.
constexpr std::uint64_t kTailSlack = 2;

bool
isCoveredOutcome(fault::FaultOutcome outcome)
{
    return outcome == fault::FaultOutcome::Masked ||
           outcome == fault::FaultOutcome::RecoveredIdempotent ||
           outcome == fault::FaultOutcome::RecoveredCheckpoint ||
           outcome == fault::FaultOutcome::Benign;
}

/**
 * Canonical structural hash of one function of the *instrumented*
 * module: opcode, registers, operands, address expressions, callee
 * names, successor block ids, and pseudo-op region ids remapped to
 * function-local first-use ordinals. The remap is what makes the
 * signature stable across sweep points: region ids are numbered
 * globally in selection order, so flipping one region's selection in
 * function A renumbers every later id module-wide while B's
 * instrumentation is structurally untouched.
 */
std::uint64_t
canonicalFunctionSig(const ir::Function &func)
{
    std::uint64_t h = fnv1a64("encore-func-sig-v1");
    std::unordered_map<ir::RegionId, std::uint64_t> local_ids;
    auto canon_region = [&](ir::RegionId id) -> std::uint64_t {
        if (id == ir::kInvalidRegion)
            return ~0ULL;
        const auto [it, inserted] =
            local_ids.try_emplace(id, local_ids.size());
        return it->second;
    };
    auto mix_operand = [&](const ir::Operand &op) {
        h = fnv1a64Mix(static_cast<std::uint64_t>(op.kind), h);
        h = fnv1a64Mix(op.isReg() ? op.reg : 0, h);
        h = fnv1a64Mix(
            op.isImm() ? static_cast<std::uint64_t>(op.imm) : 0, h);
    };

    h = fnv1a64(func.name(), h);
    for (const auto &block : func.blocks()) {
        h = fnv1a64Mix(0xB10C, h);
        h = fnv1a64Mix(block->id(), h);
        for (const ir::Instruction &inst : block->instructions()) {
            h = fnv1a64Mix(static_cast<std::uint64_t>(inst.opcode()),
                           h);
            h = fnv1a64Mix(inst.hasDest() ? inst.dest()
                                          : ir::kInvalidReg,
                           h);
            mix_operand(inst.a());
            mix_operand(inst.b());
            mix_operand(inst.c());
            const ir::AddrExpr &addr = inst.addr();
            h = fnv1a64Mix(static_cast<std::uint64_t>(addr.base_kind),
                           h);
            h = fnv1a64Mix(addr.object, h);
            h = fnv1a64Mix(addr.base_reg, h);
            mix_operand(addr.offset);
            if (!inst.calleeName().empty())
                h = fnv1a64(inst.calleeName(), h);
            for (const ir::Operand &arg : inst.args())
                mix_operand(arg);
            h = fnv1a64Mix(
                inst.succ0() ? inst.succ0()->id() : ~0ULL, h);
            h = fnv1a64Mix(
                inst.succ1() ? inst.succ1()->id() : ~0ULL, h);
            h = fnv1a64Mix(canon_region(inst.regionId()), h);
        }
    }
    return h;
}

/**
 * Value-index → fault-site attribution via one hooked golden-speed
 * run: counts filterResult callbacks exactly like the trial hooks do,
 * and at each requested index records the innermost executing
 * function and the active region id. Behaviourally a pure
 * pass-through, so the run IS the golden run.
 */
class AttributionHooks : public interp::ExecHooks
{
  public:
    struct Site
    {
        ir::RegionId region = ir::kInvalidRegion;
        const ir::Function *func = nullptr;
    };

    AttributionHooks(interp::Interpreter &interp,
                     const std::vector<std::uint64_t> &targets)
        : interp_(interp), targets_(targets), sites_(targets.size())
    {
    }

    std::uint64_t
    filterResult(const ir::Instruction &inst, std::uint64_t dyn_index,
                 std::uint64_t value) override
    {
        (void)inst;
        (void)dyn_index;
        const std::uint64_t index = value_count_++;
        if (cursor_ < targets_.size() && index == targets_[cursor_]) {
            sites_[cursor_].region = interp_.currentRegionId();
            sites_[cursor_].func = interp_.currentFunction();
            ++cursor_;
        }
        return value;
    }

    const std::vector<Site> &sites() const { return sites_; }
    std::uint64_t valueCount() const { return value_count_; }
    bool complete() const { return cursor_ == targets_.size(); }

  private:
    interp::Interpreter &interp_;
    const std::vector<std::uint64_t> &targets_;
    std::vector<Site> sites_;
    std::uint64_t value_count_ = 0;
    std::size_t cursor_ = 0;
};

enum Stratum
{
    kStratumMasked = 0,
    kStratumIdempotent = 1,
    kStratumCheckpointed = 2,
    kStratumUnprotected = 3,
    kNumStrata = 4,
};

const char *const kStratumNames[kNumStrata] = {
    "masked", "idempotent", "checkpointed", "unprotected"};

} // namespace

struct CampaignPlanner::Impl
{
    const fault::FaultInjector &injector;
    const encore::EncoreReport &report;
    fault::CampaignConfig config;
    PlannerOptions options;

    bool prepared = false;
    std::vector<fault::TrialDraw> draws;
    std::uint64_t masked_count = 0;

    struct Group
    {
        const ir::Function *func = nullptr;
        ir::RegionId region = ir::kInvalidRegion;
        bool tail = false;
        int stratum = kStratumUnprotected;
        std::uint64_t fingerprint = 0;
        std::vector<std::uint64_t> trials;
        std::uint64_t subset_hash = 0;
        bool reused = false;
        std::uint64_t counts[kNumOutcomes] = {};
    };
    std::vector<Group> groups;

    /// Sidecar state (loaded at most once per planner).
    bool sidecar_checked = false;
    TallyContents sidecar;
    std::uint64_t sidecar_dropped = 0;

    Impl(const fault::FaultInjector &injector_,
         const encore::EncoreReport &report_,
         const fault::CampaignConfig &config_, PlannerOptions options_)
        : injector(injector_),
          report(report_),
          config(config_),
          options(std::move(options_))
    {
    }

    const encore::RegionReport *
    regionReport(ir::RegionId id) const
    {
        if (id == ir::kInvalidRegion)
            return nullptr;
        for (const encore::RegionReport &entry : report.regions)
            if (entry.id == id)
                return &entry;
        return nullptr;
    }

    /// Hash of everything shared by every group fingerprint: program
    /// identity (caller key + entry/args + golden-run witnesses) and
    /// the fault-model parameters.
    std::uint64_t
    baseFingerprint() const
    {
        std::uint64_t h = fnv1a64("encore-tally-group-v1");
        h = fnv1a64Mix(options.program_key, h);
        h = fault::mixCampaignIdentity(h, injector, config);
        h = fnv1a64Mix(injector.golden().value_instrs, h);
        h = fnv1a64Mix(injector.golden().return_value, h);
        return h;
    }

    void
    prepare()
    {
        if (prepared)
            return;
        prepared = true;
        fault::validateCampaignConfig(config);
        const interp::RunResult &golden = injector.golden();
        if (golden.value_instrs == 0)
            fatal("campaign planner: the injector is not prepared "
                  "(no golden run)");

        // 1. Draw every trial up front — no execution needed. These are
        //    the draws run() executes.
        draws.reserve(config.trials);
        for (std::uint64_t t = 0; t < config.trials; ++t) {
            draws.push_back(
                fault::drawTrial(config, t, golden.value_instrs));
            if (draws.back().masked)
                ++masked_count;
        }

        // 2. Sorted unique fault sites for the attribution run.
        std::vector<std::uint64_t> targets;
        targets.reserve(draws.size() - masked_count);
        for (const fault::TrialDraw &draw : draws)
            if (!draw.masked)
                targets.push_back(draw.plan.target_value_index);
        std::sort(targets.begin(), targets.end());
        targets.erase(std::unique(targets.begin(), targets.end()),
                      targets.end());

        // 3. Attribution: one hooked golden-speed run maps each site
        //    to (function, region id).
        std::vector<AttributionHooks::Site> sites;
        if (!targets.empty()) {
            interp::Interpreter interp(injector.decodedModule());
            AttributionHooks hooks(interp, targets);
            interp.setHooks(&hooks);
            interp.setCaptureGlobals(false);
            interp.setMaxInstructions(golden.dyn_instrs + 10'000);
            const interp::RunResult run =
                interp.run(injector.entry(), injector.args());
            interp.setHooks(nullptr);
            if (!run.ok() || !hooks.complete() ||
                hooks.valueCount() != golden.value_instrs)
                fatal("campaign planner: attribution run diverged "
                      "from the golden run (internal error)");
            sites = hooks.sites();
        }

        // 4. Per-function instrumentation signatures and call-graph
        //    closures over the instrumented module.
        const ir::Module &module = injector.module();
        std::unordered_map<std::string, const ir::Function *> by_name;
        std::unordered_map<const ir::Function *, std::uint64_t>
            func_sig;
        for (const auto &func : module.functions()) {
            by_name[func->name()] = func.get();
            func_sig[func.get()] = canonicalFunctionSig(*func);
        }
        std::unordered_map<const ir::Function *, std::uint64_t>
            closure_sig;
        for (const auto &entry : func_sig) {
            const ir::Function *root = entry.first;
            // DFS over callee names; cycles terminate via `seen`.
            std::unordered_set<const ir::Function *> seen;
            std::vector<const ir::Function *> stack{root};
            seen.insert(root);
            while (!stack.empty()) {
                const ir::Function *cur = stack.back();
                stack.pop_back();
                for (const auto &block : cur->blocks())
                    for (const ir::Instruction &inst :
                         block->instructions()) {
                        if (inst.calleeName().empty())
                            continue;
                        const auto it =
                            by_name.find(inst.calleeName());
                        if (it == by_name.end() ||
                            seen.count(it->second))
                            continue;
                        seen.insert(it->second);
                        stack.push_back(it->second);
                    }
            }
            // Order-independent combination: sort reachable sigs by
            // function name.
            std::vector<std::pair<std::string, std::uint64_t>>
                members;
            members.reserve(seen.size());
            for (const ir::Function *f : seen)
                members.emplace_back(f->name(), func_sig[f]);
            std::sort(members.begin(), members.end());
            std::uint64_t h = fnv1a64("encore-closure-sig-v1");
            for (const auto &[name, sig] : members) {
                h = fnv1a64(name, h);
                h = fnv1a64Mix(sig, h);
            }
            closure_sig[root] = h;
        }

        // 5. Group construction, in first-encounter order over the
        //    ascending trial index (deterministic).
        struct KeyHash
        {
            std::size_t
            operator()(const std::tuple<const ir::Function *,
                                        ir::RegionId, bool> &k) const
            {
                return std::hash<const void *>()(std::get<0>(k)) ^
                       (static_cast<std::size_t>(std::get<1>(k))
                        << 1) ^
                       (std::get<2>(k) ? 0x9e3779b9u : 0u);
            }
        };
        std::unordered_map<
            std::tuple<const ir::Function *, ir::RegionId, bool>,
            std::size_t, KeyHash>
            index;
        const std::uint64_t base = baseFingerprint();
        for (std::uint64_t t = 0; t < draws.size(); ++t) {
            const fault::TrialDraw &draw = draws[t];
            if (draw.masked)
                continue;
            const auto site_it = std::lower_bound(
                targets.begin(), targets.end(),
                draw.plan.target_value_index);
            const AttributionHooks::Site &site =
                sites[static_cast<std::size_t>(site_it -
                                               targets.begin())];
            if (!site.func)
                fatal("campaign planner: fault site outside any "
                      "function (internal error)");
            const bool tail = draw.plan.target_value_index +
                                      config.trial.dmax + kTailSlack >=
                              golden.value_instrs;
            const auto key =
                std::make_tuple(site.func, site.region, tail);
            auto [it, inserted] =
                index.try_emplace(key, groups.size());
            if (inserted) {
                Group group;
                group.func = site.func;
                group.region = site.region;
                group.tail = tail;
                const encore::RegionReport *rr =
                    regionReport(site.region);
                if (rr) {
                    group.stratum =
                        rr->cls == RegionClass::Idempotent
                            ? kStratumIdempotent
                            : kStratumCheckpointed;
                } else {
                    group.stratum = kStratumUnprotected;
                }
                std::uint64_t h = base;
                h = fnv1a64(site.func->name(), h);
                h = fnv1a64Mix(closure_sig[site.func], h);
                if (rr) {
                    h = fnv1a64(std::string_view("@region"), h);
                    h = fnv1a64Mix(rr->header, h);
                    h = fnv1a64Mix(rr->num_blocks, h);
                } else {
                    h = fnv1a64(std::string_view("@unprotected"), h);
                }
                if (tail) {
                    h = fnv1a64(std::string_view("@tail"), h);
                    h = fnv1a64Mix(injector.moduleHash(), h);
                }
                group.fingerprint = h;
                groups.push_back(std::move(group));
            }
            groups[it->second].trials.push_back(t);
        }
        for (Group &group : groups) {
            std::uint64_t h = fnv1a64("encore-subset-v1");
            h = fnv1a64Mix(group.trials.size(), h);
            for (const std::uint64_t t : group.trials)
                h = fnv1a64Mix(t, h);
            group.subset_hash = h;
        }
    }

    /// Loads (or creates) the sidecar and marks reusable groups. Only
    /// a tally whose key AND subset witness both match folds in; any
    /// fingerprint slip therefore costs re-execution, never wrong
    /// numbers.
    void
    probeSidecar()
    {
        if (options.sidecar_path.empty() || sidecar_checked)
            return;
        // The reuse soundness argument (DESIGN.md §10) attributes a
        // trial to the function containing its anchor value
        // instruction. Non-anchored models strike at the *next*
        // branch/memory op, which may sit in a different function, so
        // the attribution — and with it the group fingerprint — would
        // be unsound.
        if (!config.trial.model->anchoredStrike())
            fatalf("campaign planner: compositional reuse requires an "
                   "anchored-strike fault model; '",
                   config.trial.model->name(),
                   "' is not one — rerun without --sidecar");
        // Tally records carry outcome counts only; folding them in
        // would silently drop the reused trials' replay cost.
        if (config.trial.detector->reportsReplayCost())
            fatalf("campaign planner: tally reuse does not account "
                   "replay cost; the '",
                   config.trial.detector->name(),
                   "' detector reports it — rerun without --sidecar");
        sidecar_checked = true;
        const std::string &path = options.sidecar_path;
        if (std::filesystem::exists(path)) {
            if (const auto err = readTallyStore(path, sidecar))
                fatal(*err);
            if (sidecar.dropped_bytes > 0)
                warn("tally table '" + path + "': dropped " +
                     std::to_string(sidecar.dropped_bytes) +
                     " torn/corrupt tail bytes; the affected groups "
                     "re-execute");
            sidecar_dropped = sidecar.dropped_bytes;
        } else {
            if (const auto err = createTallyStore(path))
                fatal(*err);
            sidecar.valid_bytes = kTallyStoreHeaderSize;
        }
        const auto latest = latestTallies(sidecar);
        for (Group &group : groups) {
            const auto it = latest.find(group.fingerprint);
            if (it == latest.end() ||
                it->second.subset_hash != group.subset_hash ||
                it->second.subset_count != group.trials.size())
                continue;
            group.reused = true;
            for (std::size_t i = 0; i < kNumOutcomes; ++i)
                group.counts[i] = it->second.counts[i];
        }
    }

    /// Executes the draws of `trials`. Each outcome also lands at its
    /// list position in `outcomes`, for the per-group and per-stratum
    /// tallies.
    fault::CampaignResult
    execute(const std::vector<std::uint64_t> &trials,
            std::vector<std::uint8_t> &outcomes) const
    {
        outcomes.assign(trials.size(), 0);
        return fault::runTrials(
            injector, config.jobs, trials.size(),
            [&](std::uint64_t i, interp::Interpreter &interp) {
                const fault::TrialResult result =
                    injector.runTrial(draws[trials[i]], config.trial,
                                      interp);
                outcomes[i] = static_cast<std::uint8_t>(result.outcome);
                return result;
            });
    }

    void
    fillPlanShape(PlanSummary &summary) const
    {
        summary.universe = config.trials;
        summary.masked_trials = masked_count;
        summary.groups = groups.size();
        summary.sidecar_dropped_bytes = sidecar_dropped;
        for (const Group &group : groups) {
            GroupSummary detail;
            detail.function = group.func->name();
            detail.protected_region =
                group.region != ir::kInvalidRegion;
            detail.tail = group.tail;
            detail.trials = group.trials.size();
            detail.reused = group.reused;
            summary.group_details.push_back(std::move(detail));
            if (!group.reused)
                continue;
            ++summary.groups_reused;
            summary.reused_trials += group.trials.size();
        }
    }

    /// Per-stratum universes (trial membership counts).
    void
    strataUniverses(std::uint64_t (&universe)[kNumStrata]) const
    {
        universe[kStratumMasked] = masked_count;
        for (const Group &group : groups)
            universe[group.stratum] += group.trials.size();
    }
};

CampaignPlanner::CampaignPlanner(
    const fault::FaultInjector &injector,
    const encore::EncoreReport &report,
    const fault::CampaignConfig &config, PlannerOptions options)
    : impl_(std::make_unique<Impl>(injector, report, config,
                                   std::move(options)))
{
}

CampaignPlanner::~CampaignPlanner() = default;

PlanSummary
CampaignPlanner::plan()
{
    impl_->prepare();
    impl_->probeSidecar();
    PlanSummary summary;
    impl_->fillPlanShape(summary);
    std::uint64_t universe[kNumStrata] = {};
    impl_->strataUniverses(universe);
    for (int s = 0; s < kNumStrata; ++s) {
        StratumSummary stratum;
        stratum.name = kStratumNames[s];
        stratum.universe = universe[s];
        summary.strata.push_back(std::move(stratum));
    }
    return summary;
}

PlanSummary
CampaignPlanner::run()
{
    impl_->prepare();
    impl_->probeSidecar();

    // Execution set: every trial of every non-reused group, ascending.
    std::vector<std::uint64_t> to_run;
    std::vector<std::uint32_t> group_of;
    for (std::uint32_t g = 0; g < impl_->groups.size(); ++g) {
        const Impl::Group &group = impl_->groups[g];
        if (group.reused)
            continue;
        for (const std::uint64_t t : group.trials) {
            to_run.push_back(t);
            group_of.push_back(g);
        }
    }

    std::vector<std::uint8_t> outcomes;
    const fault::CampaignResult executed =
        impl_->execute(to_run, outcomes);
    for (std::size_t i = 0; i < to_run.size(); ++i)
        ++impl_->groups[group_of[i]].counts[outcomes[i]];

    PlanSummary summary;
    impl_->fillPlanShape(summary);
    summary.executed = to_run.size();

    // Aggregate: masked draws + every group's tally — tally-identical
    // to the brute-force campaign by construction.
    summary.result
        .counts[static_cast<int>(fault::FaultOutcome::Masked)] +=
        impl_->masked_count;
    std::uint64_t stratum_universe[kNumStrata] = {};
    std::uint64_t stratum_covered[kNumStrata] = {};
    std::uint64_t stratum_sampled[kNumStrata] = {};
    impl_->strataUniverses(stratum_universe);
    stratum_covered[kStratumMasked] = impl_->masked_count;
    for (const Impl::Group &group : impl_->groups) {
        for (std::size_t i = 0; i < kNumOutcomes; ++i) {
            summary.result.counts[i] += group.counts[i];
            if (isCoveredOutcome(static_cast<fault::FaultOutcome>(i)))
                stratum_covered[group.stratum] += group.counts[i];
        }
        if (!group.reused)
            stratum_sampled[group.stratum] += group.trials.size();
    }
    summary.result.trials = impl_->config.trials;
    summary.result.replay_cost = executed.replay_cost;

    // Persist the freshly executed groups (last-wins append).
    if (!impl_->options.sidecar_path.empty()) {
        std::vector<TallyRecord> records;
        for (const Impl::Group &group : impl_->groups) {
            if (group.reused)
                continue;
            TallyRecord record;
            record.key = group.fingerprint;
            record.subset_hash = group.subset_hash;
            record.subset_count = group.trials.size();
            for (std::size_t i = 0; i < kNumOutcomes; ++i)
                record.counts[i] = group.counts[i];
            records.push_back(record);
        }
        if (!records.empty())
            if (const auto err = appendTallyRecords(
                    impl_->options.sidecar_path, impl_->sidecar,
                    records))
                warn(*err +
                     " (results are unaffected; the next sweep point "
                     "just re-executes these groups)");
    }

    std::uint64_t covered = 0;
    for (std::size_t i = 0; i < kNumOutcomes; ++i)
        if (isCoveredOutcome(static_cast<fault::FaultOutcome>(i)))
            covered += summary.result.counts[i];
    const Proportion ci = wilsonInterval(covered, summary.result.trials,
                                         confidenceZ(0.95));
    summary.coverage = ci.estimate;
    summary.low = ci.low;
    summary.high = ci.high;
    summary.ci_half = (ci.high - ci.low) / 2.0;

    for (int s = 0; s < kNumStrata; ++s) {
        StratumSummary stratum;
        stratum.name = kStratumNames[s];
        stratum.universe = stratum_universe[s];
        stratum.sampled = stratum_sampled[s];
        stratum.covered = stratum_covered[s];
        if (stratum.universe > 0)
            stratum.estimate =
                static_cast<double>(stratum.covered) /
                static_cast<double>(stratum.universe);
        summary.strata.push_back(std::move(stratum));
    }
    return summary;
}

std::string
formatPlanSummary(const PlanSummary &summary)
{
    std::ostringstream os;
    os << "planned campaign: universe " << summary.universe
       << " trials (masked " << summary.masked_trials
       << ", injectable "
       << summary.universe - summary.masked_trials << ")\n";
    os << "groups " << summary.groups << " (reused "
       << summary.groups_reused << " -> " << summary.reused_trials
       << " trials folded), executed " << summary.executed << "\n";
    os << "coverage " << formatPercent(summary.coverage, 2) << " +- "
       << formatPercent(summary.ci_half, 2) << " ["
       << formatPercent(summary.low, 2) << ", "
       << formatPercent(summary.high, 2) << "]\n";
    // run() tallies every trial of a (never empty) campaign, so its
    // stratum estimates are exact; plan() executes none, and an
    // unexecuted or empty stratum is bounded only by [0, 1].
    const bool exact = summary.result.trials > 0;
    for (const StratumSummary &stratum : summary.strata) {
        const bool known = exact && stratum.universe > 0;
        os << "stratum " << stratum.name << ": universe "
           << stratum.universe << " sampled " << stratum.sampled
           << " covered " << stratum.covered << " estimate "
           << formatPercent(stratum.estimate, 2) << " ["
           << formatPercent(known ? stratum.estimate : 0.0, 2) << ", "
           << formatPercent(known ? stratum.estimate : 1.0, 2) << "]"
           << (exact ? " exact" : "") << "\n";
    }
    return os.str();
}

} // namespace encore::campaign
