#include "fault/injector.h"

#include <algorithm>
#include <memory>
#include <set>

#include "ir/printer.h"
#include "support/checksum.h"
#include "support/diagnostics.h"
#include "support/thread_pool.h"

namespace encore::fault {

std::string_view
outcomeName(FaultOutcome outcome)
{
    switch (outcome) {
      case FaultOutcome::Masked:
        return "masked";
      case FaultOutcome::RecoveredIdempotent:
        return "recovered-idempotent";
      case FaultOutcome::RecoveredCheckpoint:
        return "recovered-checkpoint";
      case FaultOutcome::NotRecoverable:
        return "not-recoverable";
      case FaultOutcome::RecoveryFailed:
        return "recovery-failed";
      case FaultOutcome::Benign:
        return "benign";
      case FaultOutcome::SilentCorruption:
        return "silent-corruption";
      default:
        return "?";
    }
}

void
validateCampaignConfig(const CampaignConfig &config)
{
    if (config.trials == 0)
        fatal("campaign config: trials must be > 0");
    if (!(config.masking_rate >= 0.0 && config.masking_rate <= 1.0))
        fatalf("campaign config: masking_rate must be in [0, 1], got ",
               config.masking_rate);
    if (config.trial.dmax == 0)
        fatal("campaign config: dmax must be > 0 dynamic instructions");
}

TrialDraw
drawTrial(const CampaignConfig &config, std::uint64_t trial,
          std::uint64_t golden_value_instrs)
{
    // Everything comes from trial t's own stream, so its draw is
    // independent of every other trial and of the thread (or process)
    // that runs it. Model before detector: for the default pair this
    // is the historical (target, bit, latency) order.
    TrialDraw draw;
    Rng rng = Rng::forStream(config.seed, trial);
    if (config.model_masking && rng.chance(config.masking_rate)) {
        draw.masked = true;
        return draw;
    }
    draw.plan = config.trial.model->draw(rng, golden_value_instrs);
    draw.detection = config.trial.detector->draw(rng, config.trial.dmax);
    return draw;
}

namespace {

/**
 * The per-trial hook: executes one drawn InjectionPlan (register-bit
 * flips at a chosen value-producing instruction, a redirected branch,
 * or a memory-bus fault at the first load/store past the anchor), then
 * fires detection per the drawn DetectionPlan — after a latency under
 * the analytical detector, or at the next absolute window boundary
 * under the replay detector.
 *
 * The hook also tracks the corruption's dataflow (registers within the
 * current activation plus memory words written with tainted data).
 * Under the analytical detector, when a tainted value is about to
 * steer a branch or address a memory access, detection fires
 * immediately — the paper's §4.3 assumption that control and address
 * faults exhibit highly visible symptoms and are "typically detected
 * before they propagate to memory and/or divert control flow". The
 * replay detector instead lets symptoms run (latching a sticky
 * divergence flag) until its window's replay-and-diff would expose
 * them. Runtime errors (wild pointers, division by zero) are treated
 * as immediate symptoms under both.
 */
class TrialHooks : public interp::ExecHooks
{
  public:
    /// The hooks are armed at the plan's anchor,
    /// `plan.target_value_index` (Interpreter::setHooks). Before the
    /// anchor they would be pure pass-throughs, so skipping the prefix
    /// callbacks changes nothing. (Every model anchors on a value
    /// index, so this holds for all of them: a branch/memory strike
    /// happens at the first matching site *after* the anchor value
    /// instruction executes.)
    TrialHooks(interp::Interpreter &interp,
               const models::InjectionPlan &plan,
               const models::DetectionPlan &detection)
        : interp_(interp), plan_(plan), detection_(detection)
    {
    }

    bool
    needsUnfusedDispatch() const override
    {
        // Branch/memory strikes ride on filter points that fire only
        // in unfused dispatch.
        return plan_.kind != models::InjectionPlan::Kind::RegFlip;
    }

    std::uint64_t
    filterResult(const ir::Instruction &inst, std::uint64_t dyn_index,
                 std::uint64_t value) override
    {
        if (!injected_) {
            // The interpreter counts a value before filtering it.
            if (plan_.kind != models::InjectionPlan::Kind::RegFlip ||
                interp_.valueCount() - 1 != plan_.target_value_index) {
                current_load_tainted_ = false;
                return value;
            }
            markInjected(dyn_index);
            if (inst.hasDest())
                taintReg(inst.dest());
            current_load_tainted_ = false;
            return value ^ plan_.xor_mask;
        }

        // Taint propagation: the destination is corrupt when any
        // register source is, or (for loads) when the loaded word was
        // written with tainted data. When no register taint is live and
        // the load was clean, nothing can propagate and the dest
        // untaint is a no-op — skip the operand walk entirely. This is
        // the steady state for the whole post-rollback tail of a trial.
        if (tainted_regs_.empty() && !current_load_tainted_)
            return value;
        if (inst.hasDest()) {
            bool src_tainted = current_load_tainted_;
            const int n = ir::opcodeNumOperands(inst.opcode());
            for (int i = 0; i < n; ++i) {
                const ir::Operand &op =
                    i == 0 ? inst.a() : i == 1 ? inst.b() : inst.c();
                if (op.isReg() && regTainted(op.reg))
                    src_tainted = true;
            }
            if (src_tainted)
                taintReg(inst.dest());
            else
                untaintReg(inst.dest());
        }
        current_load_tainted_ = false;
        return value;
    }

    bool
    shouldTriggerDetection(const ir::Instruction &next,
                           std::uint64_t dyn_index) override
    {
        if (!injected_ || detected_)
            return false;
        if (detection_.kind ==
            models::DetectionPlan::Kind::ReplayWindow) {
            // Replay detection has no symptom channel: errors run
            // free (latching the divergence flag) until the window's
            // replay-and-diff would expose them at the boundary.
            if (dyn_index < detect_at_) {
                if (!diverged_ && isSymptomatic(next))
                    diverged_ = true;
                return false;
            }
            const bool visible = diverged_ || !tainted_regs_.empty() ||
                                 !tainted_words_.empty() ||
                                 current_load_tainted_;
            if (!visible) {
                // A clean diff: no taint anywhere and control never
                // diverged, so no later window can turn dirty either —
                // stand the watch down. (Cost model: a cheap signature
                // compare flags the window; the full replay+diff — the
                // cost charged below — runs only on a mismatch, so a
                // clean window charges nothing.)
                detect_at_ = ~0ULL;
                return false;
            }
            replay_cost_ += detection_.window;
            noteDetectionPoint();
            return true;
        }
        if (dyn_index < detect_at_ && !isSymptomatic(next))
            return false;
        noteDetectionPoint();
        return true;
    }

    void
    filterBranchTarget(const ir::Instruction &inst, std::uint32_t &target,
                       std::uint32_t num_blocks,
                       std::uint64_t dyn_index) override
    {
        (void)inst;
        if (injected_ ||
            plan_.kind != models::InjectionPlan::Kind::BranchRedirect)
            return;
        if (interp_.valueCount() <= plan_.target_value_index)
            return;
        // A single-block function has no wrong block to land in; the
        // strike slides to the next branch in a bigger function.
        if (num_blocks < 2)
            return;
        std::uint32_t wrong = static_cast<std::uint32_t>(
            plan_.selector % (num_blocks - 1));
        if (wrong >= target)
            ++wrong;
        markInjected(dyn_index);
        // Wrong-path execution is divergence by definition — a replay
        // diff of this window can only come back dirty.
        diverged_ = true;
        target = wrong;
    }

    std::uint64_t
    filterMemoryOp(const ir::Instruction &inst, bool is_store,
                   ir::ObjectId object, std::uint32_t &offset,
                   std::uint64_t dyn_index) override
    {
        (void)inst;
        (void)object;
        if (injected_ ||
            plan_.kind != models::InjectionPlan::Kind::MemBus)
            return 0;
        if (interp_.valueCount() <= plan_.target_value_index)
            return 0;
        markInjected(dyn_index);
        // Selector: bit 0 picks address vs data; bits 1.. give the bit
        // index (&31 for the 32-bit word offset, 0..63 for the data
        // word). The interpreter re-validates a rewritten offset — an
        // address fault leaving the object surfaces as a runtime
        // error; an in-bounds one touches the wrong word.
        mem_fault_pending_ = true;
        const bool addr_fault = (plan_.selector & 1) != 0;
        const auto bit =
            static_cast<std::uint32_t>((plan_.selector >> 1) & 63);
        if (!is_store) {
            // Either way the loaded value is wrong; the load's own
            // filterResult propagation taints the destination.
            current_load_tainted_ = true;
        }
        if (addr_fault) {
            offset ^= 1u << (bit & 31);
            return 0;
        }
        return 1ULL << bit;
    }

    void
    onMemoryAccess(const ir::Instruction &inst, ir::ObjectId object,
                   std::uint32_t offset, bool is_store,
                   std::uint64_t dyn_index) override
    {
        (void)dyn_index;
        if (!injected_)
            return;
        if (mem_fault_pending_) {
            // This is the access the memory-bus fault just corrupted:
            // a store wrote a wrong word (or the right word to a wrong
            // place) — taint it; a corrupted load already forced
            // current_load_tainted_ in filterMemoryOp. Early-return so
            // the normal load path below can't clear the forced flag.
            mem_fault_pending_ = false;
            if (is_store)
                tainted_words_.insert({object, offset});
            return;
        }
        // With no live taint anywhere, a store can't taint a word and a
        // load can't pick taint up — both set operations are no-ops.
        if (tainted_regs_.empty() && tainted_words_.empty()) {
            if (!is_store)
                current_load_tainted_ = false;
            return;
        }
        if (is_store) {
            const bool tainted =
                inst.a().isReg() && regTainted(inst.a().reg);
            if (tainted)
                tainted_words_.insert({object, offset});
            else
                tainted_words_.erase({object, offset});
        } else {
            current_load_tainted_ =
                tainted_words_.count({object, offset}) > 0;
        }
    }

    bool
    onRuntimeError(std::uint64_t dyn_index) override
    {
        if (!injected_)
            return false; // a real program bug: surface it
        if (error_recoveries_ >= kMaxErrorRecoveries)
            return false; // crash-looping: give up on the trial
        ++error_recoveries_;
        if (!detected_) {
            if (detection_.kind ==
                models::DetectionPlan::Kind::ReplayWindow) {
                // A hard error pins the dirty region to the partial
                // window executed so far — the replay only re-runs up
                // to the crash point.
                replay_cost_ += dyn_index % detection_.window;
            }
            noteDetectionPoint();
        }
        return true; // treat as an immediately detected symptom
    }

    void
    onDetectionHandled(interp::DetectionResponse response) override
    {
        if (response == interp::DetectionResponse::RolledBack) {
            rolled_back_ = true;
            // A rollback restores the checkpointed state; the corrupted
            // values are either restored or recomputed, so the taint is
            // dissolved.
            tainted_regs_.clear();
            tainted_words_.clear();
            current_load_tainted_ = false;
            diverged_ = false;
            mem_fault_pending_ = false;
            if (!sameInstance()) {
                // Detection fired after control left the faulty region
                // instance (or the fault struck unprotected code): the
                // classification is Not Recoverable no matter how the
                // run would end — Ok, Error, and InstructionLimit all
                // map there, and no further detection can fire. The
                // rolled-back state was corrupted before region entry,
                // so a golden resync could never match either; stop
                // the run instead of executing the rest of the
                // program for an already-decided outcome.
                interp_.requestTrialStop();
                return;
            }
            // From here on these hooks are pure pass-throughs:
            // detection fired already, filterResult never changes a
            // value past the injection, and the golden run has no
            // runtime errors once the state converges. That is exactly
            // the contract armGoldenResync requires — the moment the
            // live state equals a golden snapshot, the rest of the run
            // is the golden suffix. Pass-through also means the
            // per-instruction callbacks are silent no-ops, so drop
            // them from the dispatch loop entirely: the rollback
            // replay ahead is where most of the trial's instructions
            // run, and it proceeds hook-free and fused (onRuntimeError
            // stays live for the crash-loop guard).
            interp_.armGoldenResync();
            interp_.quiesceHooks();
        }
    }

    bool injected() const { return injected_; }
    bool detected() const { return detected_; }
    bool rolledBack() const { return rolled_back_; }
    /// Replayed dynamic instructions charged to this trial, saturated
    /// to the 32-bit auxiliary slot the trial store persists.
    std::uint32_t
    replayCost() const
    {
        return replay_cost_ > 0xffffffffULL
                   ? 0xffffffffu
                   : static_cast<std::uint32_t>(replay_cost_);
    }
    /// True when detection fired in the same region instance the fault
    /// struck — the paper's recoverability criterion.
    bool
    sameInstance() const
    {
        return detected_ && fault_token_ != 0 &&
               detection_token_ == fault_token_;
    }
    ir::RegionId faultRegion() const { return fault_region_; }

  private:
    void
    markInjected(std::uint64_t dyn_index)
    {
        injected_ = true;
        fault_dyn_ = dyn_index;
        fault_token_ = interp_.currentRegionToken();
        fault_region_ = interp_.currentRegionId();
        detect_at_ =
            detection_.kind == models::DetectionPlan::Kind::Latency
                ? dyn_index + detection_.latency
                // Replay checks at absolute window boundaries, so the
                // detection point does not depend on where execution
                // started — snapshot-seeked and full-prefix trials
                // agree by construction.
                : ((dyn_index / detection_.window) + 1) *
                      detection_.window;
    }

    void
    noteDetectionPoint()
    {
        detected_ = true;
        detection_token_ = interp_.currentRegionToken();
    }

    void
    taintReg(ir::RegId reg)
    {
        tainted_regs_.insert({interp_.frameDepth(), reg});
    }

    void
    untaintReg(ir::RegId reg)
    {
        tainted_regs_.erase({interp_.frameDepth(), reg});
    }

    bool
    regTainted(ir::RegId reg) const
    {
        return tainted_regs_.count({interp_.frameDepth(), reg}) > 0;
    }

    /// True when the upcoming instruction would consume a corrupted
    /// value as a branch condition or an address component — the
    /// highly visible symptoms low-cost detectors catch quickly.
    bool
    isSymptomatic(const ir::Instruction &next) const
    {
        if (tainted_regs_.empty())
            return false;
        if (next.opcode() == ir::Opcode::Br && next.a().isReg() &&
            regTainted(next.a().reg))
            return true;
        if (ir::opcodeHasAddress(next.opcode())) {
            const ir::AddrExpr &addr = next.addr();
            if (addr.isRegBase() && regTainted(addr.base_reg))
                return true;
            if (addr.offset.isReg() && regTainted(addr.offset.reg))
                return true;
        }
        return false;
    }

    static constexpr int kMaxErrorRecoveries = 3;

    interp::Interpreter &interp_;
    models::InjectionPlan plan_;
    models::DetectionPlan detection_;

    bool injected_ = false;
    bool detected_ = false;
    bool rolled_back_ = false;
    int error_recoveries_ = 0;
    std::uint64_t fault_dyn_ = 0;
    std::uint64_t fault_token_ = 0;
    ir::RegionId fault_region_ = ir::kInvalidRegion;
    std::uint64_t detect_at_ = 0;
    std::uint64_t detection_token_ = 0;
    std::set<std::pair<std::size_t, ir::RegId>> tainted_regs_;
    std::set<std::pair<ir::ObjectId, std::uint32_t>> tainted_words_;
    bool current_load_tainted_ = false;
    /// Sticky control-divergence flag for the replay detector: set at
    /// a branch redirect and when a tainted value is about to steer
    /// control or address memory.
    bool diverged_ = false;
    /// Handshake between filterMemoryOp (which decides the memory-bus
    /// strike) and the onMemoryAccess that immediately follows it for
    /// the same access (which taints the actually-touched word).
    bool mem_fault_pending_ = false;
    std::uint64_t replay_cost_ = 0;
};

} // namespace

FaultOutcome
classifyTrialOutcome(const TrialObservation &obs)
{
    if (!obs.injected) {
        // The run ended before reaching the target instruction — can
        // happen when an unrelated code path executes fewer value
        // instructions than the golden run. Judged by output alone.
        return obs.status == interp::RunResult::Status::Ok &&
                       obs.same_output
                   ? FaultOutcome::Benign
                   : FaultOutcome::SilentCorruption;
    }

    switch (obs.status) {
      case interp::RunResult::Status::DetectedUnrecoverable:
        return FaultOutcome::NotRecoverable;
      case interp::RunResult::Status::Error:
      case interp::RunResult::Status::InstructionLimit:
        // Crash-looping or runaway corrupted executions (the trial
        // budget cut them off): not recoverable.
        return FaultOutcome::NotRecoverable;
      case interp::RunResult::Status::Ok:
        break;
    }

    if (!obs.detected) {
        // Program finished before the detection latency elapsed.
        return obs.same_output ? FaultOutcome::Benign
                               : FaultOutcome::SilentCorruption;
    }

    if (!obs.same_instance) {
        // Detected after control left the faulty region instance (or
        // the fault struck unprotected code): the paper's
        // Not Recoverable case, regardless of how the lucky rollback
        // turned out.
        return FaultOutcome::NotRecoverable;
    }

    if (!obs.same_output)
        return FaultOutcome::RecoveryFailed;

    return obs.region_class == RegionClass::Idempotent
               ? FaultOutcome::RecoveredIdempotent
               : FaultOutcome::RecoveredCheckpoint;
}

FaultInjector::FaultInjector(const ir::Module &module,
                             const EncoreReport &report,
                             interp::EngineKind engine)
    : module_(module),
      decoded_(
          std::make_shared<const interp::DecodedModule>(module, engine))
{
    for (const RegionReport &region : report.regions) {
        if (region.id == ir::kInvalidRegion)
            continue;
        if (region.id >= region_class_.size())
            region_class_.resize(region.id + 1,
                                 RegionClass::NonIdempotent);
        region_class_[region.id] = region.cls;
    }
}

std::uint64_t
FaultInjector::moduleHash() const
{
    std::call_once(module_hash_once_, [this] {
        module_hash_ = fnv1a64(ir::moduleToString(module_));
    });
    return module_hash_;
}

RegionClass
FaultInjector::regionClassOf(ir::RegionId id) const
{
    // Ids outside the table (including kInvalidRegion) fall back to
    // NonIdempotent, as the old map lookup did for missing entries.
    return id < region_class_.size() ? region_class_[id]
                                     : RegionClass::NonIdempotent;
}

void
FaultInjector::configureSnapshots(const interp::SnapshotConfig &config)
{
    snap_config_ = config;
}

interp::SnapshotStats
FaultInjector::snapshotStats() const
{
    return snapshots_ ? snapshots_->stats() : interp::SnapshotStats{};
}

bool
FaultInjector::prepare(const std::string &entry,
                       const std::vector<std::uint64_t> &args)
{
    entry_ = entry;
    args_ = args;
    snapshots_.reset();
    interp::Interpreter interp(decoded_);
    if (snap_config_.enabled && snap_config_.stride > 0) {
        // The golden run doubles as the snapshot recording run: dirty
        // tracking observes memory deltas and the interpreter captures
        // into the store at every stride barrier. Recording only reads
        // execution state, so the golden RunResult is bit-identical to
        // a recording-free run.
        auto store =
            std::make_shared<interp::SnapshotStore>(snap_config_);
        interp.memoryRef().enableDirtyTracking();
        interp.setSnapshotRecorder(store.get());
        golden_ = interp.run(entry, args);
        interp.setSnapshotRecorder(nullptr);
        interp.memoryRef().disableDirtyTracking();
        if (golden_.ok() && store->size() > 0) {
            // The golden run stays fused and hook-free; the entry
            // anchors come from short recording replays of the long
            // region instances it crossed.
            store->recordEntryAnchors(interp, entry, args);
            snapshots_ = std::move(store);
        }
    } else {
        golden_ = interp.run(entry, args);
    }
    prepared_ = golden_.ok();
    if (!prepared_)
        snapshots_.reset();
    return prepared_;
}

TrialResult
FaultInjector::runTrial(const TrialDraw &draw,
                        interp::Interpreter &interp) const
{
    if (draw.masked)
        return {};
    ENCORE_ASSERT(prepared_, "runTrial before a successful prepare()");
    const models::InjectionPlan &plan = draw.plan;

    // Seek: the latest golden-run snapshot at-or-before the anchor.
    // Pre-injection the trial hooks are pure pass-throughs (the
    // branch/memory strike models fire only *after* the anchor value
    // instruction executes), so the trial's own prefix is
    // bit-identical to the golden run's — the restored state is
    // exactly what re-executing would produce.
    const interp::Snapshot *snap =
        snapshots_
            ? snapshots_->findAtOrBefore(plan.target_value_index)
            : nullptr;

    // Keep dirty tracking on across a worker's trials: restore() then
    // rewrites only pages dirtied since the previous restore (or whose
    // pool refs differ between the two snapshots), and the resync
    // state test skips clean shared-ref pages the same way — both drop
    // from O(live memory) to O(changed pages) per trial. Idempotent
    // after the first trial on this interpreter.
    if (snapshots_)
        interp.memoryRef().enableDirtyTracking();
    else
        interp.memoryRef().disableDirtyTracking();

    // The trial rides entirely on the hook interface (including memory
    // taint via ExecHooks::onMemoryAccess). The hooks arm at the
    // anchor: the stretch from the snapshot up to it runs hook-free
    // and fused, and so does the post-rollback replay once the hooks
    // quiesce, leaving only the fault window hooked.
    TrialHooks hooks(interp, plan, draw.detection);
    interp.setHooks(&hooks, plan.target_value_index);
    // Trials never read RunResult::globals — output equality is checked
    // in place against the golden snapshot, saving a full copy of
    // global memory per trial.
    interp.setCaptureGlobals(false);
    // The budget counts *total* dynamic instructions including the
    // restored prefix (resumeRun restores dyn_count), so the cutoff is
    // the same whether or not the prefix was re-executed.
    interp.setMaxInstructions(golden_.dyn_instrs * kRunBudgetFactor +
                              10'000);
    // The same store supplies resync anchors on the way *out*: after a
    // successful rollback the hooks arm a watch, and the trial
    // fast-forwards the moment its live state equals the golden state
    // at the rolled-back region's entry or, failing that, a golden
    // snapshot past the injection point (see
    // TrialHooks::onDetectionHandled).
    interp.setResyncSource(snapshots_.get(), golden_.dyn_instrs);

    const interp::RunResult result =
        snap ? interp.resumeRun(*snap, snapshots_->pool())
             : interp.run(entry_, args_);
    interp.setHooks(nullptr);
    interp.setResyncSource(nullptr, 0);

    TrialObservation obs;
    obs.status = result.status;
    obs.injected = hooks.injected();
    obs.detected = hooks.detected();
    obs.same_instance = hooks.sameInstance();
    obs.region_class = regionClassOf(hooks.faultRegion());
    // Output equality is a full global-memory compare; only legs that
    // classify by output pay for it.
    if (result.golden_resync) {
        // The run was cut short because the live state matched a
        // golden state on everything the rest of the run reads: the
        // remainder is the golden suffix by determinism, so the final
        // state — return value and global memory — is the golden one.
        // Adopt it without executing.
        obs.same_output = true;
        snapshots_->noteResync(result.entry_resync);
    } else if (obs.status == interp::RunResult::Status::Ok &&
               (!obs.injected || !obs.detected || obs.same_instance)) {
        obs.same_output =
            result.return_value == golden_.return_value &&
            interp.globalsMatch(golden_.globals);
    }
    return {classifyTrialOutcome(obs), hooks.replayCost()};
}

FaultOutcome
FaultInjector::runCampaignTrial(std::uint64_t trial,
                                const CampaignConfig &config,
                                interp::Interpreter &interp,
                                std::uint32_t &aux) const
{
    const TrialResult result =
        runTrial(drawTrial(config, trial, golden_.value_instrs), interp);
    aux = result.aux;
    return result.outcome;
}

CampaignResult
FaultInjector::runCampaign(const CampaignConfig &config) const
{
    validateCampaignConfig(config);
    return runTrials(*this, config.jobs, config.trials,
                     [&](std::uint64_t t, interp::Interpreter &interp) {
                         return runTrial(
                             drawTrial(config, t, golden_.value_instrs),
                             interp);
                     });
}

CampaignResult
runTrials(
    const FaultInjector &injector, std::size_t jobs, std::uint64_t n,
    const std::function<TrialResult(std::uint64_t, interp::Interpreter &)>
        &body)
{
    const ThreadPool pool(jobs);
    // One tally and one pooled interpreter per slot parallelFor can
    // use, merged below: no shared writes on the trial path, and each
    // worker's frames / undo logs / memory image are recycled across
    // its trials (constructed lazily so idle slots cost nothing). No
    // slot at or above min(slotCount(), n) is ever used, so an absurd
    // --jobs costs nothing either.
    const std::size_t slots = static_cast<std::size_t>(
        std::min<std::uint64_t>(pool.slotCount(), n));
    std::vector<CampaignResult> tallies(slots);
    std::vector<std::unique_ptr<interp::Interpreter>> interps(slots);
    pool.parallelFor(n, [&](std::uint64_t i, std::size_t slot) {
        if (!interps[slot])
            interps[slot] = std::make_unique<interp::Interpreter>(
                injector.decodedModule());
        tallies[slot].add(body(i, *interps[slot]));
    });

    CampaignResult result;
    for (const CampaignResult &tally : tallies)
        result.merge(tally);
    return result;
}

std::uint64_t
mixCampaignIdentity(std::uint64_t hash, const FaultInjector &injector,
                    const CampaignConfig &config)
{
    hash = fnv1a64(injector.entry(), hash);
    hash = fnv1a64Mix(injector.args().size(), hash);
    for (const std::uint64_t arg : injector.args())
        hash = fnv1a64Mix(arg, hash);
    hash = fnv1a64Mix(config.seed, hash);
    hash = fnv1a64Mix(config.trials, hash);
    hash = fnv1a64Mix(config.trial.dmax, hash);
    // The budget factor was once a setting hashed as a double; hashing
    // the same 8 bytes keeps existing fingerprints and sidecar keys.
    const double budget_factor = kRunBudgetFactor;
    hash = fnv1a64(&budget_factor, sizeof budget_factor, hash);
    hash = fnv1a64(&config.masking_rate, sizeof config.masking_rate, hash);
    hash = fnv1a64Mix(config.model_masking ? 1 : 0, hash);
    hash = fnv1a64(config.trial.model->name(), hash);
    hash = fnv1a64(config.trial.detector->name(), hash);
    return hash;
}

} // namespace encore::fault
