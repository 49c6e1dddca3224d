/**
 * @file
 * Differential guard for the snapshot tier: trial results must be
 * bit-identical with snapshots on and off, for every workload in the
 * suite, per trial and in aggregate, sequentially and across threads.
 *
 * This is the enforcement of the tier's one hard invariant. A trial's
 * pre-injection hooks are pure pass-throughs, so its prefix is the
 * golden run and a golden-run snapshot is a valid trial prefix; if
 * any piece of interpreter state were missing from the snapshot
 * (a counter, a recovery-log entry, a dirty page), some trial here
 * would diverge and the comparison below would catch it on real
 * region structures rather than toy programs.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "encore/pipeline.h"
#include "fault/injector.h"
#include "fault/models/fault_model.h"
#include "interp/interpreter.h"
#include "ir/parser.h"
#include "workloads/workload.h"

namespace encore {
namespace {

struct Prepared
{
    std::unique_ptr<ir::Module> module;
    EncoreReport report;
};

Prepared
runPipeline(const workloads::Workload &w)
{
    Prepared p;
    p.module = w.build();
    EncoreConfig config;
    for (const std::string &opaque : w.opaque)
        config.opaque_functions.insert(opaque);
    EncorePipeline pipeline(*p.module, config);
    p.report = pipeline.run({RunSpec{w.entry, w.train_args}});
    return p;
}

/// Campaign trial `t` of `cc`, drawn and executed on `interp`.
fault::TrialResult
runTrial(const fault::FaultInjector &injector,
         const fault::CampaignConfig &cc, std::uint64_t t,
         interp::Interpreter &interp)
{
    return injector.runTrial(
        fault::drawTrial(cc, t, injector.golden().value_instrs), interp);
}

TEST(SnapshotDifferential, AllWorkloadsBitIdenticalOnAndOff)
{
    // The default stride, so the tier — prefix seek, region-entry
    // anchors and snapshot resync — runs as every campaign runs it,
    // under every registered fault model and detector.
    interp::SnapshotConfig snap_on;
    interp::SnapshotConfig snap_off;
    snap_off.enabled = false;

    std::size_t with_snapshots = 0;
    std::uint64_t entry_resyncs = 0;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        SCOPED_TRACE(w.name);
        const Prepared p = runPipeline(w);

        fault::FaultInjector off(*p.module, p.report);
        off.configureSnapshots(snap_off);
        ASSERT_TRUE(off.prepare(w.entry, w.train_args));
        ASSERT_FALSE(off.snapshotsActive());

        fault::FaultInjector on(*p.module, p.report);
        on.configureSnapshots(snap_on);
        ASSERT_TRUE(on.prepare(w.entry, w.train_args));
        if (on.snapshotsActive())
            ++with_snapshots;

        // Recording snapshots and anchors must not perturb the golden
        // run itself.
        EXPECT_EQ(on.golden().return_value, off.golden().return_value);
        EXPECT_EQ(on.golden().dyn_instrs, off.golden().dyn_instrs);
        EXPECT_EQ(on.golden().value_instrs, off.golden().value_instrs);

        interp::Interpreter interp_on(on.decodedModule());
        interp::Interpreter interp_off(off.decodedModule());
        for (const std::string_view model :
             fault::models::faultModelNames()) {
            for (const std::string_view detector :
                 fault::models::detectorNames()) {
                SCOPED_TRACE(std::string(model) + " + " +
                             std::string(detector));
                fault::CampaignConfig cc;
                cc.trials = 12;
                cc.seed = 20240817;
                cc.trial.dmax = 100;
                cc.trial.model = fault::models::findFaultModel(model);
                cc.trial.detector = fault::models::findDetector(detector);
                cc.model_masking = false; // every trial takes the tier

                // Per-trial: same seed stream, same result (replay
                // cost included), trial by trial.
                fault::CampaignResult b;
                for (std::uint64_t t = 0; t < cc.trials; ++t) {
                    const fault::TrialResult off_result =
                        runTrial(off, cc, t, interp_off);
                    EXPECT_EQ(runTrial(on, cc, t, interp_on), off_result)
                        << "trial " << t;
                    b.add(off_result);
                }

                // Aggregate: the tier's campaign, sequentially and
                // across a thread pool (workers share the store
                // read-only), tallies exactly the tier-off trials.
                for (const std::size_t jobs : {1u, 4u}) {
                    cc.jobs = jobs;
                    const fault::CampaignResult a = on.runCampaign(cc);
                    ASSERT_EQ(a.trials, b.trials);
                    EXPECT_EQ(a.replay_cost, b.replay_cost)
                        << "jobs " << jobs;
                    for (int i = 0;
                         i <
                         static_cast<int>(fault::FaultOutcome::NumOutcomes);
                         ++i)
                        EXPECT_EQ(a.counts[i], b.counts[i])
                            << "jobs " << jobs << ", outcome "
                            << outcomeName(
                                   static_cast<fault::FaultOutcome>(i));
                }
            }
        }

        if (on.snapshotsActive()) {
            // Every non-masked trial above sought the store once.
            const interp::SnapshotStats stats = on.snapshotStats();
            EXPECT_GT(stats.count, 0u);
            EXPECT_GT(stats.hits + stats.misses, 0u);
            EXPECT_LE(stats.bytes, snap_on.byte_budget);
            EXPECT_LE(stats.entry_resyncs, stats.resyncs);
            entry_resyncs += stats.entry_resyncs;
        }
    }

    // The differential only bites if the tier actually ran: most of
    // the suite must have crossed at least one barrier, and some
    // trials must have converged at a region entry.
    EXPECT_GT(with_snapshots,
              workloads::allWorkloads().size() / 2);
    EXPECT_GT(entry_resyncs, 0u);
}

TEST(SnapshotDifferential, CfBranchModelBitIdenticalOnAndOff)
{
    // The cf-branch model anchors on a value-instruction index (so the
    // snapshot seek is still valid) but strikes later, at the first
    // taken branch after the anchor. A restored trial therefore
    // executes a stretch of golden instructions between the snapshot
    // barrier and the strike site before redirecting control; if the
    // restore missed any interpreter state, that resync would evaluate
    // a branch differently and the redirect would land elsewhere.
    // Under the replay detector the trial's replay cost must match too.
    const fault::models::FaultModel *model =
        fault::models::findFaultModel("cf-branch");
    ASSERT_NE(model, nullptr);

    interp::SnapshotConfig snap_on;
    snap_on.stride = 2048;
    interp::SnapshotConfig snap_off;
    snap_off.enabled = false;

    for (const char *name : {"rawcaudio", "pegwitdec", "mpeg2dec"}) {
        SCOPED_TRACE(name);
        const workloads::Workload *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr);
        const Prepared p = runPipeline(*w);

        fault::FaultInjector off(*p.module, p.report);
        off.configureSnapshots(snap_off);
        ASSERT_TRUE(off.prepare(w->entry, w->train_args));

        fault::FaultInjector on(*p.module, p.report);
        on.configureSnapshots(snap_on);
        ASSERT_TRUE(on.prepare(w->entry, w->train_args));

        for (const char *detector : {"analytic", "replay"}) {
            SCOPED_TRACE(detector);
            fault::CampaignConfig cc;
            cc.trials = 25;
            cc.seed = 20260808;
            cc.trial.dmax = 100;
            cc.trial.model = model;
            cc.trial.detector = fault::models::findDetector(detector);
            ASSERT_NE(cc.trial.detector, nullptr);
            cc.model_masking = false; // every trial takes the restore path

            interp::Interpreter interp_on(on.decodedModule());
            interp::Interpreter interp_off(off.decodedModule());
            for (std::uint64_t t = 0; t < cc.trials; ++t)
                EXPECT_EQ(runTrial(on, cc, t, interp_on),
                          runTrial(off, cc, t, interp_off))
                    << "trial " << t;

            for (const std::size_t jobs : {1u, 4u}) {
                cc.jobs = jobs;
                const fault::CampaignResult a = on.runCampaign(cc);
                const fault::CampaignResult b = off.runCampaign(cc);
                ASSERT_EQ(a.trials, b.trials);
                EXPECT_EQ(a.replay_cost, b.replay_cost) << "jobs " << jobs;
                for (int i = 0;
                     i <
                     static_cast<int>(fault::FaultOutcome::NumOutcomes);
                     ++i)
                    EXPECT_EQ(a.counts[i], b.counts[i])
                        << "jobs " << jobs << ", outcome "
                        << outcomeName(
                               static_cast<fault::FaultOutcome>(i));
            }
        }
    }
}

TEST(SnapshotDifferential, ResyncIsEngineIdentical)
{
    // Golden resync fires only where the live cursor sits on the
    // anchor's instruction at a loop top. The decoded engine stops at
    // every instruction, so its resync count is the ground truth; a
    // fused sequence that ran across the anchor would silently drop
    // resyncs — the trial then runs to its end instead — without
    // changing a single outcome. Comparing the counts is what catches
    // that. Each trial's result, replay cost included, must match too.
    struct Scenario
    {
        const char *model;
        const char *detector;
        std::vector<std::string> workloads; ///< empty = whole suite
    };
    const std::vector<Scenario> scenarios = {
        {"reg-bit", "analytic", {}},
        {"reg-bit", "replay", {"rawcaudio", "pegwitdec", "mpeg2dec"}},
        {"cf-branch", "analytic", {"rawcaudio", "pegwitdec", "mpeg2dec"}},
        {"mem-bus", "analytic", {"rawcaudio", "pegwitdec", "mpeg2dec"}},
    };

    std::uint64_t total_resyncs = 0;
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        SCOPED_TRACE(w.name);
        const Prepared p = runPipeline(w);

        fault::FaultInjector decoded(*p.module, p.report,
                                     interp::EngineKind::Decoded);
        fault::FaultInjector fused(*p.module, p.report,
                                   interp::EngineKind::Fused);
        ASSERT_TRUE(decoded.prepare(w.entry, w.train_args));
        ASSERT_TRUE(fused.prepare(w.entry, w.train_args));
        interp::Interpreter interp_decoded(decoded.decodedModule());
        interp::Interpreter interp_fused(fused.decodedModule());

        for (const Scenario &s : scenarios) {
            if (!s.workloads.empty() &&
                std::find(s.workloads.begin(), s.workloads.end(),
                          w.name) == s.workloads.end())
                continue;
            SCOPED_TRACE(std::string(s.model) + " + " + s.detector);
            fault::CampaignConfig cc;
            cc.trials = 120;
            cc.seed = 20261016;
            cc.trial.dmax = 100;
            cc.trial.model = fault::models::findFaultModel(s.model);
            ASSERT_NE(cc.trial.model, nullptr);
            cc.trial.detector = fault::models::findDetector(s.detector);
            ASSERT_NE(cc.trial.detector, nullptr);
            cc.model_masking = false; // every trial executes
            for (std::uint64_t t = 0; t < cc.trials; ++t)
                EXPECT_EQ(runTrial(fused, cc, t, interp_fused),
                          runTrial(decoded, cc, t, interp_decoded))
                    << "trial " << t;
            // Cumulative over this workload's scenarios so far.
            EXPECT_EQ(fused.snapshotStats().resyncs,
                      decoded.snapshotStats().resyncs);
            EXPECT_EQ(fused.snapshotStats().entry_resyncs,
                      decoded.snapshotStats().entry_resyncs);
        }
        EXPECT_EQ(fused.snapshotStats().anchors,
                  decoded.snapshotStats().anchors);
        total_resyncs += decoded.snapshotStats().resyncs;
        // The programs whose long region instances the entry anchors
        // exist for must actually converge at a region entry.
        for (const char *name : {"mpeg2dec", "rawcaudio", "rawdaudio",
                                 "g721encode", "g721decode"}) {
            if (w.name == name) {
                EXPECT_GT(decoded.snapshotStats().entry_resyncs, 0u);
            }
        }
    }
    // The comparison only bites if trials actually resynced.
    EXPECT_GT(total_resyncs, 0u);
}

/// One loop region (`loop`) that reads @src[4..7] and writes @dst[0..3]
/// each pass; `done` then reads @dst[4..7], which the loop never
/// touches.
const char *kSurvivorProgram = R"(
module "survivor"
global @src 8
global @dst 8
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp init
  bb init:
    r2 = add r1, 5
    store [@src + r1], r2
    r1 = add r1, 1
    r3 = cmplt r1, 8
    br r3, init, start
  bb start:
    r1 = mov 0
    jmp loop
  bb loop:
    r4 = and r1, 3
    r5 = add r4, 4
    r6 = load [@src + r5]
    r7 = add r6, r1
    store [@dst + r4], r7
    r1 = add r1, 1
    r8 = cmplt r1, r0
    br r8, loop, done
  bb done:
    r9 = load [@dst + 4]
    r10 = load [@dst + 5]
    r11 = load [@dst + 6]
    r12 = load [@dst + 7]
    r13 = add r9, r10
    r14 = add r11, r12
    r15 = add r13, r14
    ret r15
}
)";

TEST(SnapshotDifferential, EntryCompareRejectsCorruptionThatSurvivesRollback)
{
    // A memory-bus address fault on the loop's store writes @dst[4]
    // instead of @dst[0]. The loop never writes @dst[4], so the
    // rollback leaves the corruption in place, and `done` reads it:
    // the word is live at the loop's entry, the entry compare must
    // refuse to adopt the golden suffix, and the trial must end
    // exactly as it does with the tier off (Recovery Failed).
    auto module = ir::parseModule(kSurvivorProgram);
    EncoreConfig config;
    config.gamma = 1.0;
    EncorePipeline pipeline(*module, config);
    const EncoreReport report = pipeline.run({RunSpec{"main", {200}}});

    interp::SnapshotConfig snap_on;
    snap_on.stride = 64; // the 200-pass loop spans many snapshots
    fault::FaultInjector on(*module, report);
    on.configureSnapshots(snap_on);
    ASSERT_TRUE(on.prepare("main", {200}));
    ASSERT_GT(on.snapshotStats().anchors, 0u);

    interp::SnapshotConfig snap_off;
    snap_off.enabled = false;
    fault::FaultInjector off(*module, report);
    off.configureSnapshots(snap_off);
    ASSERT_TRUE(off.prepare("main", {200}));

    // Value instructions: 1 in `entry`, 3 per `init` pass (8 passes), 1
    // in `start`, then 6 per `loop` pass: `r7 = add` of pass k is value
    // 29 + 6k, and the first memory access after it is that pass's
    // store.
    const std::uint64_t pass = 100;
    fault::TrialDraw survivor;
    survivor.plan.kind = fault::models::InjectionPlan::Kind::MemBus;
    survivor.plan.target_value_index = 29 + 6 * pass;
    survivor.plan.selector = (2u << 1) | 1u; // address bit 2: 0 -> 4
    survivor.detection.latency = 20;

    interp::Interpreter interp_on(on.decodedModule());
    interp::Interpreter interp_off(off.decodedModule());
    const fault::TrialResult with_tier =
        on.runTrial(survivor, interp_on);
    EXPECT_EQ(with_tier, off.runTrial(survivor, interp_off));
    EXPECT_EQ(with_tier.outcome, fault::FaultOutcome::RecoveryFailed);
    EXPECT_EQ(on.snapshotStats().entry_resyncs, 0u);
    EXPECT_EQ(on.snapshotStats().resyncs, 0u);

    // Control: a flipped store value in the same pass only dirties
    // @dst[0], which the loop rewrites before reading, so the same
    // anchor accepts and the trial converges at the loop's entry.
    fault::TrialDraw benign;
    benign.plan.target_value_index = 29 + 6 * pass;
    benign.plan.xor_mask = 1u << 3;
    benign.detection.latency = 20;
    const fault::TrialResult recovered =
        on.runTrial(benign, interp_on);
    EXPECT_EQ(recovered, off.runTrial(benign, interp_off));
    EXPECT_NE(recovered.outcome, fault::FaultOutcome::RecoveryFailed);
    EXPECT_EQ(on.snapshotStats().entry_resyncs, 1u);
}

/// The survivor's loop with a fix-up: pass 150 stores 77 to @dst[4].
/// The anchor pass stops watching the loop's entry long before pass
/// 150 (its quiet window ends after the first stores to @dst[0..3]), so
/// @dst[4] counts as live at the entry.
const char *kHandOverProgram = R"(
module "handover"
global @src 8
global @dst 8
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp init
  bb init:
    r2 = add r1, 5
    store [@src + r1], r2
    r1 = add r1, 1
    r3 = cmplt r1, 8
    br r3, init, start
  bb start:
    r1 = mov 0
    jmp loop
  bb loop:
    r9 = cmpeq r1, 150
    br r9, fix, body
  bb fix:
    store [@dst + 4], 77
    jmp body
  bb body:
    r4 = and r1, 3
    r5 = add r4, 4
    r6 = load [@src + r5]
    r7 = add r6, r1
    store [@dst + r4], r7
    r1 = add r1, 1
    r8 = cmplt r1, r0
    br r8, loop, done
  bb done:
    r10 = load [@dst + 4]
    r11 = load [@dst]
    r12 = add r10, r11
    ret r12
}
)";

TEST(SnapshotDifferential, EntryMissHandsOverToTheSnapshotWatch)
{
    // A memory-bus address fault on pass 160's store writes @dst[4]
    // instead of @dst[0]. The rollback leaves @dst[4] wrong, so the
    // entry compare refuses the anchor; the replay then rewrites
    // @dst[4] at pass 150, and the snapshot watch the miss armed must
    // adopt the golden suffix at the first snapshot past the fault.
    auto module = ir::parseModule(kHandOverProgram);
    EncoreConfig config;
    config.gamma = 1.0;
    EncorePipeline pipeline(*module, config);
    const EncoreReport report = pipeline.run({RunSpec{"main", {200}}});

    interp::SnapshotConfig snap_on;
    snap_on.stride = 64;
    fault::FaultInjector on(*module, report);
    on.configureSnapshots(snap_on);
    ASSERT_TRUE(on.prepare("main", {200}));
    ASSERT_GT(on.snapshotStats().anchors, 0u);

    interp::SnapshotConfig snap_off;
    snap_off.enabled = false;
    fault::FaultInjector off(*module, report);
    off.configureSnapshots(snap_off);
    ASSERT_TRUE(off.prepare("main", {200}));

    // Value instructions: 26 ahead of the loop, then 7 per pass: `r7 =
    // add` of pass k is value 30 + 7k, and the first memory access
    // after it is that pass's store (k = 160 stores to @dst[0]).
    fault::TrialDraw draw;
    draw.plan.kind = fault::models::InjectionPlan::Kind::MemBus;
    draw.plan.target_value_index = 30 + 7 * 160;
    draw.plan.selector = (2u << 1) | 1u; // address bit 2: 0 -> 4
    draw.detection.latency = 20;

    interp::Interpreter interp_on(on.decodedModule());
    interp::Interpreter interp_off(off.decodedModule());
    const fault::TrialResult with_tier = on.runTrial(draw, interp_on);
    EXPECT_EQ(with_tier, off.runTrial(draw, interp_off));
    EXPECT_NE(with_tier.outcome, fault::FaultOutcome::RecoveryFailed);
    EXPECT_EQ(on.snapshotStats().entry_resyncs, 0u);
    EXPECT_EQ(on.snapshotStats().resyncs, 1u);
}

/// An already instrumented module: the loop of `work` is region 0 and
/// calls `work` itself, whose inner activation writes its own fresh
/// %acc[0] before the outer activation reads its own. Selection never
/// puts a recursive call in a region, so no workload reaches this.
const char *kShadowProgram = R"(
module "shadow"
global @out 1
func @main(1) {
  bb entry:
    r1 = call @work(r0, 1)
    store [@out], r1
    ret r1
}
func @work(2) {
  local %acc 2
  bb entry:
    r2 = cmpeq r1, 0
    br r2, inner, outer
  bb inner:
    store [%acc], 7
    r3 = load [%acc]
    ret r3
  bb outer:
    store [%acc], 5
    r4 = mov 0
    r9 = mov 0
    jmp enter
  bb enter:
    region.enter 0
    jmp loop
  bb loop:
    r5 = call @work(r0, 0)
    r6 = load [%acc]
    r7 = add r5, r6
    store [%acc + 1], r7
    r9 = add r9, r7
    r4 = add r4, 1
    r8 = cmplt r4, r0
    br r8, loop, done
  bb done:
    r10 = load [%acc]
    r11 = add r9, r10
    ret r11
  bb recover:
    restore 0
    jmp enter
}
)";

TEST(SnapshotDifferential, AnchorPassIgnoresShadowedLocals)
{
    // The anchor's dead words describe the incarnations the entry state
    // holds: an access to a local of an activation pushed after the
    // entry is to a fresh incarnation and must not classify the word.
    auto module = ir::parseModule(kShadowProgram);
    ir::Function *work = module->functionByName("work");
    // The text form has no syntax for a region's recovery block.
    for (ir::Instruction &inst : work->blockByName("enter")->instructions())
        if (inst.opcode() == ir::Opcode::RegionEnter)
            inst.setSucc0(work->blockByName("recover"));

    interp::Interpreter interp(std::make_shared<const interp::DecodedModule>(
        *module, interp::EngineKind::Fused));
    interp::SnapshotConfig config;
    config.stride = 64; // the 100-pass loop spans many snapshots
    interp::SnapshotStore store(config);
    interp.memoryRef().enableDirtyTracking();
    interp.setSnapshotRecorder(&store);
    ASSERT_TRUE(interp.run("main", {100}).ok());
    interp.setSnapshotRecorder(nullptr);
    store.recordEntryAnchors(interp, "main", {100});

    // Token 1: only the outer activation enters region 0.
    const interp::EntryAnchor *anchor = store.findAnchor(1);
    ASSERT_NE(anchor, nullptr);
    EXPECT_EQ(store.stats().anchors, 1u);
    const ir::ObjectId acc = module->objectByName("work.acc");
    const interp::Memory &memory = interp.memoryRef();
    // Each pass's inner activation writes its own %acc[0] first; the
    // outer activation, whose incarnation the entry state holds, reads
    // it, so it is live.
    EXPECT_FALSE(anchor->dead_words.test(memory.wordIndex(acc, 0)));
    // The outer activation writes %acc[1] before anything reads it.
    EXPECT_TRUE(anchor->dead_words.test(memory.wordIndex(acc, 1)));
    // r5 (the call's result) is written first, r4 (the counter) read.
    EXPECT_TRUE(anchor->dead_regs.test(5));
    EXPECT_FALSE(anchor->dead_regs.test(4));
}

/// An already instrumented module: `main` calls `work` twice, and each
/// call's loop is one instance of region 0 (tokens 1 and 2), running r0
/// passes then r1 passes.
const char *kSpanProgram = R"(
module "spans"
global @out 1
func @main(2) {
  bb entry:
    r2 = call @work(r0)
    r3 = call @work(r1)
    r4 = add r2, r3
    store [@out], r4
    ret r4
}
func @work(1) {
  bb entry:
    r1 = mov 0
    r2 = mov 0
    jmp enter
  bb enter:
    region.enter 0
    jmp loop
  bb loop:
    r2 = add r2, r1
    r1 = add r1, 1
    r3 = cmplt r1, r0
    br r3, loop, done
  bb done:
    ret r2
  bb recover:
    restore 0
    jmp enter
}
)";

/// The kept snapshots of `store` at which region instance `token` owns
/// an active frame.
std::size_t
snapshotsLiveAt(const interp::SnapshotStore &store, std::uint64_t token)
{
    std::size_t live = 0;
    for (const interp::Snapshot *snap = store.findFirstAfter(0); snap;
         snap = store.findFirstAfter(snap->exec.value_count)) {
        live += std::any_of(snap->exec.frames.begin(),
                            snap->exec.frames.end(),
                            [&](const interp::SnapFrame &frame) {
                                return frame.recovery.active &&
                                       frame.recovery.token == token;
                            });
    }
    return live;
}

TEST(SnapshotDifferential, AnchorsOnlyInstancesLiveAtThreeSnapshots)
{
    // An instance live at two kept snapshots spans one whole stride; it
    // gets no entry anchor. One live at three spans two and gets one.
    auto module = ir::parseModule(kSpanProgram);
    ir::Function *work = module->functionByName("work");
    for (ir::Instruction &inst : work->blockByName("enter")->instructions())
        if (inst.opcode() == ir::Opcode::RegionEnter)
            inst.setSucc0(work->blockByName("recover"));

    interp::Interpreter interp(std::make_shared<const interp::DecodedModule>(
        *module, interp::EngineKind::Fused));
    interp::SnapshotConfig config;
    config.stride = 64;
    interp::SnapshotStore store(config);
    interp.memoryRef().enableDirtyTracking();
    interp.setSnapshotRecorder(&store);
    // 3 value instructions a pass: the 45 passes of token 1 are live
    // at two snapshots, the 70 of token 2 at three.
    ASSERT_TRUE(interp.run("main", {45, 70}).ok());
    interp.setSnapshotRecorder(nullptr);
    store.recordEntryAnchors(interp, "main", {45, 70});

    ASSERT_EQ(snapshotsLiveAt(store, 1), 2u);
    ASSERT_EQ(snapshotsLiveAt(store, 2), 3u);
    EXPECT_EQ(store.findAnchor(1), nullptr);
    EXPECT_NE(store.findAnchor(2), nullptr);
    EXPECT_EQ(store.stats().anchors, 1u);
}

TEST(SnapshotDifferential, AdaptiveStrideStaysWithinBudget)
{
    // Squeeze the byte budget until the store must either double its
    // stride or stop capturing; outcomes still must not change. Uses
    // the longest-running workload of the mediabench set to get many
    // barriers.
    const workloads::Workload *w = workloads::findWorkload("mpeg2enc");
    ASSERT_NE(w, nullptr);
    const Prepared p = runPipeline(*w);

    fault::FaultInjector off(*p.module, p.report);
    interp::SnapshotConfig none;
    none.enabled = false;
    off.configureSnapshots(none);
    ASSERT_TRUE(off.prepare(w->entry, w->train_args));

    interp::SnapshotConfig tight;
    tight.stride = 1024;
    tight.byte_budget = 96 * 1024; // forces stride doubling early
    fault::FaultInjector on(*p.module, p.report);
    on.configureSnapshots(tight);
    ASSERT_TRUE(on.prepare(w->entry, w->train_args));

    if (on.snapshotsActive()) {
        const interp::SnapshotStats stats = on.snapshotStats();
        EXPECT_LE(stats.bytes, tight.byte_budget);
        EXPECT_GE(stats.stride, tight.stride);
    }

    fault::CampaignConfig cc;
    cc.trials = 25;
    cc.seed = 7;
    cc.trial.dmax = 250;
    cc.model_masking = false;
    const fault::CampaignResult a = on.runCampaign(cc);
    const fault::CampaignResult b = off.runCampaign(cc);
    for (int i = 0;
         i < static_cast<int>(fault::FaultOutcome::NumOutcomes); ++i)
        EXPECT_EQ(a.counts[i], b.counts[i]);
}

TEST(SnapshotDifferential, TierCountersAreStableAcrossBuilds)
{
    // fig8's default campaign (seed 12345, 600 trials at each Dmax of
    // 1000, 100 and 10, masking rate 0.91, seeds offset by the row's
    // suite position) on programs that mix the two resync watches:
    // entry anchors only (mpeg2dec, rawcaudio), both (164.gzip,
    // 183.equake) and the snapshot watch only (175.vpr, 197.parser).
    // ResyncIsEngineIdentical compares two engines of one build, so a
    // compare that lost resyncs on both engines would pass it; these
    // counts are pinned instead. Resident bytes are left out: they sum
    // struct sizes, which vary by platform.
    struct Pin
    {
        const char *workload;
        std::uint64_t count, anchors, hits, misses, resyncs, entry_resyncs;
    };
    const Pin pins[] = {
        // workload, kept, anchors, hits, misses, resyncs, at entry
        {"164.gzip", 41, 3, 154, 2, 135, 59},
        {"175.vpr", 61, 0, 156, 2, 79, 0},
        {"197.parser", 114, 0, 158, 0, 131, 0},
        {"183.equake", 194, 41, 161, 0, 137, 107},
        {"mpeg2dec", 283, 3, 161, 0, 161, 161},
        {"rawcaudio", 109, 3, 161, 0, 161, 161},
    };
    const std::vector<workloads::Workload> &suite =
        workloads::allWorkloads();
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.workload);
        const auto w = std::find_if(
            suite.begin(), suite.end(), [&](const workloads::Workload &x) {
                return x.name == pin.workload;
            });
        ASSERT_NE(w, suite.end());
        const Prepared p = runPipeline(*w);
        fault::FaultInjector injector(*p.module, p.report);
        ASSERT_TRUE(injector.prepare(w->entry, w->train_args));
        const std::uint64_t dmaxes[] = {1000, 100, 10};
        for (std::size_t d = 0; d < 3; ++d) {
            fault::CampaignConfig cc;
            cc.trials = 600;
            cc.seed = 12345 + d * 7919 + (w - suite.begin());
            cc.jobs = 2;
            cc.masking_rate = 0.91;
            cc.trial.dmax = dmaxes[d];
            injector.runCampaign(cc);
        }
        const interp::SnapshotStats stats = injector.snapshotStats();
        EXPECT_EQ(stats.count, pin.count);
        EXPECT_EQ(stats.anchors, pin.anchors);
        EXPECT_EQ(stats.hits, pin.hits);
        EXPECT_EQ(stats.misses, pin.misses);
        EXPECT_EQ(stats.resyncs, pin.resyncs);
        EXPECT_EQ(stats.entry_resyncs, pin.entry_resyncs);
    }
}

} // namespace
} // namespace encore
