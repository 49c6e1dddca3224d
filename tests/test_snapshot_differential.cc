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
        fault::drawTrial(cc, t, injector.golden().value_instrs), cc.trial,
        interp);
}

TEST(SnapshotDifferential, AllWorkloadsBitIdenticalOnAndOff)
{
    // A stride small enough that even the shortest workloads cross
    // several barriers — the point is to take the restore path, not
    // to be fast.
    interp::SnapshotConfig snap_on;
    snap_on.stride = 2048;
    interp::SnapshotConfig snap_off;
    snap_off.enabled = false;

    std::size_t with_snapshots = 0;
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

        // Recording snapshots must not perturb the golden run itself.
        EXPECT_EQ(on.golden().return_value, off.golden().return_value);
        EXPECT_EQ(on.golden().dyn_instrs, off.golden().dyn_instrs);
        EXPECT_EQ(on.golden().value_instrs, off.golden().value_instrs);

        fault::CampaignConfig cc;
        cc.trials = 30;
        cc.seed = 20240817;
        cc.trial.dmax = 100;
        cc.model_masking = false; // every trial takes the restore path

        // Per-trial: same seed stream, same result, trial by trial.
        interp::Interpreter interp_on(on.decodedModule());
        interp::Interpreter interp_off(off.decodedModule());
        for (std::uint64_t t = 0; t < cc.trials; ++t)
            EXPECT_EQ(runTrial(on, cc, t, interp_on),
                      runTrial(off, cc, t, interp_off))
                << "trial " << t;

        // Aggregate: identical outcome tables sequentially and across
        // a thread pool (workers share the store read-only).
        for (const std::size_t jobs : {1u, 4u}) {
            cc.jobs = jobs;
            const fault::CampaignResult a = on.runCampaign(cc);
            const fault::CampaignResult b = off.runCampaign(cc);
            ASSERT_EQ(a.trials, b.trials);
            for (int i = 0;
                 i < static_cast<int>(fault::FaultOutcome::NumOutcomes);
                 ++i)
                EXPECT_EQ(a.counts[i], b.counts[i])
                    << "jobs " << jobs << ", outcome "
                    << outcomeName(
                           static_cast<fault::FaultOutcome>(i));
        }

        if (on.snapshotsActive()) {
            // Every non-masked trial above sought the store once.
            const interp::SnapshotStats stats = on.snapshotStats();
            EXPECT_GT(stats.count, 0u);
            EXPECT_GT(stats.hits + stats.misses, 0u);
            EXPECT_LE(stats.bytes, snap_on.byte_budget);
        }
    }

    // The differential only bites if the snapshot path actually ran:
    // most of the suite must have crossed at least one barrier.
    EXPECT_GT(with_snapshots,
              workloads::allWorkloads().size() / 2);
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
        }
        total_resyncs += decoded.snapshotStats().resyncs;
    }
    // The comparison only bites if trials actually resynced.
    EXPECT_GT(total_resyncs, 0u);
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

} // namespace
} // namespace encore
