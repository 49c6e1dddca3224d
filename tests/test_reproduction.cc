/**
 * @file
 * Reproduction guards: small, fast versions of the paper's headline
 * claims, pinned as tests so regressions in any pass surface as a
 * failed expectation rather than a silently drifted figure.
 */
#include <gtest/gtest.h>

#include "encore/detection_model.h"
#include "encore/pipeline.h"
#include "fault/injector.h"
#include "interp/interpreter.h"
#include "interp/profile.h"
#include "workloads/workload.h"

namespace encore {
namespace {

struct Campaign
{
    fault::CampaignResult result;
    EncoreReport report;
};

Campaign
runCampaign(const std::string &name, std::uint64_t dmax,
            std::uint64_t trials, bool masking)
{
    const workloads::Workload *w = workloads::findWorkload(name);
    EXPECT_NE(w, nullptr);
    auto module = w->build();
    EncoreConfig config;
    for (const std::string &opaque : w->opaque)
        config.opaque_functions.insert(opaque);
    EncorePipeline pipeline(*module, config);
    Campaign campaign;
    campaign.report = pipeline.run({RunSpec{w->entry, w->train_args}});
    fault::FaultInjector injector(*module, campaign.report);
    EXPECT_TRUE(injector.prepare(w->entry, w->train_args));
    fault::CampaignConfig cc;
    cc.trials = trials;
    cc.seed = 99;
    cc.model_masking = masking;
    cc.trial.dmax = dmax;
    campaign.result = injector.runCampaign(cc);
    return campaign;
}

TEST(Reproduction, HeadlineCoverageBeatsMaskingBaseline)
{
    // Paper: 97% of faults tolerated at Shoestring-like latencies vs a
    // 91% hardware masking baseline — Encore must add real coverage.
    double total = 0;
    int count = 0;
    for (const char *name : {"rawcaudio", "172.mgrid", "cjpeg"}) {
        const Campaign c = runCampaign(name, 100, 400, true);
        total += c.result.coveredFraction();
        ++count;
    }
    EXPECT_GT(total / count, 0.955);
}

TEST(Reproduction, McfIsTheWorstCase)
{
    // mcf's in-place pointer chasing defeats cheap checkpointing; its
    // coverage must trail an idempotence-friendly media benchmark.
    const Campaign mcf = runCampaign("181.mcf", 100, 400, false);
    const Campaign raw = runCampaign("rawcaudio", 100, 400, false);
    EXPECT_LT(mcf.result.coveredFraction(),
              raw.result.coveredFraction() - 0.2);
}

TEST(Reproduction, LatencyOrderingHolds)
{
    const Campaign fast = runCampaign("256.bzip2", 10, 400, false);
    const Campaign slow = runCampaign("256.bzip2", 5000, 400, false);
    EXPECT_GE(fast.result.coveredFraction(),
              slow.result.coveredFraction());
}

TEST(Reproduction, OverheadStaysWithinBudget)
{
    // Paper: 14% mean overhead under a 20% budget. Measure the real
    // instrumented execution for every workload.
    for (const workloads::Workload &w : workloads::allWorkloads()) {
        auto module = w.build();
        EncoreConfig config;
        for (const std::string &opaque : w.opaque)
            config.opaque_functions.insert(opaque);
        EncorePipeline pipeline(*module, config);
        pipeline.run({RunSpec{w.entry, w.train_args}});

        interp::Interpreter interp(*module);
        const interp::RunResult run = interp.run(w.entry, w.train_args);
        ASSERT_TRUE(run.ok()) << w.name << ": " << run.error;
        const double baseline =
            static_cast<double>(run.dyn_instrs - run.overhead_instrs);
        const double overhead =
            static_cast<double>(run.overhead_instrs) / baseline;
        // Generous slack above the projected budget for estimate error.
        EXPECT_LE(overhead, 0.25) << w.name;
    }
}

TEST(Reproduction, AlphaModelTracksMeasurementOnSingleRegion)
{
    // A program that is one big idempotent region: the measured
    // recovery rate of unmasked faults should track Equation 7's alpha
    // at the region's length.
    const workloads::Workload *w = workloads::findWorkload("mpeg2dec");
    ASSERT_NE(w, nullptr);
    auto module = w->build();
    EncoreConfig config;
    EncorePipeline pipeline(*module, config);
    const EncoreReport report =
        pipeline.run({RunSpec{w->entry, w->train_args}});

    const double protected_share = report.dynFractionIdempotent() +
                                   report.dynFractionCheckpointed();
    ASSERT_GT(protected_share, 0.9); // mpeg2dec is nearly all covered

    fault::FaultInjector injector(*module, report);
    ASSERT_TRUE(injector.prepare(w->entry, w->train_args));
    fault::CampaignConfig cc;
    cc.trials = 500;
    cc.seed = 7;
    cc.model_masking = false;
    cc.trial.dmax = 100;
    const fault::CampaignResult result = injector.runCampaign(cc);

    const double alpha =
        alphaUniform(report.meanSelectedRegionLength(), 100.0);
    EXPECT_NEAR(result.coveredFraction(), protected_share * alpha, 0.10);
}

TEST(Reproduction, WindowIdempotenceDropsWithSize)
{
    // Figure 1's monotone decline, pinned on one INT workload.
    const workloads::Workload *w = workloads::findWorkload("164.gzip");
    auto module = w->build();
    interp::TraceCollector trace;
    interp::Interpreter interp(*module);
    interp.setHooks(&trace);
    const interp::RunResult run = interp.run(w->entry, w->train_args);
    ASSERT_TRUE(run.ok());

    double prev = 1.1;
    for (const std::uint64_t size : {10ULL, 50ULL, 250ULL, 1000ULL}) {
        const auto win =
            interp::analyzeWindows(trace, run.dyn_instrs, size, 0);
        ASSERT_GT(win.windows, 0u);
        EXPECT_LE(win.idempotentFraction(), prev + 0.02);
        prev = win.idempotentFraction();
    }
    EXPECT_LT(prev, 0.5); // large windows are mostly non-idempotent
}

} // namespace
} // namespace encore
