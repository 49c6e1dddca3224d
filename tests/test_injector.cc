/**
 * @file
 * Fault-injector tests: masking coin, outcome bookkeeping, latency
 * extremes, symptom-triggered detection, and failure handling.
 */
#include <gtest/gtest.h>

#include <thread>

#include "encore/pipeline.h"
#include "fault/injector.h"
#include "fault/models/fault_model.h"
#include "interp/interpreter.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/checksum.h"

namespace encore::fault {
namespace {

const char *kProgram = R"(
module "m"
global @data 64
global @out 64
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp work
  bb work:
    r2 = mul r1, 31
    r3 = and r2, 63
    r4 = load [@data + r3]
    r5 = add r4, r1
    r8 = and r1, 63
    store [@out + r8], r5
    r1 = add r1, 1
    r6 = cmplt r1, r0
    br r6, work, done
  bb done:
    r7 = load [@out + 3]
    ret r7
}
)";

/// A second, store-heavier workload: a histogram with an in-place
/// running maximum — different region structure than kProgram.
const char *kProgram2 = R"(
module "m2"
global @src 64
global @hist 16
global @peak 1
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = and r1, 63
    r3 = load [@src + r2]
    r4 = add r3, r1
    r5 = and r4, 15
    r6 = load [@hist + r5]
    r6 = add r6, 1
    store [@hist + r5], r6
    r7 = load [@peak + 0]
    r8 = cmplt r7, r6
    br r8, bump, next
  bb bump:
    store [@peak + 0], r6
    jmp next
  bb next:
    r1 = add r1, 1
    r9 = cmplt r1, r0
    br r9, loop, done
  bb done:
    r10 = load [@peak + 0]
    ret r10
}
)";

struct Harness
{
    std::unique_ptr<ir::Module> module;
    EncoreReport report;
    std::unique_ptr<FaultInjector> injector;
};

Harness
prepareProgram(const char *text, std::uint64_t arg)
{
    Harness setup;
    setup.module = ir::parseModule(text);
    EncoreConfig config;
    config.gamma = 1.0;
    EncorePipeline pipeline(*setup.module, config);
    setup.report = pipeline.run({RunSpec{"main", {arg}}});
    setup.injector =
        std::make_unique<FaultInjector>(*setup.module, setup.report);
    EXPECT_TRUE(setup.injector->prepare("main", {arg}));
    return setup;
}

Harness
prepare(std::uint64_t arg = 50)
{
    return prepareProgram(kProgram, arg);
}

TEST(DrawTrialTest, MaskingRateIsHonoured)
{
    CampaignConfig always;
    always.masking_rate = 1.0;
    CampaignConfig never;
    never.masking_rate = 0.0;
    for (std::uint64_t t = 0; t < 50; ++t) {
        EXPECT_TRUE(drawTrial(always, t, 1000).masked);
        EXPECT_FALSE(drawTrial(never, t, 1000).masked);
    }
    EXPECT_DOUBLE_EQ(CampaignConfig{}.masking_rate, 0.91);
}

TEST(OutcomeNames, AllDistinct)
{
    std::set<std::string_view> names;
    for (int i = 0; i < static_cast<int>(FaultOutcome::NumOutcomes); ++i)
        names.insert(outcomeName(static_cast<FaultOutcome>(i)));
    EXPECT_EQ(names.size(),
              static_cast<std::size_t>(FaultOutcome::NumOutcomes));
}

TEST(Injector, FullMaskingShortCircuits)
{
    Harness setup = prepare();
    CampaignConfig config;
    config.trials = 30;
    config.masking_rate = 1.0;
    const CampaignResult result = setup.injector->runCampaign(config);
    EXPECT_EQ(result.count(FaultOutcome::Masked), 30u);
    EXPECT_DOUBLE_EQ(result.coveredFraction(), 1.0);
}

TEST(Injector, NoMaskingInjectsEveryTrial)
{
    Harness setup = prepare();
    CampaignConfig config;
    config.trials = 60;
    config.model_masking = false;
    const CampaignResult result = setup.injector->runCampaign(config);
    EXPECT_EQ(result.count(FaultOutcome::Masked), 0u);
    EXPECT_EQ(result.trials, 60u);
    std::uint64_t total = 0;
    for (int i = 0; i < static_cast<int>(FaultOutcome::NumOutcomes); ++i)
        total += result.counts[i];
    EXPECT_EQ(total, 60u);
}

TEST(Injector, ZeroLatencyRecoversProtectedFaults)
{
    // With Dmax = 0 detection fires on the very next instruction; any
    // fault striking inside a protected region must recover. Dmax = 0
    // is rejected at *campaign* entry (validateCampaignConfig), so the
    // latency extreme is exercised through drawTrial + runTrial.
    Harness setup = prepare();
    CampaignConfig config;
    config.seed = 12345;
    config.model_masking = false;
    config.trial.dmax = 0;
    interp::Interpreter interp(setup.injector->decodedModule());
    CampaignResult result;
    for (std::uint64_t t = 0; t < 120; ++t)
        result.add(setup.injector->runTrial(
            drawTrial(config, t, setup.injector->golden().value_instrs),
            interp));
    EXPECT_EQ(result.count(FaultOutcome::RecoveryFailed), 0u);
    EXPECT_EQ(result.count(FaultOutcome::SilentCorruption), 0u);
    EXPECT_GT(result.count(FaultOutcome::RecoveredIdempotent) +
                  result.count(FaultOutcome::RecoveredCheckpoint),
              0u);
}

TEST(InjectorValidationDeathTest, RejectsInvalidCampaignConfigs)
{
    // Each out-of-range field must exit through fatal() with a message
    // naming the field — not silently produce a nonsense table.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Harness setup = prepare();

    CampaignConfig zero_trials;
    zero_trials.trials = 0;
    EXPECT_EXIT(setup.injector->runCampaign(zero_trials),
                ::testing::ExitedWithCode(1), "trials must be > 0");

    CampaignConfig bad_mask_high;
    bad_mask_high.masking_rate = 1.5;
    EXPECT_EXIT(setup.injector->runCampaign(bad_mask_high),
                ::testing::ExitedWithCode(1), "masking_rate");

    CampaignConfig bad_mask_nan;
    bad_mask_nan.masking_rate = -0.01;
    EXPECT_EXIT(setup.injector->runCampaign(bad_mask_nan),
                ::testing::ExitedWithCode(1), "masking_rate");

    CampaignConfig bad_dmax;
    bad_dmax.trial.dmax = 0;
    EXPECT_EXIT(setup.injector->runCampaign(bad_dmax),
                ::testing::ExitedWithCode(1), "dmax must be > 0");
}

TEST(Injector, LongLatencyLosesMoreFaults)
{
    Harness setup = prepare(120);
    CampaignConfig config;
    config.trials = 250;
    config.model_masking = false;

    config.trial.dmax = 5;
    const auto fast = setup.injector->runCampaign(config);
    config.trial.dmax = 5000;
    const auto slow = setup.injector->runCampaign(config);

    EXPECT_GE(slow.count(FaultOutcome::NotRecoverable),
              fast.count(FaultOutcome::NotRecoverable));
}

TEST(Injector, GoldenRunFailurePropagates)
{
    auto module = ir::parseModule(R"(
module "m"
global @A 4
func @main(1) {
  bb entry:
    r1 = div 8, r0
    ret r1
}
)");
    EncoreConfig config;
    EncorePipeline pipeline(*module, config);
    const EncoreReport report = pipeline.run({RunSpec{"main", {2}}});
    FaultInjector injector(*module, report);
    // Running with a divisor of zero fails the golden run.
    EXPECT_FALSE(injector.prepare("main", {0}));
    EXPECT_TRUE(injector.prepare("main", {2}));
}

TEST(Injector, ModuleHashIsThePrintedModuleHashFromAnyThread)
{
    // moduleHash() is computed on its first call, which two threads may
    // make at once; both, and every later caller, see the hash of the
    // printed instrumented module, the value durable stores and tally
    // sidecars are keyed by.
    Harness setup = prepare();
    const std::uint64_t expected =
        fnv1a64(ir::moduleToString(*setup.module));
    std::uint64_t seen[2] = {};
    std::thread first([&] { seen[0] = setup.injector->moduleHash(); });
    std::thread second([&] { seen[1] = setup.injector->moduleHash(); });
    first.join();
    second.join();
    EXPECT_EQ(seen[0], expected);
    EXPECT_EQ(seen[1], expected);
    EXPECT_EQ(setup.injector->moduleHash(), expected);
}

TEST(Injector, CoverageArithmetic)
{
    CampaignResult result;
    result.trials = 10;
    result.counts[static_cast<int>(FaultOutcome::Masked)] = 5;
    result.counts[static_cast<int>(FaultOutcome::RecoveredIdempotent)] = 2;
    result.counts[static_cast<int>(FaultOutcome::RecoveredCheckpoint)] = 1;
    result.counts[static_cast<int>(FaultOutcome::Benign)] = 1;
    result.counts[static_cast<int>(FaultOutcome::NotRecoverable)] = 1;
    EXPECT_DOUBLE_EQ(result.coveredFraction(), 0.9);
    EXPECT_DOUBLE_EQ(result.fraction(FaultOutcome::Masked), 0.5);
}

TEST(Injector, EmptyCampaign)
{
    CampaignResult result;
    EXPECT_DOUBLE_EQ(result.coveredFraction(), 0.0);
    EXPECT_DOUBLE_EQ(result.fraction(FaultOutcome::Masked), 0.0);
}

TEST(Injector, ParallelCampaignBitIdenticalToSequential)
{
    // The determinism guarantee behind --jobs: counter-based per-trial
    // seeding makes the aggregated CampaignResult independent of the
    // thread count and schedule — checked on two workloads and two
    // seeds, with the masking model on (so the masked path is seeded
    // per-trial too).
    for (const char *program : {kProgram, kProgram2}) {
        Harness setup = prepareProgram(program, 60);
        for (const std::uint64_t seed : {11ULL, 424242ULL}) {
            CampaignConfig config;
            config.trials = 200;
            config.seed = seed;
            config.trial.dmax = 100;

            config.jobs = 1;
            const CampaignResult sequential =
                setup.injector->runCampaign(config);
            config.jobs = 4;
            const CampaignResult parallel =
                setup.injector->runCampaign(config);

            EXPECT_EQ(sequential.trials, parallel.trials);
            for (int i = 0;
                 i < static_cast<int>(FaultOutcome::NumOutcomes); ++i)
                EXPECT_EQ(sequential.counts[i], parallel.counts[i])
                    << "seed " << seed << ", outcome "
                    << outcomeName(static_cast<FaultOutcome>(i));
        }
    }
}

TEST(Injector, AbsurdJobsRunsLikeOneJob)
{
    // runTrials keeps per-slot state only for the slots parallelFor
    // uses over n trials, so 10^12 requested threads over three trials
    // start two threads and allocate three slots, not 10^12.
    Harness setup = prepare();
    CampaignConfig config;
    config.trials = 3;
    config.seed = 7;
    config.model_masking = false;
    const auto body = [&](std::uint64_t t, interp::Interpreter &interp) {
        return setup.injector->runTrial(
            drawTrial(config, t, setup.injector->golden().value_instrs),
            interp);
    };
    const CampaignResult one = runTrials(*setup.injector, 1, 3, body);
    const CampaignResult absurd =
        runTrials(*setup.injector, 1'000'000'000'000, 3, body);
    EXPECT_EQ(absurd.trials, 3u);
    EXPECT_EQ(absurd.replay_cost, one.replay_cost);
    for (int i = 0; i < static_cast<int>(FaultOutcome::NumOutcomes); ++i)
        EXPECT_EQ(absurd.counts[i], one.counts[i])
            << outcomeName(static_cast<FaultOutcome>(i));
}

TEST(Injector, MaskingEdgeRatesHoldForEveryFaultModel)
{
    // The masking coin short-circuits before the model draws its plan,
    // so the edge rates must behave identically under every registered
    // fault model, not just the default reg-bit.
    Harness setup = prepare();
    for (const std::string_view name : models::faultModelNames()) {
        const models::FaultModel *model = models::findFaultModel(name);
        ASSERT_NE(model, nullptr);

        CampaignConfig all;
        all.trials = 40;
        all.masking_rate = 1.0;
        all.trial.dmax = 40;
        all.trial.model = model;
        const CampaignResult fully_masked =
            setup.injector->runCampaign(all);
        EXPECT_EQ(fully_masked.count(FaultOutcome::Masked), 40u)
            << name;
        EXPECT_DOUBLE_EQ(fully_masked.coveredFraction(), 1.0) << name;

        CampaignConfig none = all;
        none.masking_rate = 0.0;
        EXPECT_EQ(setup.injector->runCampaign(none).count(
                      FaultOutcome::Masked),
                  0u)
            << name;

        CampaignConfig arm = all;
        arm.masking_rate = kArm926MaskingRate;
        const std::uint64_t masked =
            setup.injector->runCampaign(arm).count(
                FaultOutcome::Masked);
        EXPECT_GT(masked, 0u) << name;
        EXPECT_LT(masked, 40u) << name;
    }
}

TEST(Injector, MaskedTrialIndicesAlignAcrossModels)
{
    // Which trials come up masked depends only on (seed, trial, rate)
    // — the coin is flipped before the model consumes any draws — so
    // trial index t means the same masked/unmasked decision under
    // every fault model, and per-trial results stay comparable across
    // scenario sweeps.
    Harness setup = prepare();
    CampaignConfig config;
    config.trials = 150;
    config.seed = 5150;
    config.masking_rate = kArm926MaskingRate;
    config.trial.dmax = 40;

    std::vector<bool> reference;
    for (const std::string_view name : models::faultModelNames()) {
        config.trial.model = models::findFaultModel(name);
        std::vector<bool> masked;
        for (std::uint64_t t = 0; t < config.trials; ++t)
            masked.push_back(
                drawTrial(config, t,
                          setup.injector->golden().value_instrs)
                    .masked);
        if (reference.empty()) {
            reference = masked;
            // The pattern must be non-trivial for the comparison to
            // mean anything.
            EXPECT_NE(std::count(reference.begin(), reference.end(),
                                 true),
                      0);
            EXPECT_NE(std::count(reference.begin(), reference.end(),
                                 false),
                      0);
        } else {
            EXPECT_EQ(masked, reference)
                << name << " shifts the masked trial set";
        }
    }
}

TEST(Injector, TrialOutcomeIsPureFunctionOfTrialSeed)
{
    // Re-drawing and re-running a trial reproduces the same result,
    // on a fresh interpreter and on one reused across trials alike —
    // the properties the parallel shard merge and the pooled trial
    // loop rely on.
    Harness setup = prepareProgram(kProgram2, 40);
    const std::uint64_t value_instrs =
        setup.injector->golden().value_instrs;
    CampaignConfig config;
    config.seed = 77;
    config.model_masking = false;
    config.trial.dmax = 50;
    interp::Interpreter reused(setup.injector->decodedModule());
    for (std::uint64_t t = 0; t < 25; ++t) {
        interp::Interpreter fresh(setup.injector->decodedModule());
        const TrialResult first = setup.injector->runTrial(
            drawTrial(config, t, value_instrs), fresh);
        EXPECT_EQ(setup.injector->runTrial(
                      drawTrial(config, t, value_instrs), reused),
                  first)
            << "trial " << t;
    }
}

TEST(OutcomeTable, NotInjectedTerminationLegs)
{
    // A trial whose target value index is never reached (the program
    // terminated first, e.g. under a shorter input or an early exit)
    // ends with injected == false. Correct output is Benign...
    TrialObservation benign;
    benign.status = interp::RunResult::Status::Ok;
    benign.injected = false;
    benign.same_output = true;
    EXPECT_EQ(classifyTrialOutcome(benign), FaultOutcome::Benign);

    // ...and a diverged output is SilentCorruption. Unreachable
    // end-to-end under full determinism (an uninjected run IS the
    // golden run), which is exactly why the classifier leg needs a
    // direct test: it must stay correct for when that assumption is
    // ever relaxed (e.g. input-dependent entropy).
    TrialObservation silent;
    silent.status = interp::RunResult::Status::Ok;
    silent.injected = false;
    silent.same_output = false;
    EXPECT_EQ(classifyTrialOutcome(silent),
              FaultOutcome::SilentCorruption);

    // A not-injected run that did not even complete cleanly cannot be
    // Benign regardless of the output flag — the leg is judged by
    // "finished with the golden output", and a crash fails that.
    TrialObservation crashed;
    crashed.status = interp::RunResult::Status::Error;
    crashed.injected = false;
    crashed.same_output = true;
    EXPECT_EQ(classifyTrialOutcome(crashed),
              FaultOutcome::SilentCorruption);
}

TEST(OutcomeTable, InstructionLimitIsNotRecoverable)
{
    // An injected execution that blows the run budget maps to
    // NotRecoverable whether or not detection fired. The budget counts
    // restored prefix instructions too (see FaultInjector::runTrial),
    // so this mapping is identical with and without the snapshot tier.
    for (const bool detected : {false, true}) {
        TrialObservation obs;
        obs.status = interp::RunResult::Status::InstructionLimit;
        obs.injected = true;
        obs.detected = detected;
        obs.same_instance = detected;
        obs.region_class = RegionClass::Idempotent;
        EXPECT_EQ(classifyTrialOutcome(obs),
                  FaultOutcome::NotRecoverable)
            << "detected=" << detected;
    }

    // The not-injected leg precedes the status switch and is judged by
    // output alone (like the Error case above): a run that never
    // reached the target yet failed to finish with the golden output
    // is SilentCorruption, not NotRecoverable.
    TrialObservation uninjected;
    uninjected.status = interp::RunResult::Status::InstructionLimit;
    uninjected.injected = false;
    uninjected.same_output = false;
    EXPECT_EQ(classifyTrialOutcome(uninjected),
              FaultOutcome::SilentCorruption);
}

TEST(OutcomeTable, DetectedLegsMatchPaperCriteria)
{
    // Spot-check the detected half of the table: cross-instance
    // detection is NotRecoverable (s + l >= n), same-instance rollback
    // with wrong output is the materialized Pmin risk, and a correct
    // rollback splits by region class.
    TrialObservation obs;
    obs.status = interp::RunResult::Status::Ok;
    obs.injected = true;
    obs.detected = true;

    obs.same_instance = false;
    obs.same_output = true;
    EXPECT_EQ(classifyTrialOutcome(obs), FaultOutcome::NotRecoverable);

    obs.same_instance = true;
    obs.same_output = false;
    EXPECT_EQ(classifyTrialOutcome(obs), FaultOutcome::RecoveryFailed);

    obs.same_output = true;
    obs.region_class = RegionClass::Idempotent;
    EXPECT_EQ(classifyTrialOutcome(obs),
              FaultOutcome::RecoveredIdempotent);
    obs.region_class = RegionClass::NonIdempotent;
    EXPECT_EQ(classifyTrialOutcome(obs),
              FaultOutcome::RecoveredCheckpoint);

    // Injected but never detected: benign/silent by output alone.
    obs.detected = false;
    obs.same_output = true;
    EXPECT_EQ(classifyTrialOutcome(obs), FaultOutcome::Benign);
    obs.same_output = false;
    EXPECT_EQ(classifyTrialOutcome(obs),
              FaultOutcome::SilentCorruption);
}

TEST(Injector, TargetBeyondTerminationIsBenignEndToEnd)
{
    // End-to-end companion to the classifier test: aim the fault at
    // value instruction == golden value count (one past the last one
    // ever produced). No draw lands there, so the draw is built by
    // hand. The run terminates without injecting, output matches
    // golden, outcome is Benign.
    Harness setup = prepare(30);
    TrialDraw draw;
    draw.plan.target_value_index = setup.injector->golden().value_instrs;
    draw.plan.xor_mask = 1;
    draw.detection.latency = 10;
    interp::Interpreter interp(setup.injector->decodedModule());
    EXPECT_EQ(setup.injector->runTrial(draw, interp).outcome,
              FaultOutcome::Benign);
}

TEST(Injector, SymptomaticFaultsDetectedBeforeWildAccess)
{
    // A program whose index register feeds an address computation: a
    // corrupted index must trigger symptom detection (or a runtime
    // error treated as one) rather than silently writing out of range.
    // The observable contract: no trial ends in RecoveryFailed, and
    // outcomes are deterministic per seed.
    Harness setup = prepare(80);
    CampaignConfig config;
    config.trials = 300;
    config.model_masking = false;
    config.trial.dmax = 500;
    const auto a = setup.injector->runCampaign(config);
    const auto b = setup.injector->runCampaign(config);
    EXPECT_EQ(a.count(FaultOutcome::RecoveryFailed), 0u);
    for (int i = 0; i < static_cast<int>(FaultOutcome::NumOutcomes); ++i)
        EXPECT_EQ(a.counts[i], b.counts[i]);
}

} // namespace
} // namespace encore::fault
