/**
 * @file
 * End-to-end tests: region formation over the interval hierarchy, the
 * full pipeline (profile → analyze → select → instrument), semantic
 * preservation of instrumentation, and fault-injection campaigns whose
 * recovery actually executes.
 */
#include <gtest/gtest.h>

#include "encore/analysis_base.h"
#include "fault/injector.h"
#include "interp/interpreter.h"
#include "ir/parser.h"
#include "ir/printer.h"

namespace encore {
namespace {

// A small program with realistic structure: an initialization loop, a
// main loop with a WAR (histogram update), and a finalization pass.
const char *kProgram = R"(
module "prog"
global @data 128
global @hist 16
global @out 4
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp fill
  bb fill:
    r2 = mul r1, 37
    r3 = add r2, 11
    r4 = and r3, 127
    store [@data + r1], r4
    r1 = add r1, 1
    r5 = cmplt r1, r0
    br r5, fill, setup
  bb setup:
    r1 = mov 0
    jmp count
  bb count:
    r6 = load [@data + r1]
    r7 = and r6, 15
    r8 = load [@hist + r7]
    r9 = add r8, 1
    store [@hist + r7], r9
    r1 = add r1, 1
    r10 = cmplt r1, r0
    br r10, count, reduce
  bb reduce:
    r1 = mov 0
    r11 = mov 0
    jmp sum
  bb sum:
    r12 = load [@hist + r1]
    r11 = add r11, r12
    r1 = add r1, 1
    r13 = cmplt r1, 16
    br r13, sum, done
  bb done:
    store [@out], r11
    ret r11
}
)";

/// Every region analyzeConfig forms for @main of kProgram (profiled
/// on input 64, pruning never-executed blocks).
std::vector<CandidateRegion>
formedRegions(ir::Module &module, bool merge)
{
    EncoreConfig config;
    config.prune = true;
    config.pmin = 0.0;
    config.merge_regions = merge;
    AnalysisBase base(module, {RunSpec{"main", {64}}},
                      config.profile_max_instrs);
    std::vector<CandidateRegion> regions;
    for (InstrumentedRegion &region : analyzeConfig(base, config).regions)
        regions.push_back(std::move(region.candidate));
    return regions;
}

TEST(RegionFormationTest, PartitionsFunction)
{
    auto module = ir::parseModule(kProgram);
    const auto regions = formedRegions(*module, /*merge=*/true);
    ASSERT_FALSE(regions.empty());
    const ir::Function &f = *module->functionByName("main");

    // Regions partition the function's blocks.
    std::vector<int> covered(f.numBlocks(), 0);
    for (const CandidateRegion &candidate : regions) {
        ASSERT_EQ(candidate.region.func, &f);
        for (const ir::BlockId block : candidate.region.blocks)
            ++covered[block];
    }
    for (std::size_t b = 0; b < covered.size(); ++b)
        EXPECT_EQ(covered[b], 1) << "block " << b;

    // Every region header dominates its blocks (SEME property).
    const FunctionContext ctx(f);
    for (const CandidateRegion &candidate : regions) {
        for (const ir::BlockId block : candidate.region.blocks) {
            EXPECT_TRUE(ctx.dom.dominates(candidate.region.header, block));
        }
    }
}

TEST(RegionFormationTest, MergingCoarsensRegions)
{
    auto module_merge = ir::parseModule(kProgram);
    auto module_flat = ir::parseModule(kProgram);

    const std::size_t merged =
        formedRegions(*module_merge, /*merge=*/true).size();
    const std::size_t flat =
        formedRegions(*module_flat, /*merge=*/false).size();
    EXPECT_LE(merged, flat);
    EXPECT_GT(flat, 1u);
}

TEST(Pipeline, InstrumentationPreservesSemantics)
{
    auto plain = ir::parseModule(kProgram);
    auto instrumented = ir::parseModule(kProgram);

    interp::Interpreter interp_plain(*plain);
    const interp::RunResult golden = interp_plain.run("main", {100});
    ASSERT_TRUE(golden.ok());

    EncoreConfig config;
    EncorePipeline pipeline(*instrumented, config);
    const EncoreReport report =
        pipeline.run({RunSpec{"main", {100}}});

    interp::Interpreter interp_inst(*instrumented);
    const interp::RunResult result = interp_inst.run("main", {100});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.return_value, golden.return_value);
    EXPECT_EQ(result.globals, golden.globals);
    EXPECT_GT(result.overhead_instrs, 0u);
    EXPECT_GT(report.regions.size(), 0u);
}

TEST(Pipeline, ReportAccounting)
{
    auto module = ir::parseModule(kProgram);
    EncoreConfig config;
    EncorePipeline pipeline(*module, config);
    const EncoreReport report = pipeline.run({RunSpec{"main", {100}}});

    EXPECT_GT(report.baseline_dyn_instrs, 0.0);

    // The three dynamic fractions must sum to (at most) 1 — every
    // region's dynamic instructions are counted exactly once.
    const double total = report.dynFractionIdempotent() +
                         report.dynFractionCheckpointed() +
                         report.dynFractionUnprotected();
    EXPECT_NEAR(total, 1.0, 1e-9);

    // The projected overhead respects the budget.
    EXPECT_LE(report.projectedOverheadFraction(),
              config.overhead_budget + 1e-9);

    // Measured overhead agrees with the projection (same input).
    interp::Interpreter interp(*module);
    const interp::RunResult run = interp.run("main", {100});
    ASSERT_TRUE(run.ok());
    const double measured =
        static_cast<double>(run.overhead_instrs) /
        static_cast<double>(run.dyn_instrs - run.overhead_instrs);
    EXPECT_NEAR(measured, report.projectedOverheadFraction(), 0.02);
}

TEST(Pipeline, BudgetCapsOverhead)
{
    auto module = ir::parseModule(kProgram);
    EncoreConfig config;
    config.overhead_budget = 0.02; // extremely tight
    EncorePipeline pipeline(*module, config);
    const EncoreReport report = pipeline.run({RunSpec{"main", {100}}});
    EXPECT_LE(report.projectedOverheadFraction(), 0.02 + 1e-9);
}

TEST(Pipeline, PrintedInstrumentedModuleReparses)
{
    auto module = ir::parseModule(kProgram);
    EncoreConfig config;
    EncorePipeline pipeline(*module, config);
    pipeline.run({RunSpec{"main", {50}}});
    const std::string printed = ir::moduleToString(*module);
    EXPECT_NE(printed.find("region.enter"), std::string::npos);
    auto reparsed = ir::parseModule(printed);
    EXPECT_EQ(ir::moduleToString(*reparsed), printed);
}

// ---------------------------------------------------------------------------
// Fault injection: executions must actually recover.
// ---------------------------------------------------------------------------

class InjectionFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        module = ir::parseModule(kProgram);
        EncoreConfig config;
        EncorePipeline pipeline(*module, config);
        report = pipeline.run({RunSpec{"main", {100}}});
        injector =
            std::make_unique<fault::FaultInjector>(*module, report);
        ASSERT_TRUE(injector->prepare("main", {100}));
    }

    std::unique_ptr<ir::Module> module;
    EncoreReport report;
    std::unique_ptr<fault::FaultInjector> injector;
};

TEST_F(InjectionFixture, GoldenRunSane)
{
    EXPECT_TRUE(injector->golden().ok());
    EXPECT_GT(injector->golden().value_instrs, 0u);
}

TEST_F(InjectionFixture, CampaignOutcomesAreClassified)
{
    fault::CampaignConfig config;
    config.trials = 300;
    config.seed = 7;
    config.trial.dmax = 100;
    const fault::CampaignResult result = injector->runCampaign(config);

    EXPECT_EQ(result.trials, 300u);
    // Masking is modelled at 91%: expect a dominant Masked bucket.
    EXPECT_GT(result.fraction(fault::FaultOutcome::Masked), 0.8);
    // Some faults recover through actual rollback.
    EXPECT_GT(result.count(fault::FaultOutcome::RecoveredIdempotent) +
                  result.count(fault::FaultOutcome::RecoveredCheckpoint),
              0u);
    // Recovery that executed must never produce a wrong output at
    // Pmin=0 on the training input (the analysis is sound there).
    EXPECT_EQ(result.count(fault::FaultOutcome::RecoveryFailed), 0u);
    EXPECT_GT(result.coveredFraction(), 0.9);
}

TEST_F(InjectionFixture, ShorterLatencyRecoversMore)
{
    fault::CampaignConfig config;
    config.trials = 400;
    config.seed = 11;
    config.model_masking = false; // isolate the recovery effect

    config.trial.dmax = 10;
    const auto fast = injector->runCampaign(config);
    config.trial.dmax = 1000;
    const auto slow = injector->runCampaign(config);

    const auto recovered = [](const fault::CampaignResult &r) {
        return r.count(fault::FaultOutcome::RecoveredIdempotent) +
               r.count(fault::FaultOutcome::RecoveredCheckpoint);
    };
    EXPECT_GT(recovered(fast), recovered(slow));
}

TEST_F(InjectionFixture, DeterministicForSameSeed)
{
    fault::CampaignConfig config;
    config.trials = 100;
    config.seed = 99;
    const auto a = injector->runCampaign(config);
    const auto b = injector->runCampaign(config);
    for (int i = 0;
         i < static_cast<int>(fault::FaultOutcome::NumOutcomes); ++i)
        EXPECT_EQ(a.counts[i], b.counts[i]);
}

} // namespace
} // namespace encore
