/**
 * @file
 * Tests for the detection-latency model (Equation 7) and the
 * profile-driven cost model.
 */
#include <gtest/gtest.h>

#include "encore/cost_model.h"
#include "encore/detection_model.h"
#include "encore/idempotence.h"
#include "interp/interpreter.h"
#include "ir/parser.h"

namespace encore {
namespace {

TEST(DetectionModel, ClosedFormBranches)
{
    // n >= Dmax: alpha = 1 - Dmax/(2n).
    EXPECT_DOUBLE_EQ(alphaUniform(1000, 100), 1.0 - 100.0 / 2000.0);
    EXPECT_DOUBLE_EQ(alphaUniform(100, 100), 0.5);
    // n < Dmax: alpha = n/(2 Dmax).
    EXPECT_DOUBLE_EQ(alphaUniform(50, 1000), 50.0 / 2000.0);
}

TEST(DetectionModel, Extremes)
{
    EXPECT_DOUBLE_EQ(alphaUniform(0, 100), 0.0);
    EXPECT_DOUBLE_EQ(alphaUniform(-5, 100), 0.0);
    EXPECT_DOUBLE_EQ(alphaUniform(100, 0), 1.0);
    // Huge regions approach full recoverability.
    EXPECT_GT(alphaUniform(1e9, 10), 0.999999);
}

TEST(DetectionModel, Monotonicity)
{
    // Larger regions recover more; longer latencies recover less.
    double prev = 0.0;
    for (double n : {10.0, 50.0, 100.0, 500.0, 5000.0}) {
        const double alpha = alphaUniform(n, 100);
        EXPECT_GE(alpha, prev);
        prev = alpha;
    }
    prev = 1.0;
    for (double dmax : {1.0, 10.0, 100.0, 1000.0}) {
        const double alpha = alphaUniform(200, dmax);
        EXPECT_LE(alpha, prev);
        prev = alpha;
    }
}

// Property-style sweep: the numeric double integral must agree with the
// closed form across the (n, Dmax) plane.
struct AlphaCase
{
    double n;
    double dmax;
};

class AlphaAgreement : public ::testing::TestWithParam<AlphaCase>
{
};

TEST_P(AlphaAgreement, NumericMatchesClosedForm)
{
    const auto [n, dmax] = GetParam();
    const double closed = alphaUniform(n, dmax);
    const double numeric = alphaNumericUniform(n, dmax, 600);
    EXPECT_NEAR(numeric, closed, 5e-3) << "n=" << n << " dmax=" << dmax;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlphaAgreement,
    ::testing::Values(AlphaCase{10, 10}, AlphaCase{10, 100},
                      AlphaCase{10, 1000}, AlphaCase{100, 10},
                      AlphaCase{100, 100}, AlphaCase{100, 1000},
                      AlphaCase{1000, 10}, AlphaCase{1000, 100},
                      AlphaCase{1000, 1000}, AlphaCase{37, 91},
                      AlphaCase{91, 37}, AlphaCase{500, 499}));

TEST(DetectionModel, NonUniformLatency)
{
    // A latency density concentrated near zero recovers more than the
    // uniform one for the same Dmax.
    auto fast = [](double l) { return 1.0 / (1.0 + l); };
    auto uniform = [](double) { return 1.0; };
    const double fast_alpha = alphaNumeric(200, 400, fast, uniform);
    const double uniform_alpha = alphaNumericUniform(200, 400);
    EXPECT_GT(fast_alpha, uniform_alpha);
}

// ---------------------------------------------------------------------------

const char *kCostText = R"(
module "m"
global @A 64
global @H 16
func @f(1) {
  bb entry:
    r1 = mov 0
    r2 = mov 0
    jmp loop
  bb loop:
    r3 = load [@A + r1]
    r4 = and r3, 15
    r5 = load [@H + r4]
    r6 = add r5, 1
    store [@H + r4], r6
    r2 = add r2, r3
    r1 = add r1, 1
    r7 = cmplt r1, r0
    br r7, loop, done
  bb done:
    ret r2
}
)";

class CostFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        module = ir::parseModule(kCostText);
        interp::Interpreter interp(*module);
        interp::Profiler profiler(profile);
        interp.setHooks(&profiler);
        ASSERT_TRUE(interp.run("f", {32}).ok());

        aa = std::make_unique<analysis::StaticAliasAnalysis>(*module);
        summaries = std::make_unique<CallSummaries>(*module, *aa);
        IdempotenceAnalysis::Options options;
        idem = std::make_unique<IdempotenceAnalysis>(*module, *aa,
                                                     *summaries, &profile,
                                                     options);
        liveness = std::make_unique<analysis::Liveness>(
            *module->functionByName("f"));
    }

    Region
    loopRegion()
    {
        const ir::Function *f = module->functionByName("f");
        Region region;
        region.func = f;
        region.header = f->blockByName("loop")->id();
        region.blocks = {f->blockByName("loop")->id()};
        return region;
    }

    std::unique_ptr<ir::Module> module;
    interp::ProfileData profile;
    std::unique_ptr<analysis::StaticAliasAnalysis> aa;
    std::unique_ptr<CallSummaries> summaries;
    std::unique_ptr<IdempotenceAnalysis> idem;
    std::unique_ptr<analysis::Liveness> liveness;
};

TEST_F(CostFixture, RegisterCheckpointsAreLiveInOverwritten)
{
    const auto regs = regionRegisterCheckpoints(loopRegion(), *liveness);
    // r1 (index) and r2 (accumulator) are loop-carried; r0 is read-only
    // and r3..r7 are defined before use.
    EXPECT_EQ(regs, (std::vector<ir::RegId>{1, 2}));
}

TEST_F(CostFixture, CostsReflectProfile)
{
    const Region region = loopRegion();
    const IdempotenceResult analysis = idem->analyzeRegion(region);
    ASSERT_EQ(analysis.cls, RegionClass::NonIdempotent);
    ASSERT_EQ(analysis.checkpoint_stores.size(), 1u); // the histogram

    CostModel model(profile);
    const RegionCost cost = model.evaluate(region, analysis, *liveness);

    // One entry from outside; the instance spans all 32 iterations.
    EXPECT_DOUBLE_EQ(cost.entries, 1.0);
    // 9 real instructions per iteration, 32 iterations per instance.
    EXPECT_DOUBLE_EQ(cost.hot_path_length, 9.0 * 32.0);
    // Per instance: 1 enter + 2 reg ckpts + 32 dynamic mem ckpts.
    EXPECT_DOUBLE_EQ(cost.ckpt_per_entry, 35.0);
    EXPECT_DOUBLE_EQ(cost.overhead_instrs, 35.0);
    EXPECT_EQ(cost.static_mem_ckpts, 1u);
    EXPECT_EQ(cost.static_reg_ckpts, 2u);
    // Storage: 32 iterations * 16 B memory undo + 2*8 B registers —
    // a histogram loop's log grows with the trip count, which is what
    // the storage budget in region selection guards against.
    EXPECT_DOUBLE_EQ(cost.storage_bytes, 32.0 * 16.0 + 16.0);
    EXPECT_GT(cost.cost(), 0.0);
    EXPECT_DOUBLE_EQ(cost.coverage(), 288.0);
}

TEST_F(CostFixture, UnprofiledRegionHasStaticFallback)
{
    interp::ProfileData empty;
    CostModel model(empty);
    const Region region = loopRegion();
    const IdempotenceResult analysis = idem->analyzeRegion(region);
    const RegionCost cost = model.evaluate(region, analysis, *liveness);
    EXPECT_DOUBLE_EQ(cost.entries, 0.0);
    EXPECT_DOUBLE_EQ(cost.overhead_instrs, 0.0);
    EXPECT_GT(cost.ckpt_per_entry, 0.0);
}

} // namespace
} // namespace encore
