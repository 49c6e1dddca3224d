/**
 * @file
 * Unit tests for the fault-model and detector tables: lookup identity,
 * per-model draw disciplines (plan shape, bounds, determinism, the
 * recorded draw streams), and the capability bits the campaign layers
 * key off (anchored strike, replay-cost reporting).
 */
#include <gtest/gtest.h>

#include <set>

#include "fault/injector.h"
#include "fault/models/fault_model.h"
#include "support/checksum.h"
#include "support/rng.h"

namespace encore::fault::models {
namespace {

TEST(FaultModelRegistry, LookupByNameAndIdAgree)
{
    for (const std::string_view name : faultModelNames()) {
        const FaultModel *model = findFaultModel(name);
        ASSERT_NE(model, nullptr) << name;
        EXPECT_EQ(model->name(), name);
        EXPECT_EQ(faultModelById(
                      static_cast<std::uint32_t>(model->id())),
                  model);
    }
    for (const std::string_view name : detectorNames()) {
        const Detector *detector = findDetector(name);
        ASSERT_NE(detector, nullptr) << name;
        EXPECT_EQ(detector->name(), name);
        EXPECT_EQ(detectorById(
                      static_cast<std::uint32_t>(detector->id())),
                  detector);
    }
    EXPECT_EQ(findFaultModel("no-such-model"), nullptr);
    EXPECT_EQ(faultModelById(0xffffffffu), nullptr);
    EXPECT_EQ(findDetector("no-such-detector"), nullptr);
    EXPECT_EQ(detectorById(0xffffffffu), nullptr);
}

TEST(FaultModelRegistry, DefaultsAreTheLegacyScenario)
{
    ASSERT_NE(defaultFaultModel(), nullptr);
    ASSERT_NE(defaultDetector(), nullptr);
    EXPECT_EQ(defaultFaultModel()->name(), "reg-bit");
    EXPECT_EQ(defaultFaultModel()->id(), FaultModelId::RegBit);
    EXPECT_EQ(defaultDetector()->name(), "analytic");
    EXPECT_EQ(defaultDetector()->id(), DetectorId::Analytic);
}

TEST(FaultModelRegistry, IdsAreDurable)
{
    // These values live in trial-store headers: any renumbering
    // silently reinterprets old campaign data.
    EXPECT_EQ(findFaultModel("reg-bit")->id(), FaultModelId::RegBit);
    EXPECT_EQ(findFaultModel("multi-bit")->id(),
              FaultModelId::MultiBit);
    EXPECT_EQ(findFaultModel("cf-branch")->id(),
              FaultModelId::CfBranch);
    EXPECT_EQ(findFaultModel("mem-bus")->id(), FaultModelId::MemBus);
    EXPECT_EQ(findDetector("analytic")->id(), DetectorId::Analytic);
    EXPECT_EQ(findDetector("replay")->id(), DetectorId::Replay);
}

TEST(FaultModelRegistry, CapabilityBits)
{
    EXPECT_TRUE(findFaultModel("reg-bit")->anchoredStrike());
    EXPECT_TRUE(findFaultModel("multi-bit")->anchoredStrike());
    EXPECT_FALSE(findFaultModel("cf-branch")->anchoredStrike());
    EXPECT_FALSE(findFaultModel("mem-bus")->anchoredStrike());

    EXPECT_FALSE(findDetector("analytic")->reportsReplayCost());
    EXPECT_TRUE(findDetector("replay")->reportsReplayCost());
}

TEST(FaultModelRegistry, DrawsAreDeterministicPerStream)
{
    for (const std::string_view name : faultModelNames()) {
        const FaultModel &model = *findFaultModel(name);
        for (std::uint64_t trial = 0; trial < 16; ++trial) {
            Rng a = Rng::forStream(99, trial);
            Rng b = Rng::forStream(99, trial);
            const InjectionPlan pa = model.draw(a, 1000);
            const InjectionPlan pb = model.draw(b, 1000);
            EXPECT_EQ(pa.kind, pb.kind);
            EXPECT_EQ(pa.target_value_index, pb.target_value_index);
            EXPECT_EQ(pa.xor_mask, pb.xor_mask);
            EXPECT_EQ(pa.selector, pb.selector);
        }
    }
}

std::uint64_t
mixPlan(const InjectionPlan &plan, std::uint64_t hash)
{
    hash = fnv1a64Mix(static_cast<std::uint64_t>(plan.kind), hash);
    hash = fnv1a64Mix(plan.target_value_index, hash);
    hash = fnv1a64Mix(plan.xor_mask, hash);
    return fnv1a64Mix(plan.selector, hash);
}

std::uint64_t
mixPlan(const DetectionPlan &plan, std::uint64_t hash)
{
    hash = fnv1a64Mix(static_cast<std::uint64_t>(plan.kind), hash);
    hash = fnv1a64Mix(plan.latency, hash);
    return fnv1a64Mix(plan.window, hash);
}

TEST(FaultModelRegistry, DrawsMatchRecordedStreams)
{
    // Every draw is part of the durable format: a store or sidecar
    // written by one build is resumed and folded by another, which
    // only holds if trial t draws the same plan. Each hash covers the
    // plans of trials 0..999 and, after each plan, its stream's next
    // value, which pins how many draws the plan consumed. The values
    // were recorded from the class-per-model registry.
    constexpr std::uint64_t kTrials = 1000;
    const auto streamHash = [](const auto &draw) {
        std::uint64_t hash = fnv1a64("draws");
        for (std::uint64_t t = 0; t < kTrials; ++t) {
            Rng rng = Rng::forStream(2024, t);
            hash = mixPlan(draw(rng, t), hash);
            hash = fnv1a64Mix(rng(), hash);
        }
        return hash;
    };
    const std::pair<const char *, std::uint64_t> models[] = {
        {"reg-bit", 0x5b38e271bb64b6c6ULL},
        {"multi-bit", 0xe95a81a983fbe744ULL},
        {"cf-branch", 0xb8b658deca05696cULL},
        {"mem-bus", 0xbb354c2eafce5dd4ULL},
    };
    for (const auto &[name, recorded] : models) {
        const FaultModel &model = *findFaultModel(name);
        EXPECT_EQ(streamHash([&](Rng &rng, std::uint64_t t) {
                      return model.draw(rng, 1 + t * 7919);
                  }),
                  recorded)
            << name;
    }
    const std::pair<const char *, std::uint64_t> detectors[] = {
        {"analytic", 0xa0e4344d006f1d53ULL},
        {"replay", 0x4f4ab134d8b83cbbULL},
    };
    for (const auto &[name, recorded] : detectors) {
        const Detector &detector = *findDetector(name);
        EXPECT_EQ(streamHash([&](Rng &rng, std::uint64_t t) {
                      return detector.draw(rng, t % 3 == 0 ? 0 : t);
                  }),
                  recorded)
            << name;
    }

    // drawTrial: the masking coin at the paper's 0.91, then the
    // model's plan, then the detector's, for every pair.
    std::uint64_t hash = fnv1a64("drawTrial");
    for (const std::string_view m : faultModelNames())
        for (const std::string_view d : detectorNames()) {
            CampaignConfig config;
            config.seed = 77;
            config.masking_rate = 0.91;
            config.trial.dmax = 100;
            config.trial.model = findFaultModel(m);
            config.trial.detector = findDetector(d);
            for (std::uint64_t t = 0; t < kTrials; ++t) {
                const TrialDraw draw = drawTrial(config, t, 123457);
                hash = fnv1a64Mix(draw.masked ? 1 : 0, hash);
                hash = mixPlan(draw.detection, mixPlan(draw.plan, hash));
            }
        }
    EXPECT_EQ(hash, 0x0e5e4e4cf93428e2ULL);
}

TEST(FaultModel, RegBitDrawsSingleBitInRange)
{
    const FaultModel &model = *findFaultModel("reg-bit");
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        Rng rng = Rng::forStream(7, trial);
        const InjectionPlan plan = model.draw(rng, 500);
        EXPECT_EQ(plan.kind, InjectionPlan::Kind::RegFlip);
        EXPECT_LT(plan.target_value_index, 500u);
        // Exactly one bit set.
        EXPECT_NE(plan.xor_mask, 0u);
        EXPECT_EQ(plan.xor_mask & (plan.xor_mask - 1), 0u);
    }
}

TEST(FaultModel, MultiBitDrawsAdjacentBurst)
{
    const FaultModel &model = *findFaultModel("multi-bit");
    std::set<int> widths;
    for (std::uint64_t trial = 0; trial < 500; ++trial) {
        Rng rng = Rng::forStream(11, trial);
        const InjectionPlan plan = model.draw(rng, 500);
        EXPECT_EQ(plan.kind, InjectionPlan::Kind::RegFlip);
        EXPECT_LT(plan.target_value_index, 500u);
        ASSERT_NE(plan.xor_mask, 0u);
        // Contiguous run of 2-4 set bits: m >> ctz(m) is 2^w - 1.
        const std::uint64_t normalized =
            plan.xor_mask >> __builtin_ctzll(plan.xor_mask);
        EXPECT_EQ(normalized & (normalized + 1), 0u)
            << "non-contiguous mask " << plan.xor_mask;
        const int width = __builtin_popcountll(plan.xor_mask);
        EXPECT_GE(width, 2);
        EXPECT_LE(width, 4);
        widths.insert(width);
    }
    // Over 500 trials every burst width must occur.
    EXPECT_EQ(widths.size(), 3u);
}

TEST(FaultModel, CfBranchAndMemBusAnchorInRange)
{
    for (const char *name : {"cf-branch", "mem-bus"}) {
        const FaultModel &model = *findFaultModel(name);
        for (std::uint64_t trial = 0; trial < 200; ++trial) {
            Rng rng = Rng::forStream(13, trial);
            const InjectionPlan plan = model.draw(rng, 700);
            EXPECT_EQ(plan.kind,
                      model.id() == FaultModelId::CfBranch
                          ? InjectionPlan::Kind::BranchRedirect
                          : InjectionPlan::Kind::MemBus)
                << name;
            EXPECT_LT(plan.target_value_index, 700u) << name;
        }
    }
}

TEST(Detector, AnalyticLatencyBoundedByDmax)
{
    const Detector &detector = *findDetector("analytic");
    bool saw_nonzero = false;
    for (std::uint64_t trial = 0; trial < 200; ++trial) {
        Rng rng = Rng::forStream(17, trial);
        const DetectionPlan plan = detector.draw(rng, 100);
        EXPECT_EQ(plan.kind, DetectionPlan::Kind::Latency);
        EXPECT_LE(plan.latency, 100u);
        saw_nonzero |= plan.latency > 0;
    }
    EXPECT_TRUE(saw_nonzero);

    Rng rng = Rng::forStream(17, 0);
    EXPECT_EQ(detector.draw(rng, 0).latency, 0u);
}

TEST(Detector, ReplayWindowConsumesNoDraws)
{
    // The replay detector's window is a pure function of Dmax; it must
    // not consume Rng draws, so trial streams stay aligned with the
    // analytic detector's.
    const Detector &detector = *findDetector("replay");
    Rng rng = Rng::forStream(23, 5);
    const std::uint64_t before = rng();
    Rng replay_rng = Rng::forStream(23, 5);
    const DetectionPlan plan = detector.draw(replay_rng, 80);
    EXPECT_EQ(plan.kind, DetectionPlan::Kind::ReplayWindow);
    EXPECT_EQ(plan.window, 80u);
    EXPECT_EQ(replay_rng(), before);

    Rng zero = Rng::forStream(23, 6);
    EXPECT_EQ(detector.draw(zero, 0).window, 1u);
}

} // namespace
} // namespace encore::fault::models
