/**
 * @file
 * Parameterized tests over all 23 synthetic workloads: structural
 * well-formedness, deterministic execution, Encore pipeline success,
 * semantic preservation under instrumentation, and a fault-injection
 * smoke test per benchmark.
 */
#include <gtest/gtest.h>

#include "encore/pipeline.h"
#include "fault/injector.h"
#include "interp/interpreter.h"
#include "interp/profile.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "workloads/workload.h"

namespace encore::workloads {
namespace {

class WorkloadTest : public ::testing::TestWithParam<const char *>
{
  protected:
    const Workload &
    workload() const
    {
        const Workload *w = findWorkload(GetParam());
        EXPECT_NE(w, nullptr);
        return *w;
    }
};

TEST_P(WorkloadTest, BuildsAndVerifies)
{
    const Workload &w = workload();
    auto module = w.build();
    ASSERT_NE(module, nullptr);
    EXPECT_EQ(module->name(), w.name);
    const auto problems = ir::verifyModule(*module);
    for (const auto &p : problems)
        ADD_FAILURE() << p;
    EXPECT_NE(module->functionByName(w.entry), nullptr);
}

TEST_P(WorkloadTest, RunsDeterministically)
{
    const Workload &w = workload();
    auto module = w.build();
    interp::Interpreter interp(*module);

    const interp::RunResult a = interp.run(w.entry, w.train_args);
    ASSERT_TRUE(a.ok()) << a.error;
    EXPECT_GT(a.dyn_instrs, 1000u) << "workload too small to be useful";
    EXPECT_LT(a.dyn_instrs, 5'000'000u) << "workload too large";

    const interp::RunResult b = interp.run(w.entry, w.train_args);
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a.sameOutput(b));

    // Ref input also runs, and differs from train (different work).
    const interp::RunResult ref = interp.run(w.entry, w.ref_args);
    ASSERT_TRUE(ref.ok()) << ref.error;
    EXPECT_GT(ref.dyn_instrs, a.dyn_instrs);
}

TEST_P(WorkloadTest, RoundTripsThroughText)
{
    const Workload &w = workload();
    auto module = w.build();
    const std::string printed = ir::moduleToString(*module);
    auto reparsed = ir::parseModule(printed);
    EXPECT_EQ(ir::moduleToString(*reparsed), printed);
}

TEST_P(WorkloadTest, PipelinePreservesSemantics)
{
    const Workload &w = workload();
    auto plain = w.build();
    auto instrumented = w.build();

    interp::Interpreter golden_interp(*plain);
    const interp::RunResult golden =
        golden_interp.run(w.entry, w.ref_args);
    ASSERT_TRUE(golden.ok());

    EncoreConfig config;
    config.opaque_functions = w.opaque;
    EncorePipeline pipeline(*instrumented, config);
    const EncoreReport report =
        pipeline.run({RunSpec{w.entry, w.train_args}});

    EXPECT_FALSE(report.regions.empty());
    EXPECT_LE(report.projectedOverheadFraction(),
              config.overhead_budget + 1e-9);

    interp::Interpreter interp(*instrumented);
    const interp::RunResult result = interp.run(w.entry, w.ref_args);
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.return_value, golden.return_value);
    EXPECT_EQ(result.globals, golden.globals);
}

TEST_P(WorkloadTest, ProfileCollectorMatchesReferenceProfilers)
{
    // The analysis pipeline profiles with ProfileCollector; Profiler +
    // AddressProfiler are its reference. The train input runs once per
    // profiler, each installed as the run's only hooks.
    const Workload &w = workload();
    auto module = w.build();
    module->resolveCalls();
    interp::ProfileData reference;
    analysis::DynamicAddressProfile reference_addrs;
    interp::Profiler profiler(reference);
    interp::AddressProfiler addr_profiler(reference_addrs);
    interp::ProfileCollector collector(*module);
    interp::Interpreter interp(*module);
    interp::ExecHooks *const profilers[] = {&profiler, &addr_profiler,
                                            &collector};
    for (interp::ExecHooks *hooks : profilers) {
        interp.setHooks(hooks);
        ASSERT_TRUE(interp.run(w.entry, w.train_args).ok());
    }
    interp::ProfileData collected;
    analysis::DynamicAddressProfile collected_addrs;
    collector.exportTo(collected, collected_addrs);

    EXPECT_EQ(collected.totalDynInstrs(), reference.totalDynInstrs());
    std::size_t memory_insts = 0;
    for (const auto &func : module->functions()) {
        for (const auto &from : func->blocks()) {
            const ir::BlockId id = from->id();
            EXPECT_EQ(collected.blockCount(*func, id),
                      reference.blockCount(*func, id))
                << func->name() << " block " << id;
            EXPECT_EQ(collected.externalEntries(*func, id),
                      reference.externalEntries(*func, id))
                << func->name() << " block " << id;
            for (const auto &to : func->blocks()) {
                EXPECT_EQ(collected.edgeCount(*func, id, to->id()),
                          reference.edgeCount(*func, id, to->id()))
                    << func->name() << " edge " << id << "->" << to->id();
            }
            for (const ir::Instruction &inst : from->instructions()) {
                const analysis::AddrObservation *want =
                    reference_addrs.find(&inst);
                const analysis::AddrObservation *got =
                    collected_addrs.find(&inst);
                ASSERT_EQ(got == nullptr, want == nullptr)
                    << func->name() << " block " << id;
                if (!want)
                    continue;
                ++memory_insts;
                EXPECT_EQ(got->overflow, want->overflow);
                EXPECT_EQ(got->addrs, want->addrs);
                EXPECT_EQ(got->objects, want->objects);
            }
        }
    }
    EXPECT_EQ(collected_addrs.observations.size(),
              reference_addrs.observations.size());
    EXPECT_GT(memory_insts, 0u);
}

TEST_P(WorkloadTest, InjectionSmokeTest)
{
    const Workload &w = workload();
    auto module = w.build();
    EncoreConfig config;
    config.opaque_functions = w.opaque;
    EncorePipeline pipeline(*module, config);
    const EncoreReport report =
        pipeline.run({RunSpec{w.entry, w.train_args}});

    fault::FaultInjector injector(*module, report);
    ASSERT_TRUE(injector.prepare(w.entry, w.train_args));

    fault::CampaignConfig campaign;
    campaign.trials = 40;
    campaign.seed = 2026;
    campaign.model_masking = false; // exercise real injections
    campaign.trial.dmax = 100;
    const fault::CampaignResult result = injector.runCampaign(campaign);
    EXPECT_EQ(result.trials, 40u);

    // At Pmin = 0 with training inputs the analysis is sound: executed
    // rollbacks must never corrupt the output.
    EXPECT_EQ(result.count(fault::FaultOutcome::RecoveryFailed), 0u)
        << "recovery executed but produced a wrong result";
}

std::vector<const char *>
workloadNames()
{
    std::vector<const char *> names;
    for (const Workload &w : allWorkloads())
        names.push_back(w.name.c_str());
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadTest, ::testing::ValuesIn(workloadNames()),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

TEST(Registry, SuitesAreComplete)
{
    EXPECT_EQ(allWorkloads().size(), 23u);
    EXPECT_EQ(workloadsInSuite("SPEC2K-INT").size(), 6u);
    EXPECT_EQ(workloadsInSuite("SPEC2K-FP").size(), 5u);
    EXPECT_EQ(workloadsInSuite("MEDIABENCH").size(), 12u);
    EXPECT_EQ(findWorkload("no-such-thing"), nullptr);
}

} // namespace
} // namespace encore::workloads
