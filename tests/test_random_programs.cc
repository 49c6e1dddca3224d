/**
 * @file
 * Property tests over randomly generated programs.
 *
 * A seeded generator emits structured random modules (nested loops,
 * branches, bounded memory accesses, helper calls). For every seed the
 * whole stack must uphold its contracts:
 *
 *   - the module verifies and executes deterministically;
 *   - printing and re-parsing is a fixed point;
 *   - the Encore pipeline preserves semantics exactly;
 *   - injected faults never yield a corrupted output after a rollback
 *     that claimed to succeed (RecoveryFailed == 0 at Pmin = 0).
 */
#include <gtest/gtest.h>

#include "encore/pipeline.h"
#include "fault/injector.h"
#include "interp/interpreter.h"
#include "interp/reference.h"
#include "ir/builder.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/rng.h"

namespace encore {
namespace {

using B = ir::IRBuilder;

/**
 * Structured random program generator. All memory accesses are masked
 * into bounds (object sizes are powers of two) and all loops have
 * bounded trip counts, so every generated program terminates.
 */
class Generator
{
  public:
    explicit Generator(std::uint64_t seed) : rng_(seed) {}

    std::unique_ptr<ir::Module>
    generate()
    {
        auto module = std::make_unique<ir::Module>(
            "fuzz." + std::to_string(rng_())); // name only
        B b(module.get());

        const int num_globals = 2 + static_cast<int>(rng_.below(3));
        for (int g = 0; g < num_globals; ++g) {
            const std::uint32_t size = 16u << rng_.below(3); // 16/32/64
            globals_.push_back(
                b.global(std::string("g").append(std::to_string(g)),
                         size));
            global_sizes_.push_back(size);
        }

        // Zero to two helper functions, possibly with side effects.
        const int num_helpers = static_cast<int>(rng_.below(3));
        for (int h = 0; h < num_helpers; ++h) {
            const std::string name = "helper" + std::to_string(h);
            b.beginFunction(name, 1);
            emitStatements(b, 2, /*depth=*/1);
            b.ret(B::reg(anyReg(b)));
            b.endFunction();
            helpers_.push_back(name);
        }

        b.beginFunction("main", 1);
        emitStatements(b, 4 + static_cast<int>(rng_.below(4)),
                       /*depth=*/0);
        b.ret(B::reg(anyReg(b)));
        b.endFunction();

        module->resolveCalls();
        return module;
    }

  private:
    /// A register that surely holds some value (parameter or temp).
    ir::RegId
    anyReg(B &)
    {
        if (temps_.empty() || rng_.chance(0.2))
            return 0; // the parameter
        return temps_[rng_.below(temps_.size())];
    }

    ir::Operand
    anyOperand(B &b)
    {
        if (rng_.chance(0.3))
            return B::imm(rng_.range(-64, 64));
        return B::reg(anyReg(b));
    }

    /// A bounded address into a random global.
    ir::AddrExpr
    anyAddr(B &b)
    {
        const std::size_t g = rng_.below(globals_.size());
        if (rng_.chance(0.4)) {
            return ir::AddrExpr::makeObject(
                globals_[g],
                B::imm(static_cast<std::int64_t>(
                    rng_.below(global_sizes_[g]))));
        }
        const auto masked = b.band(B::reg(anyReg(b)),
                                   B::imm(global_sizes_[g] - 1));
        temps_.push_back(masked);
        return ir::AddrExpr::makeObject(globals_[g], B::reg(masked));
    }

    void
    emitStatements(B &b, int count, int depth)
    {
        for (int s = 0; s < count; ++s) {
            switch (rng_.below(depth < 2 ? 7 : 5)) {
              case 0: { // arithmetic
                static const ir::Opcode ops[] = {
                    ir::Opcode::Add, ir::Opcode::Sub, ir::Opcode::Mul,
                    ir::Opcode::And, ir::Opcode::Or,  ir::Opcode::Xor,
                    ir::Opcode::Shr};
                temps_.push_back(b.emit(ops[rng_.below(7)],
                                        anyOperand(b), anyOperand(b)));
                break;
              }
              case 1: // load
                temps_.push_back(b.load(anyAddr(b)));
                break;
              case 2: // store
                b.store(anyAddr(b), anyOperand(b));
                break;
              case 3: { // call (if helpers exist)
                if (helpers_.empty()) {
                    temps_.push_back(b.mov(anyOperand(b)));
                } else {
                    temps_.push_back(b.call(
                        helpers_[rng_.below(helpers_.size())],
                        {anyOperand(b)}));
                }
                break;
              }
              case 4: { // select
                temps_.push_back(b.select(anyOperand(b), anyOperand(b),
                                          anyOperand(b)));
                break;
              }
              case 5: { // if/else
                auto *then_bb = b.newBlock(label("then"));
                auto *else_bb = b.newBlock(label("else"));
                auto *join = b.newBlock(label("join"));
                const auto cond = b.cmpLt(anyOperand(b), anyOperand(b));
                b.br(B::reg(cond), then_bb, else_bb);
                b.setInsertPoint(then_bb);
                emitStatements(b, 1 + static_cast<int>(rng_.below(3)),
                               depth + 1);
                b.jmp(join);
                b.setInsertPoint(else_bb);
                emitStatements(b, 1 + static_cast<int>(rng_.below(3)),
                               depth + 1);
                b.jmp(join);
                b.setInsertPoint(join);
                break;
              }
              case 6: { // bounded counted loop
                auto *head = b.newBlock(label("loop"));
                auto *body = b.newBlock(label("body"));
                auto *exit = b.newBlock(label("exit"));
                const std::int64_t trips =
                    2 + static_cast<std::int64_t>(rng_.below(7));
                const auto i = b.mov(B::imm(0));
                b.jmp(head);
                b.setInsertPoint(head);
                const auto c = b.cmpLt(B::reg(i), B::imm(trips));
                b.br(B::reg(c), body, exit);
                b.setInsertPoint(body);
                emitStatements(b, 1 + static_cast<int>(rng_.below(3)),
                               depth + 1);
                b.addTo(i, B::reg(i), B::imm(1));
                b.jmp(head);
                b.setInsertPoint(exit);
                temps_.push_back(i);
                break;
              }
            }
        }
    }

    std::string
    label(const char *stem)
    {
        return std::string(stem) + std::to_string(next_label_++);
    }

    Rng rng_;
    std::vector<ir::ObjectId> globals_;
    std::vector<std::uint32_t> global_sizes_;
    std::vector<std::string> helpers_;
    std::vector<ir::RegId> temps_;
    int next_label_ = 0;
};

class RandomProgram : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomProgram, VerifiesAndRunsDeterministically)
{
    Generator gen(GetParam());
    auto module = gen.generate();
    const auto problems = ir::verifyModule(*module);
    for (const auto &p : problems)
        ADD_FAILURE() << p;

    interp::Interpreter interp(*module);
    interp.setMaxInstructions(2'000'000);
    const auto a = interp.run("main", {GetParam() % 97});
    ASSERT_TRUE(a.ok()) << a.error;
    const auto b = interp.run("main", {GetParam() % 97});
    ASSERT_TRUE(b.ok());
    EXPECT_TRUE(a.sameOutput(b));
}

TEST_P(RandomProgram, TextRoundTripIsFixedPoint)
{
    Generator gen(GetParam());
    auto module = gen.generate();
    const std::string printed = ir::moduleToString(*module);
    auto reparsed = ir::parseModule(printed);
    EXPECT_EQ(ir::moduleToString(*reparsed), printed);
}

TEST_P(RandomProgram, PipelinePreservesSemantics)
{
    Generator golden_gen(GetParam());
    auto plain = golden_gen.generate();
    Generator gen(GetParam());
    auto module = gen.generate();

    interp::Interpreter plain_interp(*plain);
    const auto golden = plain_interp.run("main", {7});
    ASSERT_TRUE(golden.ok()) << golden.error;

    EncoreConfig config;
    EncorePipeline pipeline(*module, config);
    const EncoreReport report = pipeline.run({RunSpec{"main", {7}}});
    EXPECT_LE(report.projectedOverheadFraction(),
              config.overhead_budget + 1e-9);

    interp::Interpreter interp(*module);
    const auto result = interp.run("main", {7});
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.return_value, golden.return_value);
    EXPECT_EQ(result.globals, golden.globals);
}

TEST_P(RandomProgram, InjectedFaultsNeverCorruptAfterRollback)
{
    Generator gen(GetParam());
    auto module = gen.generate();
    EncoreConfig config;
    EncorePipeline pipeline(*module, config);
    const EncoreReport report = pipeline.run({RunSpec{"main", {7}}});

    fault::FaultInjector injector(*module, report);
    ASSERT_TRUE(injector.prepare("main", {7}));
    fault::CampaignConfig campaign;
    campaign.trials = 25;
    campaign.seed = GetParam() * 31 + 5;
    campaign.model_masking = false;
    campaign.trial.dmax = 60;
    const auto result = injector.runCampaign(campaign);
    EXPECT_EQ(result.count(fault::FaultOutcome::RecoveryFailed), 0u);
}

/// Every RunResult field the two engines must agree on, bit for bit.
void
expectSameRun(const interp::RunResult &ref, const interp::RunResult &dec)
{
    EXPECT_EQ(static_cast<int>(ref.status), static_cast<int>(dec.status));
    EXPECT_EQ(ref.error, dec.error);
    EXPECT_EQ(ref.return_value, dec.return_value);
    EXPECT_EQ(ref.dyn_instrs, dec.dyn_instrs);
    EXPECT_EQ(ref.value_instrs, dec.value_instrs);
    EXPECT_EQ(ref.overhead_instrs, dec.overhead_instrs);
    EXPECT_EQ(ref.rollbacks, dec.rollbacks);
    EXPECT_EQ(ref.globals, dec.globals);
}

TEST_P(RandomProgram, FlatEnginesMatchReferenceEngine)
{
    // Plain module: the flat-bytecode engine must reproduce the
    // tree-walking reference engine's RunResult exactly.
    {
        Generator gen(GetParam());
        auto module = gen.generate();
        interp::ReferenceInterpreter ref(*module);
        ref.setMaxInstructions(2'000'000);
        interp::Interpreter flat(*module);
        flat.setMaxInstructions(2'000'000);
        expectSameRun(ref.run("main", {GetParam() % 97}),
                      flat.run("main", {GetParam() % 97}));
    }

    // Instrumented module: the recovery pseudo-ops (region.enter,
    // ckpt.*, restore) must decode and count identically too.
    Generator gen(GetParam());
    auto module = gen.generate();
    EncoreConfig config;
    EncorePipeline pipeline(*module, config);
    pipeline.run({RunSpec{"main", {7}}});

    interp::ReferenceInterpreter ref(*module);
    ref.setMaxInstructions(2'000'000);
    interp::Interpreter flat(*module);
    flat.setMaxInstructions(2'000'000);
    expectSameRun(ref.run("main", {7}), flat.run("main", {7}));
}

TEST_P(RandomProgram, CampaignBitIdenticalAcrossJobCounts)
{
    Generator gen(GetParam());
    auto module = gen.generate();
    EncoreConfig config;
    EncorePipeline pipeline(*module, config);
    const EncoreReport report = pipeline.run({RunSpec{"main", {7}}});

    fault::FaultInjector injector(*module, report);
    ASSERT_TRUE(injector.prepare("main", {7}));

    fault::CampaignConfig campaign;
    campaign.trials = 40;
    campaign.seed = GetParam() * 17 + 3;
    campaign.trial.dmax = 60;

    campaign.jobs = 1;
    const auto sequential = injector.runCampaign(campaign);
    campaign.jobs = 4;
    const auto parallel = injector.runCampaign(campaign);

    EXPECT_EQ(sequential.trials, parallel.trials);
    for (int i = 0; i < static_cast<int>(fault::FaultOutcome::NumOutcomes);
         ++i) {
        EXPECT_EQ(sequential.counts[i], parallel.counts[i])
            << "outcome bucket " << i << " diverged between jobs=1 and "
            << "jobs=4";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Range<std::uint64_t>(1, 41));

} // namespace
} // namespace encore
