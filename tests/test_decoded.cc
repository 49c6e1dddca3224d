/**
 * @file
 * Tests of the pre-decoded flat bytecode engine: structural properties
 * of the DecodedModule cache, differential equivalence against the
 * tree-walking reference engine (including detection/rollback through
 * the recovery runtime), cache sharing across interpreters, and the
 * pooled-interpreter reuse contract.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "interp/decoded.h"
#include "interp/interpreter.h"
#include "interp/reference.h"
#include "ir/parser.h"

namespace encore::interp {
namespace {

std::unique_ptr<ir::Module>
parse(const char *text)
{
    return ir::parseModule(text);
}

// Mirrors the hand-instrumented region from test_interp.cc: the entry
// checkpoints r1 and @A+0, the region computes A[0] += r0 and r1 *= 2,
// and the recovery block restores and re-enters the region header.
const char *kInstrumentedText = R"(
module "m"
global @A 4
func @main(1) {
  bb entry:
    r1 = mov 21
    store [@A], 100
    jmp region
  bb region:
    region.enter 0
    ckpt.reg r1
    r2 = load [@A]
    ckpt.mem [@A]
    r3 = add r2, r0
    store [@A], r3
    r1 = mul r1, 2
    jmp tail
  bb tail:
    r4 = load [@A]
    r5 = add r4, r1
    ret r5
  bb __recover.0:
    restore 0
    jmp region
}
)";

std::unique_ptr<ir::Module>
parseInstrumented()
{
    auto module = parse(kInstrumentedText);
    // Wire the recovery block into region.enter (the parser cannot
    // express the recovery-target link).
    ir::Function *f = module->functionByName("main");
    f->blockByName("region")->instructions().front().setSucc0(
        f->blockByName("__recover.0"));
    return module;
}

void
expectSameRun(const RunResult &ref, const RunResult &dec)
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

TEST(Decoded, StructuralLayout)
{
    auto module = parse(R"(
module "m"
global @G 8
func @helper(1) {
  bb entry:
    r1 = add r0, 1
    ret r1
}
func @main(1) {
  bb entry:
    r1 = cmplt r0, 10
    br r1, then, done
  bb then:
    r2 = call @helper(r0)
    store [@G], r2
    jmp done
  bb done:
    r3 = load [@G]
    ret r3
}
)");
    module->resolveCalls();
    DecodedModule decoded(*module);
    ASSERT_EQ(decoded.numFunctions(), 2u);
    EXPECT_EQ(&decoded.module(), module.get());

    const DecodedFunction *main_fn = decoded.functionByName("main");
    ASSERT_NE(main_fn, nullptr);
    EXPECT_EQ(decoded.functionByName("nope"), nullptr);

    const ir::Function *src = module->functionByName("main");
    EXPECT_EQ(main_fn->src, src);
    EXPECT_EQ(main_fn->blocks.size(), src->blocks().size());

    // Blocks are laid out contiguously in block-id order: each block's
    // first instruction sits right after the previous block's last, so
    // straight-line execution is ip+1.
    std::uint32_t expected_first = 0;
    for (std::size_t i = 0; i < main_fn->blocks.size(); ++i) {
        const DecodedBlock &db = main_fn->blocks[i];
        EXPECT_EQ(db.first, expected_first);
        ASSERT_NE(db.bb, nullptr);
        EXPECT_EQ(db.bb->id(), i);
        expected_first +=
            static_cast<std::uint32_t>(db.bb->instructions().size());
    }
    EXPECT_EQ(main_fn->code.size(), expected_first);

    // Every decoded instruction keeps its source pointer and the
    // branch resolves to block indices, not pointers.
    for (const DecodedInst &inst : main_fn->code)
        EXPECT_NE(inst.src, nullptr);
    const DecodedInst &br =
        main_fn->code[main_fn->blocks[0].first + 1];
    ASSERT_EQ(br.op, ir::Opcode::Br);
    EXPECT_LT(br.target0, main_fn->blocks.size());
    EXPECT_LT(br.target1, main_fn->blocks.size());
    EXPECT_NE(br.target0, br.target1);

    // The call resolves to the callee's index in the decoded module
    // and its argument list lives in the shared args pool.
    const DecodedInst &call =
        main_fn->code[main_fn->blocks[1].first];
    ASSERT_EQ(call.op, ir::Opcode::Call);
    const DecodedFunction &callee = decoded.function(call.callee);
    EXPECT_EQ(callee.src, module->functionByName("helper"));
    ASSERT_EQ(call.args_count, 1u);
    // Register operands keep their id as the slot; immediates would
    // land at or above num_regs (in the materialized pool).
    const DecodedOperand &arg =
        main_fn->args_pool[call.args_first];
    EXPECT_LT(arg.slot, main_fn->num_regs);
    EXPECT_EQ(arg.slot, 0u);
}

TEST(Decoded, RefusesABlockWithoutATerminator)
{
    // The dispatch loop has no fell-off-the-block check: it relies on
    // every block ending in a terminator, which decoding enforces.
    auto module = parse(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = add r0, 1
    jmp tail
  bb tail:
    r2 = add r1, 1
}
)");
    EXPECT_DEATH(DecodedModule{*module},
                 "block 'tail' of 'main' does not end in a terminator");
}

TEST(Decoded, MatchesReferenceOnPlainModule)
{
    auto ref_module = parse(kInstrumentedText);
    auto dec_module = parse(kInstrumentedText);
    ReferenceInterpreter ref(*ref_module);
    Interpreter dec(*dec_module);
    expectSameRun(ref.run("main", {7}), dec.run("main", {7}));
}

/// Fires one detection at a fixed dynamic instruction index.
class DetectAt : public ExecHooks
{
  public:
    explicit DetectAt(std::uint64_t at) : at_(at) {}

    bool
    shouldTriggerDetection(const ir::Instruction &,
                           std::uint64_t dyn_index) override
    {
        if (fired_ || dyn_index != at_)
            return false;
        fired_ = true;
        return true;
    }

    bool fired_ = false;

  private:
    std::uint64_t at_;
};

TEST(Decoded, DetectionAndRollbackMatchReference)
{
    auto module = parseInstrumented();
    // Detection at every dynamic instruction of the clean schedule:
    // outside the region (unrecoverable) and at each point inside it
    // (rollback + re-execution). Both engines must agree bit for bit —
    // status, counters, and final memory.
    for (std::uint64_t at = 0; at <= 11; ++at) {
        ReferenceInterpreter ref(*module);
        DetectAt ref_hooks(at);
        ref.setHooks(&ref_hooks);
        const RunResult ref_result = ref.run("main", {7});

        Interpreter dec(*module);
        DetectAt dec_hooks(at);
        dec.setHooks(&dec_hooks);
        const RunResult dec_result = dec.run("main", {7});

        EXPECT_EQ(ref_hooks.fired_, dec_hooks.fired_)
            << "detection at " << at;
        expectSameRun(ref_result, dec_result);
    }
}

TEST(Decoded, SharedCacheAcrossInterpreters)
{
    auto module = parseInstrumented();
    auto cache = std::make_shared<const DecodedModule>(*module);

    Interpreter first(cache);
    Interpreter second(cache);
    const RunResult a = first.run("main", {7});
    const RunResult b = second.run("main", {7});
    ASSERT_TRUE(a.ok()) << a.error;
    expectSameRun(a, b);
}

TEST(Decoded, PooledInterpreterReuseIsIdentical)
{
    auto module = parseInstrumented();
    Interpreter pooled(*module);

    const RunResult fresh = Interpreter(*module).run("main", {7});
    ASSERT_TRUE(fresh.ok()) << fresh.error;

    // Repeated runs on one interpreter — including runs that roll back
    // and dirty the pooled undo logs and frames — must keep producing
    // the fresh-interpreter result.
    for (int round = 0; round < 3; ++round) {
        expectSameRun(fresh, pooled.run("main", {7}));

        DetectAt hooks(6); // inside the region: forces a rollback
        pooled.setHooks(&hooks);
        const RunResult rolled = pooled.run("main", {7});
        pooled.setHooks(nullptr);
        ASSERT_TRUE(hooks.fired_);
        ASSERT_TRUE(rolled.ok()) << rolled.error;
        EXPECT_EQ(rolled.rollbacks, 1u);
        EXPECT_TRUE(rolled.sameOutput(fresh));
    }
}

TEST(Decoded, GlobalsMatchAndCaptureToggle)
{
    auto module = parseInstrumented();
    Interpreter interp(*module);
    const RunResult captured = interp.run("main", {7});
    ASSERT_TRUE(captured.ok());
    ASSERT_FALSE(captured.globals.empty());
    EXPECT_TRUE(interp.globalsMatch(captured.globals));

    // A diverging snapshot must not match.
    auto wrong = captured.globals;
    wrong[0][0] ^= 1;
    EXPECT_FALSE(interp.globalsMatch(wrong));

    // With capture disabled the result carries no snapshot, but the
    // in-place comparison against a previous snapshot still works —
    // this is the allocation-free trial configuration.
    interp.setCaptureGlobals(false);
    const RunResult uncaptured = interp.run("main", {7});
    ASSERT_TRUE(uncaptured.ok());
    EXPECT_TRUE(uncaptured.globals.empty());
    EXPECT_EQ(uncaptured.return_value, captured.return_value);
    EXPECT_TRUE(interp.globalsMatch(captured.globals));
}

} // namespace
} // namespace encore::interp
