/**
 * @file
 * Tests of the pre-decoded flat bytecode engine: structural properties
 * of the DecodedModule cache, differential equivalence against the
 * tree-walking reference engine (including detection/rollback through
 * the recovery runtime), cache sharing across interpreters, the
 * pooled-interpreter reuse contract, and the fusion pass's spans over
 * every workload's instrumented module.
 */
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "interp/decoded.h"
#include "interp/interpreter.h"
#include "interp/reference.h"
#include "ir/parser.h"
#include "support/checksum.h"
#include "workloads/workload.h"

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
    // every block ending in a terminator, which decoding enforces for
    // both engines.
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
    for (const EngineKind engine :
         {EngineKind::Decoded, EngineKind::Fused}) {
        SCOPED_TRACE(engineKindName(engine));
        EXPECT_DEATH(DecodedModule(*module, engine),
                     "block 'tail' of 'main' does not end in a "
                     "terminator");
    }
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

/// One workload's instrumented module (what fig8's campaigns execute)
/// and its fused decode.
struct FusedWorkload
{
    bench::PreparedWorkload prepared;
    std::unique_ptr<const DecodedModule> decoded;
};

/// Every workload prepared as fig8 prepares it; built once and shared
/// by the span tests.
const std::vector<FusedWorkload> &
fusedSuite()
{
    static const std::vector<FusedWorkload> suite = [] {
        std::vector<FusedWorkload> out;
        for (const workloads::Workload &w : workloads::allWorkloads()) {
            FusedWorkload fw;
            fw.prepared = bench::prepareWorkload(w, EncoreConfig{});
            fw.decoded =
                std::make_unique<const DecodedModule>(*fw.prepared.module);
            out.push_back(std::move(fw));
        }
        return out;
    }();
    return suite;
}

/// FNV-1a over (function index, head ip, fused_len) of every fused
/// head, in function and code order.
std::uint64_t
fusedSpanHash(const DecodedModule &decoded)
{
    std::uint64_t hash = fnv1a64(std::string_view{});
    for (std::uint32_t f = 0; f < decoded.numFunctions(); ++f) {
        const DecodedFunction &func = decoded.function(f);
        for (std::uint32_t ip = 0; ip < func.code.size(); ++ip) {
            if (func.code[ip].fused_len == 1)
                continue;
            hash = fnv1a64Mix(f, hash);
            hash = fnv1a64Mix(ip, hash);
            hash = fnv1a64Mix(func.code[ip].fused_len, hash);
        }
    }
    return hash;
}

TEST(FusedSpans, EveryWorkloadKeepsItsPinnedSpans)
{
    // Which source instructions each fused head covers decides where
    // the de-fuse guard falls back to unfused stepping and which head
    // can cover a resync anchor, so these hashes pin every workload's
    // spans: a change to the fusion pass that moves one shows here
    // first, whatever exec opcode the heads carry.
    const std::map<std::string, std::uint64_t> pinned = {
        {"164.gzip", 0x796581808965d513ull},
        {"175.vpr", 0x5660bc4e8cba660eull},
        {"181.mcf", 0xea92dc3cab2cba29ull},
        {"197.parser", 0xf090b8ea20116175ull},
        {"256.bzip2", 0x65dba0713ab92d49ull},
        {"300.twolf", 0xd13d16af90310e1dull},
        {"172.mgrid", 0xc875fbf835b9d538ull},
        {"173.applu", 0xf65389b1f16c128cull},
        {"177.mesa", 0x5f7e4a455134007dull},
        {"179.art", 0xd49b5e35119011c0ull},
        {"183.equake", 0xaa88ad5e82c7b048ull},
        {"cjpeg", 0x5e8cfd84bdc9da65ull},
        {"djpeg", 0x1c61615f01e2c932ull},
        {"epic", 0xd36f3e8600098933ull},
        {"unepic", 0xee57fdbf3a080a9cull},
        {"g721decode", 0xdbe972a8efe06e84ull},
        {"g721encode", 0x7dce7c8f88577410ull},
        {"mpeg2dec", 0xf8aeb246e0b863e8ull},
        {"mpeg2enc", 0xf043e374d27e4be6ull},
        {"pegwitdec", 0xdb763eaff3d51f5eull},
        {"pegwitenc", 0xdb763eaff3d51f5eull},
        {"rawcaudio", 0x7ce6517b87713c1aull},
        {"rawdaudio", 0x9f6d5638043e080full},
    };
    ASSERT_EQ(fusedSuite().size(), pinned.size());
    for (const FusedWorkload &fw : fusedSuite()) {
        const std::string &name = fw.prepared.workload->name;
        SCOPED_TRACE(name);
        EXPECT_EQ(fusedSpanHash(*fw.decoded), pinned.at(name));
    }
}

TEST(FusedSpans, HeadsAreRunsAndCompareBranchRuns)
{
    // Every head is a generic Run, or a RunCmpBr whose span ends in a
    // compare and the conditional branch that reads its result; every
    // other slot dispatches on its own source opcode.
    for (const FusedWorkload &fw : fusedSuite()) {
        SCOPED_TRACE(fw.prepared.workload->name);
        std::size_t heads = 0;
        for (std::uint32_t f = 0; f < fw.decoded->numFunctions(); ++f) {
            const DecodedFunction &func = fw.decoded->function(f);
            for (std::uint32_t ip = 0; ip < func.code.size(); ++ip) {
                const DecodedInst &head = func.code[ip];
                if (head.fused_len == 1) {
                    EXPECT_EQ(head.exec_op,
                              static_cast<std::uint8_t>(head.op));
                    continue;
                }
                ++heads;
                ASSERT_LE(ip + head.fused_len, func.code.size());
                if (head.exec_op == static_cast<std::uint8_t>(FusedOp::Run))
                    continue;
                ASSERT_EQ(head.exec_op,
                          static_cast<std::uint8_t>(FusedOp::RunCmpBr))
                    << "function " << f << " ip " << ip;
                const DecodedInst &cmp = func.code[ip + head.fused_len - 2];
                const DecodedInst &br = func.code[ip + head.fused_len - 1];
                EXPECT_GE(cmp.op, ir::Opcode::CmpEq);
                EXPECT_LE(cmp.op, ir::Opcode::FCmpLt);
                EXPECT_EQ(br.op, ir::Opcode::Br);
                EXPECT_EQ(br.a.slot, cmp.dest);
            }
        }
        EXPECT_GT(heads, 0u);
    }
}

} // namespace
} // namespace encore::interp
