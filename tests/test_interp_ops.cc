/**
 * @file
 * Exhaustive semantics matrix for the value-producing opcodes: each
 * case runs `r2 = <op> r0, r1; ret r2` through the interpreter and
 * checks a known answer, including the nasty corners (wrapping
 * arithmetic, INT64_MIN division, shift masking, FP conversion
 * clamps).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "interp/reference.h"
#include "interp/snapshot.h"
#include "ir/parser.h"

namespace encore::interp {
namespace {

/// Runs `main` with `args` through the tree-walking reference engine
/// and through the flat engine at both tiers, and requires the three
/// RunResults to agree bit for bit — status, counters, and memory.
/// This is the per-program enforcement of the fusion tier's contract
/// (outcomes are engine-independent by construction).
void
expectEnginesAgree(const std::string &text,
                   const std::vector<std::uint64_t> &args)
{
    auto module = ir::parseModule(text);
    ReferenceInterpreter ref(*module);
    const RunResult want = ref.run("main", args);

    for (const EngineKind engine :
         {EngineKind::Decoded, EngineKind::Fused}) {
        SCOPED_TRACE(engineKindName(engine));
        Interpreter interp(*module, engine);
        const RunResult got = interp.run("main", args);
        EXPECT_EQ(static_cast<int>(want.status),
                  static_cast<int>(got.status));
        EXPECT_EQ(want.error, got.error);
        EXPECT_EQ(want.return_value, got.return_value);
        EXPECT_EQ(want.dyn_instrs, got.dyn_instrs);
        EXPECT_EQ(want.value_instrs, got.value_instrs);
        EXPECT_EQ(want.overhead_instrs, got.overhead_instrs);
        EXPECT_EQ(want.globals, got.globals);
    }
}

struct OpCase
{
    const char *op;       // mnemonic (binary ops)
    std::uint64_t a;
    std::uint64_t b;
    std::uint64_t expected;
};

constexpr std::uint64_t kMinI64 =
    static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::min());

class BinaryOp : public ::testing::TestWithParam<OpCase>
{
};

TEST_P(BinaryOp, ComputesExpectedValue)
{
    const OpCase &c = GetParam();
    const std::string text = std::string("module \"m\"\n"
                                         "func @main(2) {\n"
                                         "  bb entry:\n"
                                         "    r2 = ") +
                             c.op +
                             " r0, r1\n"
                             "    ret r2\n"
                             "}\n";
    auto module = ir::parseModule(text);
    Interpreter interp(*module);
    const RunResult result = interp.run("main", {c.a, c.b});
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(result.return_value, c.expected)
        << c.op << "(" << c.a << ", " << c.b << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Integer, BinaryOp,
    ::testing::Values(
        OpCase{"add", 3, 4, 7},
        OpCase{"add", ~0ULL, 1, 0}, // wraps
        OpCase{"sub", 3, 5, static_cast<std::uint64_t>(-2)},
        OpCase{"mul", 1ULL << 40, 1ULL << 30, 0}, // 2^70 mod 2^64
        OpCase{"div", static_cast<std::uint64_t>(-7), 2,
               static_cast<std::uint64_t>(-3)}, // trunc toward zero
        OpCase{"div", kMinI64, static_cast<std::uint64_t>(-1),
               kMinI64}, // defined wrap, no UB
        OpCase{"rem", static_cast<std::uint64_t>(-7), 3,
               static_cast<std::uint64_t>(-1)},
        OpCase{"rem", kMinI64, static_cast<std::uint64_t>(-1), 0},
        OpCase{"and", 0b1100, 0b1010, 0b1000},
        OpCase{"or", 0b1100, 0b1010, 0b1110},
        OpCase{"xor", 0b1100, 0b1010, 0b0110},
        OpCase{"shl", 1, 4, 16},
        OpCase{"shl", 1, 68, 16}, // shift amount masked to 6 bits
        OpCase{"shr", 0x8000000000000000ULL, 63, 1}, // logical
        OpCase{"cmpeq", 5, 5, 1}, OpCase{"cmpeq", 5, 6, 0},
        OpCase{"cmpne", 5, 6, 1},
        OpCase{"cmplt", static_cast<std::uint64_t>(-1), 0, 1}, // signed
        OpCase{"cmple", 7, 7, 1},
        OpCase{"cmpgt", 0, static_cast<std::uint64_t>(-1), 1},
        OpCase{"cmpge", static_cast<std::uint64_t>(-3),
               static_cast<std::uint64_t>(-2), 0}));

TEST_P(BinaryOp, EnginesAgreeInsideFusedLoop)
{
    // The same op matrix, but placed where the fusion pass actually
    // bites: the loop header fuses to cmp+br, the body (op + two adds)
    // to a value run. Every engine must report the identical sum,
    // counters included.
    const OpCase &c = GetParam();
    const std::string text = std::string("module \"m\"\n"
                                         "func @main(2) {\n"
                                         "  bb entry:\n"
                                         "    r2 = mov 0\n"
                                         "    r3 = mov 0\n"
                                         "    jmp head\n"
                                         "  bb head:\n"
                                         "    r4 = cmplt r3, 5\n"
                                         "    br r4, body, done\n"
                                         "  bb body:\n"
                                         "    r5 = ") +
                             c.op +
                             " r0, r1\n"
                             "    r2 = add r2, r5\n"
                             "    r3 = add r3, 1\n"
                             "    jmp head\n"
                             "  bb done:\n"
                             "    ret r2\n"
                             "}\n";
    expectEnginesAgree(text, {c.a, c.b});
}

// Programs small enough to hand-check which heads fuse, each compared
// three ways (reference / decoded / fused). Together they run both
// fused forms over every component class: value, lea, load and
// store components in Run heads, and compare+branch back edges with
// and without a run ahead of the compare in RunCmpBr heads.

TEST(EngineDifferential, MemoryRunLoopMatchesReference)
{
    // The loop body is one long runnable sequence mixing loads, value
    // ops, stores, and a lea-fed pointer load, ending in the and/cmp
    // that feeds the back-edge branch — a RunCmpBr head plus interior
    // Run chunks, exercising fused memory ops on both the object- and
    // pointer-addressed paths.
    expectEnginesAgree(R"(
module "m"
global @A 32
func @main(1) {
  bb entry:
    r1 = mov 0
    store [@A], r0
    jmp head
  bb head:
    r2 = and r1, 3
    r3 = load [@A + r2]
    r4 = add r3, r1
    r5 = mul r4, 3
    store [@A + r2], r5
    r6 = lea [@A + r2]
    r7 = load [r6 + 4]
    r8 = xor r7, r5
    store [@A + 8], r8
    r1 = add r1, 1
    r9 = cmplt r1, 11
    br r9, head, done
  bb done:
    r10 = load [@A]
    r11 = load [@A + 8]
    r12 = add r10, r11
    ret r12
}
)",
                       {41});
}

TEST(EngineDifferential, LongValueChainChunksMatchReference)
{
    // Twelve dependent value ops in one block: longer than any single
    // fused sequence (kMaxFuseLen), so the pass must chunk the run and
    // the chunks must compose to the same answer and the same counters.
    expectEnginesAgree(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = add r0, 1
    r2 = mul r1, 3
    r3 = sub r2, r0
    r4 = xor r3, 255
    r5 = and r4, 1023
    r6 = or r5, 16
    r7 = shl r6, 2
    r8 = shr r7, 1
    r9 = add r8, r2
    r10 = sub r9, r5
    r11 = mul r10, 7
    r12 = add r11, r1
    ret r12
}
)",
                       {19});
}

TEST(EngineDifferential, ErrorInsideFusedRunMatchesReference)
{
    // The div-by-zero trap fires in the *interior* of a fusable value
    // run. The fused sequence must surface the identical error with the
    // identical counters — instructions after the trapping component
    // must not have executed or been counted.
    expectEnginesAgree(R"(
module "m"
global @A 8
func @main(2) {
  bb entry:
    r2 = add r0, 1
    r3 = mul r2, 2
    r4 = div r3, r1
    r5 = add r4, r2
    store [@A], r5
    ret r5
}
)",
                       {7, 0});
    expectEnginesAgree(R"(
module "m"
global @A 8
func @main(2) {
  bb entry:
    r2 = add r0, 1
    r3 = mul r2, 2
    r4 = div r3, r1
    r5 = add r4, r2
    store [@A], r5
    ret r5
}
)",
                       {7, 2});
}

TEST(UnaryOps, NegNotMov)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = neg r0
    r2 = not r1
    r3 = mov r2
    ret r3
}
)");
    Interpreter interp(*module);
    // not(neg(5)) == not(-5) == 4.
    EXPECT_EQ(interp.run("main", {5}).return_value, 4u);
}

TEST(FpOps, ArithmeticAndComparison)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(0) {
  bb entry:
    r0 = mov f:6.0
    r1 = mov f:1.5
    r2 = fsub r0, r1
    r3 = fdiv r2, r1
    r4 = fcmplt r1, r3
    r5 = f2i r3
    r6 = add r5, r4
    ret r6
}
)");
    Interpreter interp(*module);
    // (6.0-1.5)/1.5 = 3.0; 1.5 < 3.0 -> 1; 3 + 1 = 4.
    EXPECT_EQ(interp.run("main", {}).return_value, 4u);
}

TEST(FpOps, DivisionByZeroIsIeee)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(0) {
  bb entry:
    r0 = mov f:1.0
    r1 = mov f:0.0
    r2 = fdiv r0, r1
    r3 = f2i r2
    ret r3
}
)");
    Interpreter interp(*module);
    const RunResult result = interp.run("main", {});
    ASSERT_TRUE(result.ok()); // inf is a value, not a trap
    // f2i clamps +inf to INT64_MAX.
    EXPECT_EQ(result.return_value,
              static_cast<std::uint64_t>(
                  std::numeric_limits<std::int64_t>::max()));
}

TEST(FpOps, NanConvertsToZero)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(0) {
  bb entry:
    r0 = mov f:0.0
    r1 = fdiv r0, r0
    r2 = f2i r1
    ret r2
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {}).return_value, 0u);
}

TEST(FpOps, RoundTripIntToFp)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = i2f r0
    r2 = fmul r1, f:2.0
    r3 = f2i r2
    ret r3
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {21}).return_value, 42u);
    EXPECT_EQ(interp.run("main",
                         {static_cast<std::uint64_t>(-21)})
                  .return_value,
              static_cast<std::uint64_t>(-42));
}

// The loop body below is one long fusable run (11 runnable
// instructions feeding the back-edge branch), so with a small snapshot
// stride nearly every barrier falls in the *interior* of a fused
// sequence. The de-fuse guard must notice and step those heads one
// source instruction at a time — a fused head that ran through the
// barrier would capture late (value_count past the barrier) and the
// exactness assertions below would fail.
constexpr const char *kSnapshotLoopText = R"(
module "m"
global @A 32
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp head
  bb head:
    r2 = and r1, 3
    r3 = load [@A + r2]
    r4 = add r3, r1
    r5 = mul r4, 5
    store [@A + r2], r5
    r6 = add r5, r0
    r7 = xor r6, r1
    store [@A + 16], r7
    r1 = add r1, 1
    r8 = cmplt r1, 40
    br r8, head, done
  bb done:
    r9 = load [@A]
    ret r9
}
)";

struct Recorded
{
    RunResult result;
    std::unique_ptr<SnapshotStore> store;
    std::shared_ptr<const DecodedModule> cache;
};

Recorded
recordSnapshots(const ir::Module &module, EngineKind engine,
                std::uint64_t stride)
{
    Recorded rec;
    rec.cache = std::make_shared<const DecodedModule>(module, engine);
    SnapshotConfig config;
    config.stride = stride;
    rec.store = std::make_unique<SnapshotStore>(config);
    Interpreter interp(rec.cache);
    interp.memoryRef().enableDirtyTracking();
    interp.setSnapshotRecorder(rec.store.get());
    rec.result = interp.run("main", {41});
    interp.setSnapshotRecorder(nullptr);
    interp.memoryRef().disableDirtyTracking();
    return rec;
}

TEST(FusionSnapshots, FusedSequenceNeverCrossesBarrier)
{
    auto module = ir::parseModule(kSnapshotLoopText);
    constexpr std::uint64_t kStride = 16;
    const Recorded fused =
        recordSnapshots(*module, EngineKind::Fused, kStride);
    const Recorded decoded =
        recordSnapshots(*module, EngineKind::Decoded, kStride);

    // Recording must not perturb the run, and the two engines must
    // agree on the run itself.
    ASSERT_TRUE(fused.result.ok()) << fused.result.error;
    EXPECT_EQ(fused.result.return_value, decoded.result.return_value);
    EXPECT_EQ(fused.result.dyn_instrs, decoded.result.dyn_instrs);
    EXPECT_EQ(fused.result.value_instrs, decoded.result.value_instrs);
    EXPECT_EQ(fused.result.globals, decoded.result.globals);

    // Both engines keep the same snapshots, and every capture lands
    // exactly on its barrier — the proof that no fused head executed
    // across a loop-top boundary.
    ASSERT_EQ(fused.store->size(), decoded.store->size());
    ASSERT_GT(fused.store->size(), 5u);
    for (std::size_t i = 1; i <= fused.store->size(); ++i) {
        const std::uint64_t barrier = i * kStride;
        const Snapshot *f = fused.store->findAtOrBefore(barrier);
        const Snapshot *d = decoded.store->findAtOrBefore(barrier);
        ASSERT_NE(f, nullptr) << "barrier " << barrier;
        ASSERT_NE(d, nullptr) << "barrier " << barrier;
        EXPECT_EQ(f->exec.value_count, barrier);
        EXPECT_EQ(d->exec.value_count, barrier);
        EXPECT_EQ(f->exec.dyn_count, d->exec.dyn_count)
            << "barrier " << barrier;
    }
}

// Every activation of @walk opens a checkpointed region instance (a
// register and a local word in its undo log) and leaves it open across
// its recursive call, and every activation after the first shadows the
// live %acc of the one below it. Snapshots cut anywhere in the run
// therefore hold non-empty undo logs and shadowed locals with
// was_allocated set.
constexpr const char *kRecursiveRegionText = R"(
module "m"
global @out 2
func @walk(1) {
  local %acc 2
  bb entry:
    store [%acc], r0
    r1 = mov 0
    jmp region
  bb region:
    region.enter 0
    ckpt.reg r1
    ckpt.mem [%acc + 1]
    jmp loop
  bb loop:
    r2 = load [%acc + 1]
    r3 = add r2, r1
    r4 = mul r3, 3
    store [%acc + 1], r4
    r1 = add r1, 1
    r5 = cmplt r1, 6
    br r5, loop, next
  bb next:
    r6 = cmple r0, 0
    br r6, leaf, rec
  bb leaf:
    r7 = load [%acc + 1]
    ret r7
  bb rec:
    r8 = sub r0, 1
    r9 = call @walk(r8)
    r10 = load [%acc]
    r11 = load [%acc + 1]
    r12 = add r9, r10
    r13 = xor r12, r11
    ret r13
  bb __recover.0:
    restore 0
    jmp region
}
func @main(1) {
  bb entry:
    r1 = call @walk(r0)
    store [@out], r1
    ret r1
}
)";

TEST(FusionSnapshots, ResumeFromEverySnapshotReproducesTheRun)
{
    // A restored cursor can point at the interior of what the fused
    // engine considers one sequence; resuming must execute the
    // remaining components unfused and still land on the full run's
    // exact outcome and counters. The recursive program's snapshots
    // also hold the records the live state keeps for recursion and
    // recovery, and a restore must rebuild exactly the image its
    // snapshot holds — with dirty tracking on (the trial path's delta
    // restore) and off (a full rebuild, compared word by word).
    for (const bool recursive : {false, true}) {
        SCOPED_TRACE(recursive ? "recursive regions" : "fused loop");
        auto module = ir::parseModule(recursive ? kRecursiveRegionText
                                                : kSnapshotLoopText);
        if (recursive) {
            // The parser cannot express the recovery-target link.
            ir::Function *walk = module->functionByName("walk");
            walk->blockByName("region")->instructions().front().setSucc0(
                walk->blockByName("__recover.0"));
        }
        constexpr std::uint64_t kStride = 16;
        const Recorded rec =
            recordSnapshots(*module, EngineKind::Fused, kStride);
        ASSERT_TRUE(rec.result.ok()) << rec.result.error;
        ASSERT_GT(rec.store->size(), 5u);
        const PagePool &pool = rec.store->pool();

        // Snapshots cut inside a recursive activation whose shadowed
        // local is live, under an open region instance with undo
        // records.
        std::size_t recursive_with_log = 0;
        for (const bool tracking : {false, true}) {
            SCOPED_TRACE(tracking ? "dirty tracking" : "no tracking");
            Interpreter resumer(rec.cache);
            if (tracking)
                resumer.memoryRef().enableDirtyTracking();
            for (std::size_t i = 1; i <= rec.store->size(); ++i) {
                const Snapshot *snap =
                    rec.store->findAtOrBefore(i * kStride);
                ASSERT_NE(snap, nullptr);
                resumer.memoryRef().restore(snap->mem, pool);
                EXPECT_TRUE(resumer.memoryRef().matches(snap->mem, pool))
                    << "snapshot " << i;
                const bool shadowed = std::any_of(
                    snap->mem.frames.begin(), snap->mem.frames.end(),
                    [](const MemFrame &frame) {
                        return std::any_of(
                            frame.saved.begin(), frame.saved.end(),
                            [](const SavedLocal &local) {
                                return local.was_allocated;
                            });
                    });
                const bool logged = std::any_of(
                    snap->exec.frames.begin(), snap->exec.frames.end(),
                    [](const SnapFrame &frame) {
                        return frame.recovery.active &&
                               !frame.recovery.log.empty();
                    });
                recursive_with_log += shadowed && logged;

                const RunResult resumed = resumer.resumeRun(*snap, pool);
                ASSERT_TRUE(resumed.ok()) << resumed.error;
                EXPECT_EQ(resumed.return_value, rec.result.return_value);
                EXPECT_EQ(resumed.dyn_instrs, rec.result.dyn_instrs);
                EXPECT_EQ(resumed.value_instrs, rec.result.value_instrs);
                EXPECT_EQ(resumed.overhead_instrs,
                          rec.result.overhead_instrs);
                EXPECT_EQ(resumed.globals, rec.result.globals);
            }
        }
        if (recursive) {
            EXPECT_GT(recursive_with_log, 0u);
        }
    }
}

/// One hot hook callback with every argument a hook could act on, and
/// the interpreter state a hook can read back during it.
struct HookCall
{
    char kind; ///< f filterResult, d detection poll, m memory access,
               ///< b branch filter, o memory-op filter, e block entry
    const ir::Instruction *inst; ///< null for a block entry
    std::uint64_t dyn_index;     ///< 0 for a block entry
    /// value, target, (object, offset, store), or (block, predecessor)
    std::uint64_t detail;
    std::uint64_t value_count;  ///< valueCount()
    std::size_t depth;          ///< frameDepth()
    std::uint64_t region_token; ///< currentRegionToken()
    /// saveExecState(): the dynamic instruction count and the top
    /// frame's cursor.
    std::uint64_t dyn_count;
    std::uint32_t block;
    std::uint32_t ip;

    bool operator==(const HookCall &) const = default;
};

/// Pass-through hooks that log every hot callback.
class RecordingHooks : public ExecHooks
{
  public:
    RecordingHooks(const Interpreter &interp, bool unfused)
        : interp_(interp), unfused_(unfused)
    {
    }

    bool needsUnfusedDispatch() const override { return unfused_; }

    std::uint64_t
    filterResult(const ir::Instruction &inst, std::uint64_t dyn_index,
                 std::uint64_t value) override
    {
        log('f', &inst, dyn_index, value);
        return value;
    }

    bool
    shouldTriggerDetection(const ir::Instruction &next,
                           std::uint64_t dyn_index) override
    {
        log('d', &next, dyn_index, 0);
        return false;
    }

    void
    onBlockEnter(const ir::Function &, const ir::BasicBlock &block,
                 const ir::BasicBlock *from) override
    {
        const std::uint64_t pred = from ? from->id() : ~ir::BlockId{0};
        log('e', nullptr, 0, (std::uint64_t{block.id()} << 32) | pred);
    }

    void
    onMemoryAccess(const ir::Instruction &inst, ir::ObjectId object,
                   std::uint32_t offset, bool is_store,
                   std::uint64_t dyn_index) override
    {
        log('m', &inst, dyn_index, memoryDetail(object, offset, is_store));
    }

    void
    filterBranchTarget(const ir::Instruction &inst, std::uint32_t &target,
                       std::uint32_t, std::uint64_t dyn_index) override
    {
        log('b', &inst, dyn_index, target);
    }

    std::uint64_t
    filterMemoryOp(const ir::Instruction &inst, bool is_store,
                   ir::ObjectId object, std::uint32_t &offset,
                   std::uint64_t dyn_index) override
    {
        log('o', &inst, dyn_index, memoryDetail(object, offset, is_store));
        return 0;
    }

    std::vector<HookCall> calls;

  private:
    static std::uint64_t
    memoryDetail(ir::ObjectId object, std::uint32_t offset, bool is_store)
    {
        return (std::uint64_t{object} << 33) |
               (std::uint64_t{offset} << 1) | (is_store ? 1 : 0);
    }

    void
    log(char kind, const ir::Instruction *inst, std::uint64_t dyn_index,
        std::uint64_t detail)
    {
        ExecSnapshot state;
        interp_.saveExecState(state);
        calls.push_back({kind, inst, dyn_index, detail, interp_.valueCount(),
                         interp_.frameDepth(), interp_.currentRegionToken(),
                         state.dyn_count, state.frames.back().block,
                         state.frames.back().ip});
    }

    const Interpreter &interp_;
    bool unfused_;
};

/// The callbacks of a run armed at value index 0 that a run armed at
/// `k` must see: everything after the instruction that produced value
/// k - 1, i.e. from the first loop top whose value count is k.
std::vector<HookCall>
callsFromValue(const std::vector<HookCall> &all, std::uint64_t k)
{
    auto it = all.begin();
    for (std::uint64_t values = 0; values < k && it != all.end(); ++it)
        values += it->kind == 'f';
    return {it, all.end()};
}

/// The instruction that produced value index `k` in a full log.
const ir::Instruction *
valueInst(const std::vector<HookCall> &all, std::uint64_t k)
{
    for (const HookCall &call : all)
        if (call.kind == 'f' && k-- == 0)
            return call.inst;
    return nullptr;
}

/// Index of the fused head whose span holds `src`, or -1.
int
fusedHeadOf(const DecodedFunction &func, const ir::Instruction *src)
{
    for (std::size_t h = 0; h < func.code.size(); ++h) {
        const std::size_t len = func.code[h].fused_len;
        for (std::size_t i = h; len > 1 && i < h + len; ++i)
            if (func.code[i].src == src)
                return static_cast<int>(h);
    }
    return -1;
}

/// Requires `got` to be exactly the from-start log cut at value `k`.
void
expectCallsFromValue(const std::vector<HookCall> &got,
                     const std::vector<HookCall> &all, std::uint64_t k)
{
    const std::vector<HookCall> want = callsFromValue(all, k);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(got[i] == want[i])
            << "callback " << i << ": got " << got[i].kind << "@"
            << got[i].dyn_index << ", want " << want[i].kind << "@"
            << want[i].dyn_index;
}

TEST(FusionHooks, ArmedHooksSeeExactlyTheCallbacksFromTheirArmPoint)
{
    // Hooks armed at value index K must be invisible before the first
    // loop top whose value count is K and see exactly what hooks armed
    // from the start see from there on — whether K falls inside what
    // the fused engine runs as one sequence, on a snapshot barrier
    // (the same loop-top compare handles both events), at 0, or past
    // the end of the program. Covered with and without the unfused-
    // dispatch pin, which must switch on at K too. Block entries are
    // part of every compared log.
    auto module = ir::parseModule(kSnapshotLoopText);
    constexpr std::uint64_t kStride = 16;
    const Recorded rec =
        recordSnapshots(*module, EngineKind::Fused, kStride);
    ASSERT_TRUE(rec.result.ok()) << rec.result.error;
    const Snapshot *snap = rec.store->findAtOrBefore(3 * kStride);
    ASSERT_NE(snap, nullptr);
    const std::uint64_t k_snapshot = snap->exec.value_count;
    ASSERT_EQ(k_snapshot, 3 * kStride);
    // Entry produces one value and each iteration eight; the second
    // value of iteration 2 is the load inside the body's first fused
    // run, so value count 19 is reached mid-sequence.
    constexpr std::uint64_t kInside = 1 + 2 * 8 + 2;
    const std::uint64_t k_past_end = rec.result.value_instrs + 10;
    const auto has_block_entry = [](const std::vector<HookCall> &calls) {
        return std::any_of(calls.begin(), calls.end(),
                           [](const HookCall &c) { return c.kind == 'e'; });
    };

    std::vector<HookCall> fusable_log;
    for (const bool unfused : {false, true}) {
        SCOPED_TRACE(unfused ? "unfused hooks" : "fusable hooks");
        Interpreter interp(rec.cache);
        RecordingHooks from_start(interp, unfused);
        interp.setHooks(&from_start, 0);
        const RunResult full = interp.run("main", {41});
        ASSERT_TRUE(full.ok()) << full.error;
        const std::vector<HookCall> &all = from_start.calls;
        // Armed at 0, the hooks are hot for run()'s entry into the
        // entry block, ahead of the first loop top.
        ASSERT_FALSE(all.empty());
        EXPECT_EQ(all.front().kind, 'e');
        if (!unfused) {
            fusable_log = all;
        } else {
            // Fused or not, the handlers make the same hook calls,
            // block entries included, bar the filter points that only
            // unfused dispatch has.
            std::vector<HookCall> without_filters;
            for (const HookCall &call : all)
                if (call.kind != 'b' && call.kind != 'o')
                    without_filters.push_back(call);
            EXPECT_TRUE(fusable_log == without_filters);
        }

        const DecodedFunction &main_fn =
            *rec.cache->functionByName("main");
        const int head = fusedHeadOf(main_fn, valueInst(all, kInside));
        ASSERT_NE(head, -1);
        EXPECT_EQ(fusedHeadOf(main_fn, valueInst(all, kInside - 1)),
                  head);

        for (const std::uint64_t k :
             {kInside, k_snapshot, std::uint64_t{0}, k_past_end}) {
            SCOPED_TRACE("armed at " + std::to_string(k));
            RecordingHooks armed(interp, unfused);
            interp.setHooks(&armed, k);
            const RunResult run = interp.run("main", {41});
            EXPECT_EQ(run.return_value, full.return_value);
            EXPECT_EQ(run.dyn_instrs, full.dyn_instrs);
            EXPECT_EQ(run.value_instrs, full.value_instrs);
            expectCallsFromValue(armed.calls, all, k);
            EXPECT_EQ(armed.calls.empty(), k == k_past_end);
            EXPECT_EQ(has_block_entry(armed.calls), k != k_past_end);
        }

        // A run resumed from the snapshot and armed at its value count
        // sees the same suffix.
        RecordingHooks resumed(interp, unfused);
        interp.setHooks(&resumed, k_snapshot);
        const RunResult from_snap =
            interp.resumeRun(*snap, rec.store->pool());
        EXPECT_EQ(from_snap.dyn_instrs, full.dyn_instrs);
        expectCallsFromValue(resumed.calls, all, k_snapshot);
        EXPECT_TRUE(has_block_entry(resumed.calls));

        // Recording while the hooks arm on a barrier: every capture
        // still lands exactly on its barrier.
        SnapshotConfig config;
        config.stride = kStride;
        SnapshotStore store(config);
        RecordingHooks recording(interp, unfused);
        interp.memoryRef().enableDirtyTracking();
        interp.setSnapshotRecorder(&store);
        interp.setHooks(&recording, k_snapshot);
        interp.run("main", {41});
        interp.setSnapshotRecorder(nullptr);
        interp.memoryRef().disableDirtyTracking();
        expectCallsFromValue(recording.calls, all, k_snapshot);
        ASSERT_EQ(store.size(), rec.store->size());
        for (std::size_t i = 1; i <= store.size(); ++i) {
            const Snapshot *got = store.findAtOrBefore(i * kStride);
            ASSERT_NE(got, nullptr);
            EXPECT_EQ(got->exec.value_count, i * kStride);
            EXPECT_EQ(got->exec.dyn_count,
                      rec.store->findAtOrBefore(i * kStride)
                          ->exec.dyn_count);
        }
        interp.setHooks(nullptr);
    }
}

TEST(FusionHooks, HooksSeeTheSameStateOnBothEngines)
{
    // Through calls, returns, region entries and recursion, a hook must
    // read back the same counters, depth, region token and cursor at
    // every callback whether the code runs fused or not: the fused
    // engine with fusable hooks, the decoded engine, and unfused hooks
    // (which also see the filter points) on either engine.
    auto module = ir::parseModule(kRecursiveRegionText);
    std::vector<HookCall> want;
    for (const EngineKind engine :
         {EngineKind::Decoded, EngineKind::Fused}) {
        for (const bool unfused : {false, true}) {
            SCOPED_TRACE(std::string(engineKindName(engine)) +
                         (unfused ? ", unfused hooks" : ", fusable hooks"));
            Interpreter interp(*module, engine);
            RecordingHooks hooks(interp, unfused);
            interp.setHooks(&hooks);
            const RunResult run = interp.run("main", {4});
            ASSERT_TRUE(run.ok()) << run.error;
            std::vector<HookCall> got;
            for (const HookCall &call : hooks.calls)
                if (call.kind != 'b' && call.kind != 'o')
                    got.push_back(call);
            if (want.empty()) {
                want = got;
                // The log spans the recursion and its region instances.
                const auto deepest = std::max_element(
                    want.begin(), want.end(),
                    [](const HookCall &a, const HookCall &b) {
                        return a.depth < b.depth;
                    });
                EXPECT_EQ(deepest->depth, 6u);
                const auto newest = std::max_element(
                    want.begin(), want.end(),
                    [](const HookCall &a, const HookCall &b) {
                        return a.region_token < b.region_token;
                    });
                EXPECT_EQ(newest->region_token, 5u);
                continue;
            }
            ASSERT_EQ(got.size(), want.size());
            for (std::size_t i = 0; i < got.size(); ++i)
                ASSERT_TRUE(got[i] == want[i])
                    << "callback " << i << " (" << got[i].kind << "@"
                    << got[i].dyn_index << ")";
        }
    }
}

/// Lowers the budget to 0 from the n-th callback of one kind and
/// records the dynamic instruction count the hook saw at that moment.
class BudgetCut : public ExecHooks
{
  public:
    BudgetCut(Interpreter &interp, char kind, std::size_t n)
        : interp_(interp), kind_(kind), n_(n)
    {
    }

    std::uint64_t
    filterResult(const ir::Instruction &, std::uint64_t,
                 std::uint64_t value) override
    {
        hit('f');
        return value;
    }

    bool
    shouldTriggerDetection(const ir::Instruction &, std::uint64_t) override
    {
        hit('d');
        return false;
    }

    void
    onBlockEnter(const ir::Function &, const ir::BasicBlock &,
                 const ir::BasicBlock *) override
    {
        hit('e');
    }

    void
    onMemoryAccess(const ir::Instruction &, ir::ObjectId, std::uint32_t,
                   bool, std::uint64_t) override
    {
        hit('m');
    }

    std::size_t seen = 0; ///< Callbacks of the kind so far.
    bool cut = false;
    std::uint64_t cut_dyn = 0; ///< saveExecState's count at the cut.

  private:
    void
    hit(char kind)
    {
        if (kind != kind_ || seen++ != n_)
            return;
        ExecSnapshot state;
        interp_.saveExecState(state);
        cut_dyn = state.dyn_count;
        cut = true;
        interp_.setMaxInstructions(0);
    }

    Interpreter &interp_;
    char kind_;
    std::size_t n_;
};

TEST(FusionHooks, LoweredBudgetEndsTheRunAtTheNextLoopTop)
{
    // setMaxInstructions promises that a hook lowering the budget from
    // any callback ends the run at the next loop top. The instruction
    // in flight finishes (the polled one runs, so a cut at a detection
    // poll ends one instruction later) and the run stops with
    // InstructionLimit, on both engines at the same instruction — a
    // fused sequence in flight is abandoned at its next component. The
    // hooks are fusable, so the fused engine runs its sequences with
    // every callback live.
    auto module = ir::parseModule(kSnapshotLoopText);
    for (const char kind : {'d', 'f', 'm', 'e'}) {
        SCOPED_TRACE(std::string("cut at callback kind ") + kind);
        std::size_t count = 0;
        {
            Interpreter interp(*module, EngineKind::Decoded);
            BudgetCut never(interp, kind, ~std::size_t{0});
            interp.setHooks(&never);
            ASSERT_TRUE(interp.run("main", {41}).ok());
            count = never.seen;
        }
        ASSERT_GT(count, 40u);
        // The last poll is the final `ret`'s, which returns first.
        const std::size_t cuts = kind == 'd' ? count - 1 : count;
        for (std::size_t n = 0; n < cuts; ++n) {
            std::uint64_t ends[2] = {0, 0};
            for (const EngineKind engine :
                 {EngineKind::Decoded, EngineKind::Fused}) {
                Interpreter interp(*module, engine);
                BudgetCut hooks(interp, kind, n);
                interp.setHooks(&hooks);
                const RunResult run = interp.run("main", {41});
                ASSERT_TRUE(hooks.cut);
                ASSERT_EQ(run.status, RunResult::Status::InstructionLimit)
                    << engineKindName(engine) << ", cut " << n;
                EXPECT_EQ(run.error, "instruction limit exceeded");
                EXPECT_EQ(run.dyn_instrs,
                          hooks.cut_dyn + (kind == 'd' ? 1 : 0))
                    << engineKindName(engine) << ", cut " << n;
                ends[engine == EngineKind::Fused] = run.dyn_instrs;
            }
            EXPECT_EQ(ends[0], ends[1]) << "cut " << n;
        }
    }
}

/// Records what a hook reads back at a runtime error, which it then
/// surfaces.
class ErrorWatch : public ExecHooks
{
  public:
    explicit ErrorWatch(const Interpreter &interp) : interp_(interp) {}

    bool
    onRuntimeError(std::uint64_t dyn_index) override
    {
        ExecSnapshot state;
        interp_.saveExecState(state);
        seen = {'r',
                nullptr,
                dyn_index,
                0,
                interp_.valueCount(),
                interp_.frameDepth(),
                interp_.currentRegionToken(),
                state.dyn_count,
                state.frames.back().block,
                state.frames.back().ip};
        return false;
    }

    HookCall seen{};

  private:
    const Interpreter &interp_;
};

TEST(FusionHooks, RuntimeErrorHookSeesTheTrappingInstruction)
{
    // The division traps on the sixth pass, as the third component of
    // the loop's fused sequence. Whether the hooks are hot from the
    // start or armed past the end (onRuntimeError is live either way,
    // and the run stays hook-free and fused), on both engines the hook
    // must see the trapping division: its dynamic index, the counts
    // with it counted but its value not, and the cursor on it.
    auto module = ir::parseModule(R"(
module "m"
global @A 8
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = add r1, 1
    r3 = sub r0, r1
    r4 = div r2, r3
    store [@A], r4
    r1 = add r1, 1
    r5 = cmplt r1, 10
    br r5, loop, done
  bb done:
    ret r1
}
)");
    // 2 entry instructions and 5 passes of 7 (5 values each), then the
    // pass's add and sub: the division is instruction 39, after 28
    // values; it sits at index 4 of the code, in block 1.
    const HookCall want{'r', nullptr, 39, 0, 28, 1, 0, 40, 1, 4};
    for (const EngineKind engine :
         {EngineKind::Decoded, EngineKind::Fused}) {
        for (const std::uint64_t arm :
             {std::uint64_t{0}, ~std::uint64_t{0}}) {
            SCOPED_TRACE(std::string(engineKindName(engine)) +
                         (arm ? ", hooks never hot" : ", hooks hot"));
            Interpreter interp(*module, engine);
            ErrorWatch watch(interp);
            interp.setHooks(&watch, arm);
            const RunResult run = interp.run("main", {5});
            EXPECT_EQ(run.status, RunResult::Status::Error);
            EXPECT_EQ(run.error, "division by zero");
            EXPECT_EQ(run.dyn_instrs, 40u);
            EXPECT_EQ(run.value_instrs, 28u);
            EXPECT_TRUE(watch.seen == want)
                << "index " << watch.seen.dyn_index << ", values "
                << watch.seen.value_count << ", dyn "
                << watch.seen.dyn_count << ", ip " << watch.seen.ip;
        }
    }
}

TEST(SelectOp, PicksByCondition)
{
    auto module = ir::parseModule(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = select r0, 111, 222
    ret r1
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {1}).return_value, 111u);
    EXPECT_EQ(interp.run("main", {0}).return_value, 222u);
    EXPECT_EQ(interp.run("main", {77}).return_value, 111u); // nonzero
}

} // namespace
} // namespace encore::interp
