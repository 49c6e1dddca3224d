/**
 * @file
 * Interpreter tests: arithmetic semantics, memory, calls and
 * per-activation locals, error handling, profiling hooks, and —
 * crucially — the Encore recovery runtime (checkpoint buffers,
 * rollback on detection).
 */
#include <gtest/gtest.h>

#include "interp/interpreter.h"
#include "interp/profile.h"
#include "ir/parser.h"

namespace encore::interp {
namespace {

std::unique_ptr<ir::Module>
parse(const char *text)
{
    return ir::parseModule(text);
}

TEST(Interp, Arithmetic)
{
    auto module = parse(R"(
module "m"
func @main(2) {
  bb entry:
    r2 = add r0, r1
    r3 = mul r2, 3
    r4 = sub r3, 1
    r5 = rem r4, 10
    r6 = shl r5, 2
    ret r6
}
)");
    Interpreter interp(*module);
    const RunResult result = interp.run("main", {4, 6});
    ASSERT_TRUE(result.ok());
    // ((4+6)*3 - 1) % 10 = 9; 9 << 2 = 36.
    EXPECT_EQ(result.return_value, 36u);
    EXPECT_EQ(result.dyn_instrs, 6u);
    EXPECT_EQ(result.overhead_instrs, 0u);
}

TEST(Interp, SignedComparisons)
{
    auto module = parse(R"(
module "m"
func @main(0) {
  bb entry:
    r0 = mov -5
    r1 = cmplt r0, 3
    r2 = cmpgt r0, 3
    r3 = shl r1, 1
    r4 = or r3, r2
    ret r4
}
)");
    Interpreter interp(*module);
    const RunResult result = interp.run("main", {});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.return_value, 2u); // lt=1, gt=0
}

TEST(Interp, FloatingPoint)
{
    auto module = parse(R"(
module "m"
func @main(0) {
  bb entry:
    r0 = mov f:1.5
    r1 = mov f:2.25
    r2 = fadd r0, r1
    r3 = fmul r2, r2
    r4 = f2i r3
    ret r4
}
)");
    Interpreter interp(*module);
    const RunResult result = interp.run("main", {});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.return_value, 14u); // (3.75)^2 = 14.0625 -> 14
}

TEST(Interp, MemoryAndLoop)
{
    auto module = parse(R"(
module "m"
global @A 16
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = mul r1, r1
    store [@A + r1], r2
    r1 = add r1, 1
    r3 = cmplt r1, r0
    br r3, loop, done
  bb done:
    r4 = load [@A + 5]
    ret r4
}
)");
    Interpreter interp(*module);
    const RunResult result = interp.run("main", {10});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.return_value, 25u);
    ASSERT_EQ(result.globals.size(), 1u);
    EXPECT_EQ(result.globals[0][7], 49u);
}

TEST(Interp, PointersThroughLea)
{
    auto module = parse(R"(
module "m"
global @A 8
global @B 8
func @main(1) {
  bb entry:
    r1 = lea [@A]
    r2 = lea [@B + 3]
    r3 = select r0, r1, r2
    store [r3 + 1], 77
    r4 = load [@A + 1]
    r5 = load [@B + 4]
    r6 = add r4, r5
    ret r6
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {1}).return_value, 77u); // via @A
    EXPECT_EQ(interp.run("main", {0}).return_value, 77u); // via @B+4
}

TEST(Interp, CallsAndReturnValues)
{
    auto module = parse(R"(
module "m"
func @square(1) {
  bb entry:
    r1 = mul r0, r0
    ret r1
}
func @main(1) {
  bb entry:
    r1 = call @square(r0)
    r2 = call @square(r1)
    ret r2
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {3}).return_value, 81u);
}

TEST(Interp, RecursionWithFreshLocals)
{
    // Each activation gets its own zeroed local; the recursive call must
    // not clobber the caller's buffer.
    auto module = parse(R"(
module "m"
func @fact(1) {
  local %tmp 2
  bb entry:
    store [%tmp], r0
    r1 = cmple r0, 1
    br r1, base, rec
  bb base:
    ret 1
  bb rec:
    r2 = sub r0, 1
    r3 = call @fact(r2)
    r4 = load [%tmp]
    r5 = mul r3, r4
    ret r5
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("fact", {6}).return_value, 720u);
}

TEST(Interp, DivisionByZeroIsError)
{
    auto module = parse(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = div 10, r0
    ret r1
}
)");
    Interpreter interp(*module);
    const RunResult result = interp.run("main", {0});
    EXPECT_EQ(result.status, RunResult::Status::Error);
    EXPECT_NE(result.error.find("zero"), std::string::npos);
    EXPECT_EQ(interp.run("main", {2}).return_value, 5u);
}

TEST(Interp, OutOfBoundsIsError)
{
    auto module = parse(R"(
module "m"
global @A 4
func @main(1) {
  bb entry:
    r1 = load [@A + r0]
    ret r1
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {9}).status, RunResult::Status::Error);
    EXPECT_TRUE(interp.run("main", {3}).ok());
}

TEST(Interp, BadPointerIsError)
{
    auto module = parse(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = load [r0]
    ret r1
}
)");
    Interpreter interp(*module);
    EXPECT_EQ(interp.run("main", {5}).status, RunResult::Status::Error);
}

TEST(Interp, InstructionLimit)
{
    auto module = parse(R"(
module "m"
func @main(0) {
  bb entry:
    jmp entry
}
)");
    Interpreter interp(*module);
    interp.setMaxInstructions(1000);
    EXPECT_EQ(interp.run("main", {}).status,
              RunResult::Status::InstructionLimit);
}

TEST(Interp, ProfilerCountsBlocks)
{
    auto module = parse(R"(
module "m"
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r1 = add r1, 1
    r2 = cmplt r1, r0
    br r2, loop, done
  bb done:
    ret r1
}
)");
    ProfileData data;
    Profiler profiler(data);
    Interpreter interp(*module);
    interp.setHooks(&profiler);
    ASSERT_TRUE(interp.run("main", {10}).ok());

    const ir::Function &f = *module->functionByName("main");
    EXPECT_EQ(data.functionEntries(f), 1u);
    EXPECT_EQ(data.blockCount(f, f.blockByName("loop")->id()), 10u);
    EXPECT_EQ(data.blockProbability(f, f.blockByName("loop")->id()), 10.0);
    EXPECT_GT(data.totalDynInstrs(), 0u);
}

TEST(Interp, TraceCollectorAndWindows)
{
    // Loop that reads A[i] then writes B[i]: fully idempotent windows.
    auto module = parse(R"(
module "m"
global @A 64
global @B 64
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = load [@A + r1]
    store [@B + r1], r2
    r1 = add r1, 1
    r3 = cmplt r1, r0
    br r3, loop, done
  bb done:
    ret r1
}
)");
    TraceCollector trace;
    Interpreter interp(*module);
    interp.setHooks(&trace);
    const RunResult run = interp.run("main", {64});
    ASSERT_TRUE(run.ok());
    EXPECT_FALSE(trace.accesses().empty());

    const WindowIdempotence result =
        analyzeWindows(trace, run.dyn_instrs, 20, 1);
    EXPECT_GT(result.windows, 0u);
    EXPECT_EQ(result.idempotent, result.windows);
}

TEST(Interp, WindowsDetectWar)
{
    // Classic WAR: load A[0], store A[0].
    auto module = parse(R"(
module "m"
global @A 4
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = load [@A]
    r3 = add r2, 1
    store [@A], r3
    r1 = add r1, 1
    r4 = cmplt r1, r0
    br r4, loop, done
  bb done:
    ret r1
}
)");
    TraceCollector trace;
    Interpreter interp(*module);
    interp.setHooks(&trace);
    const RunResult run = interp.run("main", {50});
    ASSERT_TRUE(run.ok());
    const WindowIdempotence result =
        analyzeWindows(trace, run.dyn_instrs, 30, 0);
    EXPECT_GT(result.windows, 0u);
    EXPECT_EQ(result.idempotent, 0u);
}

TEST(Interp, WindowsRefuseATruncatedTrace)
{
    // The loop makes 100 accesses; a cap of 10 truncates the trace, and
    // the analysis must refuse it instead of counting the untraced
    // windows as idempotent.
    auto module = parse(R"(
module "m"
global @A 4
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = load [@A]
    r3 = add r2, 1
    store [@A], r3
    r1 = add r1, 1
    r4 = cmplt r1, r0
    br r4, loop, done
  bb done:
    ret r1
}
)");
    TraceCollector capped(10);
    Interpreter interp(*module);
    interp.setHooks(&capped);
    const RunResult run = interp.run("main", {50});
    ASSERT_TRUE(run.ok());
    ASSERT_TRUE(capped.truncated());
    EXPECT_EQ(capped.accesses().size(), 10u);
    EXPECT_EXIT(analyzeWindows(capped, run.dyn_instrs, 30, 0),
                ::testing::ExitedWithCode(1),
                "trace is truncated.*cap of 10 accesses");

    // The same run under the default cap is whole and analyzable.
    TraceCollector whole;
    interp.setHooks(&whole);
    ASSERT_TRUE(interp.run("main", {50}).ok());
    EXPECT_FALSE(whole.truncated());
    EXPECT_EQ(whole.accesses().size(), 100u);
    EXPECT_GT(analyzeWindows(whole, run.dyn_instrs, 30, 0).windows, 0u);
}

// --- Recovery runtime -------------------------------------------------------

/// Fires one detection at a fixed dynamic instruction index.
class DetectAt : public ExecHooks
{
  public:
    explicit DetectAt(std::uint64_t at) : at_(at) {}

    bool
    shouldTriggerDetection(const ir::Instruction &,
                           std::uint64_t dyn_index) override
    {
        if (fired_ || dyn_index < at_)
            return false;
        fired_ = true;
        return true;
    }

    void
    onDetectionHandled(DetectionResponse response) override
    {
        response_ = response;
    }

    bool fired_ = false;
    DetectionResponse response_ = DetectionResponse::Unrecoverable;

  private:
    std::uint64_t at_;
};

// A hand-instrumented region: entry block checkpoints r1 (live-in,
// overwritten) and memory word @A+0 before overwriting it. The region
// computes A[0] = A[0] + r0 and r1 = r1 * 2.
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

TEST(Recovery, CleanRunIsUnaffected)
{
    auto module = parse(kInstrumentedText);
    // Wire the recovery block into region.enter (the parser cannot
    // express the recovery-target link).
    ir::Function *f = module->functionByName("main");
    ir::BasicBlock *region = f->blockByName("region");
    ir::BasicBlock *recover = f->blockByName("__recover.0");
    region->instructions().front().setSucc0(recover);

    Interpreter interp(*module);
    const RunResult result = interp.run("main", {7});
    ASSERT_TRUE(result.ok());
    // A[0] = 107, r1 = 42 -> 149.
    EXPECT_EQ(result.return_value, 149u);
    EXPECT_EQ(result.overhead_instrs, 3u); // enter + 2 ckpts
    EXPECT_EQ(result.rollbacks, 0u);
}

TEST(Recovery, RollbackRestoresStateAndRecovers)
{
    auto module = parse(kInstrumentedText);
    ir::Function *f = module->functionByName("main");
    f->blockByName("region")->instructions().front().setSucc0(
        f->blockByName("__recover.0"));

    // Golden.
    Interpreter golden_interp(*module);
    const RunResult golden = golden_interp.run("main", {7});
    ASSERT_TRUE(golden.ok());

    // Fire a detection at every possible point inside the region and
    // check the run still produces the golden output. Instructions 0-2
    // are before the region; detections there find no active region.
    for (std::uint64_t at = 4; at <= 9; ++at) {
        Interpreter interp(*module);
        DetectAt hooks(at);
        interp.setHooks(&hooks);
        const RunResult result = interp.run("main", {7});
        ASSERT_TRUE(hooks.fired_);
        ASSERT_TRUE(result.ok()) << "detection at " << at;
        EXPECT_EQ(hooks.response_, DetectionResponse::RolledBack);
        EXPECT_EQ(result.rollbacks, 1u);
        EXPECT_TRUE(result.sameOutput(golden)) << "detection at " << at;
    }
}

TEST(Recovery, DetectionOutsideRegionIsUnrecoverable)
{
    auto module = parse(kInstrumentedText);
    ir::Function *f = module->functionByName("main");
    f->blockByName("region")->instructions().front().setSucc0(
        f->blockByName("__recover.0"));

    Interpreter interp(*module);
    DetectAt hooks(1); // before any region.enter
    interp.setHooks(&hooks);
    const RunResult result = interp.run("main", {7});
    EXPECT_EQ(result.status, RunResult::Status::DetectedUnrecoverable);
    EXPECT_EQ(hooks.response_, DetectionResponse::Unrecoverable);
}

TEST(Recovery, ClearingEnterInvalidatesRecovery)
{
    auto module = parse(R"(
module "m"
global @A 4
func @main(0) {
  bb entry:
    region.enter 0
    r1 = mov 1
    jmp next
  bb next:
    region.enter 4294967295
    r2 = mov 2
    r3 = mov 3
    ret r3
  bb __recover.0:
    restore 0
    jmp entry
}
)");
    ir::Function *f = module->functionByName("main");
    f->blockByName("entry")->instructions().front().setSucc0(
        f->blockByName("__recover.0"));

    Interpreter interp(*module);
    DetectAt hooks(4); // after the clearing enter
    interp.setHooks(&hooks);
    const RunResult result = interp.run("main", {});
    EXPECT_EQ(result.status, RunResult::Status::DetectedUnrecoverable);
}

TEST(Recovery, TokensTrackRegionInstances)
{
    auto module = parse(R"(
module "m"
global @A 8
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    region.enter 0
    r2 = load [@A + r1]
    r1 = add r1, 1
    r3 = cmplt r1, r0
    br r3, loop, done
  bb done:
    ret r1
  bb __recover.0:
    restore 0
    jmp loop
}
)");
    ir::Function *f = module->functionByName("main");
    f->blockByName("loop")->instructions().front().setSucc0(
        f->blockByName("__recover.0"));

    // Observe tokens as the loop iterates: each region.enter must bump
    // the instance token. The detection poll of the instruction after
    // a region.enter sees the token that region.enter minted.
    class TokenWatch : public ExecHooks
    {
      public:
        explicit TokenWatch(Interpreter &interp) : interp_(interp) {}
        bool
        shouldTriggerDetection(const ir::Instruction &next,
                               std::uint64_t) override
        {
            if (after_enter_)
                tokens_.push_back(interp_.currentRegionToken());
            after_enter_ = next.opcode() == ir::Opcode::RegionEnter;
            return false;
        }
        Interpreter &interp_;
        bool after_enter_ = false;
        std::vector<std::uint64_t> tokens_;
    };

    Interpreter interp(*module);
    TokenWatch watch(interp);
    interp.setHooks(&watch);
    ASSERT_TRUE(interp.run("main", {5}).ok());
    ASSERT_EQ(watch.tokens_.size(), 5u);
    for (std::size_t i = 1; i < watch.tokens_.size(); ++i)
        EXPECT_EQ(watch.tokens_[i], watch.tokens_[i - 1] + 1);
}

} // namespace
} // namespace encore::interp
