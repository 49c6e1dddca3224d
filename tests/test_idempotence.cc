/**
 * @file
 * Tests for the core idempotence analysis (Equations 1–4), validated
 * first against the paper's own worked example (Figure 4), then on
 * loops (RS^l = AS^l cross-iteration handling), Pmin pruning, call
 * summaries, and irreducible control flow.
 */
#include <gtest/gtest.h>

#include "encore/idempotence.h"
#include "interp/interpreter.h"
#include "ir/parser.h"

namespace encore {
namespace {

/// Bundles everything the analysis needs for a parsed module.
struct Fixture
{
    std::unique_ptr<ir::Module> module;
    std::unique_ptr<analysis::StaticAliasAnalysis> aa;
    std::unique_ptr<CallSummaries> summaries;
    std::unique_ptr<interp::ProfileData> profile;
    std::unique_ptr<IdempotenceAnalysis> idem;

    explicit Fixture(const char *text,
                     IdempotenceAnalysis::Options options =
                         IdempotenceAnalysis::Options{},
                     std::set<std::string> opaque = {})
    {
        module = ir::parseModule(text);
        aa = std::make_unique<analysis::StaticAliasAnalysis>(*module);
        summaries = std::make_unique<CallSummaries>(*module, *aa,
                                                    std::move(opaque));
        profile = std::make_unique<interp::ProfileData>();
        idem = std::make_unique<IdempotenceAnalysis>(
            *module, *aa, *summaries, profile.get(), options);
    }

    /// Runs the program once to populate the profile.
    void
    profileRun(const std::string &entry,
               const std::vector<std::uint64_t> &args)
    {
        interp::Interpreter interp(*module);
        interp::Profiler profiler(*profile);
        interp.setHooks(&profiler);
        ASSERT_TRUE(interp.run(entry, args).ok());
    }

    /// Builds a region spanning the whole function.
    Region
    wholeFunction(const std::string &name)
    {
        const ir::Function *f = module->functionByName(name);
        Region region;
        region.func = f;
        region.header = f->entry()->id();
        for (const auto &bb : f->blocks())
            region.blocks.push_back(bb->id());
        return region;
    }

    /// Builds a region from named blocks (first name is the header).
    Region
    regionOf(const std::string &func_name,
             const std::vector<std::string> &block_names)
    {
        const ir::Function *f = module->functionByName(func_name);
        Region region;
        region.func = f;
        region.header = f->blockByName(block_names.front())->id();
        for (const std::string &name : block_names)
            region.blocks.push_back(f->blockByName(name)->id());
        std::sort(region.blocks.begin(), region.blocks.end());
        return region;
    }
};

// ---------------------------------------------------------------------------
// The paper's Figure 4: eight basic blocks, four potential WAR pairs
// (#: 4/9, *: 7/10, @: 8/12, +: 11/12), of which only * — the load of B
// at instruction 7 against the store of B at instruction 10 — actually
// violates idempotence. The analysis must single out instruction 10 as
// the lone required checkpoint.
// ---------------------------------------------------------------------------
const char *kFigure4 = R"(
module "fig4"
global @A 1
global @B 1
global @C 1
func @f(1) {
  bb bb1:
    store [@A], 1
    br r0, bb2, bb3
  bb bb2:
    store [@B], 2
    store [@C], 3
    jmp bb4
  bb bb3:
    r1 = load [@A]
    store [@C], r1
    jmp bb5
  bb bb4:
    r2 = load [@B]
    jmp bb6
  bb bb5:
    r3 = load [@B]
    jmp bb6
  bb bb6:
    r4 = load [@C]
    store [@A], 9
    store [@B], 10
    r5 = load [@C]
    br r4, bb7, bb8
  bb bb7:
    store [@C], 12
    jmp bb8
  bb bb8:
    ret r5
}
)";

TEST(Figure4, SingleViolationIdentified)
{
    Fixture fx(kFigure4);
    const IdempotenceResult result =
        fx.idem->analyzeRegion(fx.wholeFunction("f"));

    EXPECT_EQ(result.cls, RegionClass::NonIdempotent);
    EXPECT_TRUE(result.checkpointable);

    // Exactly one store requires checkpointing: the store of B in bb6
    // (instruction 10 of the figure).
    ASSERT_EQ(result.checkpoint_stores.size(), 1u);
    const ir::Instruction *offender = result.checkpoint_stores[0];
    EXPECT_EQ(offender->opcode(), ir::Opcode::Store);
    ASSERT_TRUE(offender->addr().isObjectBase());
    EXPECT_EQ(fx.module->object(offender->addr().object).name, "B");
    EXPECT_TRUE(result.checkpoint_calls.empty());

    // Every reported violation names that same store.
    ASSERT_FALSE(result.violations.empty());
    for (const auto &violation : result.violations)
        EXPECT_EQ(violation.store, offender);
}

TEST(Figure4, GuardedLoadsDoNotViolate)
{
    // Remove the exposed load of B (bb5) — the region becomes fully
    // idempotent even though #, @ and + "look like" WARs.
    const std::string text = [] {
        std::string s = kFigure4;
        const std::string needle = "r3 = load [@B]";
        s.replace(s.find(needle), needle.size(), "r3 = mov 0");
        return s;
    }();
    Fixture fx(text.c_str());
    const IdempotenceResult result =
        fx.idem->analyzeRegion(fx.wholeFunction("f"));
    EXPECT_EQ(result.cls, RegionClass::Idempotent);
    EXPECT_TRUE(result.checkpoint_stores.empty());
}

// ---------------------------------------------------------------------------
// Straight-line and branch-local behaviour.
// ---------------------------------------------------------------------------

TEST(Idempotence, ReadThenWriteSameWordViolates)
{
    Fixture fx(R"(
module "m"
global @X 1
func @f(0) {
  bb entry:
    r0 = load [@X]
    r1 = add r0, 1
    store [@X], r1
    ret r1
}
)");
    const auto result = fx.idem->analyzeRegion(fx.wholeFunction("f"));
    EXPECT_EQ(result.cls, RegionClass::NonIdempotent);
    ASSERT_EQ(result.checkpoint_stores.size(), 1u);
}

TEST(Idempotence, WriteThenReadIsIdempotent)
{
    Fixture fx(R"(
module "m"
global @X 1
func @f(0) {
  bb entry:
    store [@X], 5
    r0 = load [@X]
    ret r0
}
)");
    const auto result = fx.idem->analyzeRegion(fx.wholeFunction("f"));
    EXPECT_EQ(result.cls, RegionClass::Idempotent);
}

TEST(Idempotence, DisjointWordsAreIndependent)
{
    Fixture fx(R"(
module "m"
global @X 4
func @f(0) {
  bb entry:
    r0 = load [@X + 0]
    store [@X + 1], r0
    ret r0
}
)");
    const auto result = fx.idem->analyzeRegion(fx.wholeFunction("f"));
    EXPECT_EQ(result.cls, RegionClass::Idempotent);
}

TEST(Idempotence, UnknownOffsetsConservativelyViolate)
{
    // load X[r0], store X[r1]: the static analysis cannot separate the
    // offsets, so the store must be checkpointed.
    Fixture fx(R"(
module "m"
global @X 8
func @f(2) {
  bb entry:
    r2 = load [@X + r0]
    store [@X + r1], r2
    ret r2
}
)");
    const auto result = fx.idem->analyzeRegion(fx.wholeFunction("f"));
    EXPECT_EQ(result.cls, RegionClass::NonIdempotent);
    EXPECT_TRUE(result.checkpointable);
}

// ---------------------------------------------------------------------------
// Loops (§3.1.2).
// ---------------------------------------------------------------------------

TEST(IdempotenceLoop, InPlaceUpdateLoopViolates)
{
    Fixture fx(R"(
module "m"
global @A 64
func @f(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = load [@A + r1]
    r3 = add r2, 1
    store [@A + r1], r3
    r1 = add r1, 1
    r4 = cmplt r1, r0
    br r4, loop, done
  bb done:
    ret r1
}
)");
    const auto result = fx.idem->analyzeRegion(
        fx.regionOf("f", {"loop"}));
    EXPECT_EQ(result.cls, RegionClass::NonIdempotent);
    ASSERT_EQ(result.checkpoint_stores.size(), 1u);
}

TEST(IdempotenceLoop, StreamingLoopIsIdempotent)
{
    Fixture fx(R"(
module "m"
global @A 64
global @B 64
func @f(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = load [@A + r1]
    store [@B + r1], r2
    r1 = add r1, 1
    r4 = cmplt r1, r0
    br r4, loop, done
  bb done:
    ret r1
}
)");
    // Conservative static AA cannot prove A[i] and B[i] disjoint for
    // register offsets... but they are different objects, so it can.
    const auto result = fx.idem->analyzeRegion(
        fx.regionOf("f", {"loop"}));
    EXPECT_EQ(result.cls, RegionClass::Idempotent);
}

TEST(IdempotenceLoop, CrossIterationWarCaughtByLoopRule)
{
    // The load of B and the store of B live on *alternative* branches
    // of the loop body: an acyclic pass would see neither before the
    // other, but across iterations the store (iteration i) can precede
    // the load (iteration i+1). RS^l = AS^l must catch it.
    Fixture fx(R"(
module "m"
global @B 1
global @S 64
func @f(1) {
  bb entry:
    r1 = mov 0
    jmp head
  bb head:
    r2 = rem r1, 2
    br r2, readside, writeside
  bb readside:
    r3 = load [@B]
    store [@S + r1], r3
    jmp latch
  bb writeside:
    store [@B], r1
    jmp latch
  bb latch:
    r1 = add r1, 1
    r4 = cmplt r1, r0
    br r4, head, done
  bb done:
    ret r1
}
)");
    const auto result = fx.idem->analyzeRegion(fx.regionOf(
        "f", {"head", "readside", "writeside", "latch"}));
    EXPECT_EQ(result.cls, RegionClass::NonIdempotent);
    // The store of B must be in the CP set.
    bool found = false;
    for (const ir::Instruction *store : result.checkpoint_stores) {
        if (store->addr().isObjectBase() &&
            fx.module->object(store->addr().object).name == "B")
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(IdempotenceLoop, NestedLoopsSummarizedHierarchically)
{
    // Outer region contains an inner streaming loop (idempotent) and
    // an outer in-place update (violating).
    Fixture fx(R"(
module "m"
global @A 64
global @B 64
global @T 1
func @f(1) {
  bb entry:
    r1 = mov 0
    jmp outer
  bb outer:
    r2 = mov 0
    jmp inner
  bb inner:
    r3 = load [@A + r2]
    store [@B + r2], r3
    r2 = add r2, 1
    r4 = cmplt r2, 8
    br r4, inner, after
  bb after:
    r5 = load [@T]
    r6 = add r5, 1
    store [@T], r6
    r1 = add r1, 1
    r7 = cmplt r1, r0
    br r7, outer, done
  bb done:
    ret r1
}
)");
    const auto result = fx.idem->analyzeRegion(
        fx.regionOf("f", {"outer", "inner", "after"}));
    EXPECT_EQ(result.cls, RegionClass::NonIdempotent);
    ASSERT_EQ(result.checkpoint_stores.size(), 1u);
    EXPECT_EQ(fx.module
                  ->object(result.checkpoint_stores[0]->addr().object)
                  .name,
              "T");
}

TEST(IdempotenceLoop, WholeFunctionWithLoopAnalyzes)
{
    Fixture fx(R"(
module "m"
global @A 64
global @B 64
func @f(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = load [@A + r1]
    store [@B + r1], r2
    r1 = add r1, 1
    r4 = cmplt r1, r0
    br r4, loop, done
  bb done:
    ret r1
}
)");
    const auto result = fx.idem->analyzeRegion(fx.wholeFunction("f"));
    EXPECT_EQ(result.cls, RegionClass::Idempotent);
}

TEST(IdempotenceLoop, MergingCanEliminateCheckpoints)
{
    // The paper's §3.3 note: fusing r_i (which must-writes X) ahead of
    // r_j (which reads then rewrites X) can remove r_j's checkpoint,
    // because the exposed load becomes guarded in the merged region.
    Fixture fx(R"(
module "m"
global @X 1
func @f(1) {
  bb entry:
    store [@X], 5
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = load [@X]
    r3 = add r2, 1
    store [@X], r3
    r1 = add r1, 1
    r4 = cmplt r1, r0
    br r4, loop, done
  bb done:
    ret r3
}
)");
    // The loop alone: the load of X observes pre-region state, the
    // store clobbers it — checkpoint required.
    const auto alone = fx.idem->analyzeRegion(fx.regionOf("f", {"loop"}));
    EXPECT_EQ(alone.cls, RegionClass::NonIdempotent);
    EXPECT_EQ(alone.checkpoint_stores.size(), 1u);

    // Merged with the entry block, the store of X at entry guards the
    // loop's load on every path: the merged region is idempotent and
    // the checkpoint disappears.
    const auto merged = fx.idem->analyzeRegion(fx.wholeFunction("f"));
    EXPECT_EQ(merged.cls, RegionClass::Idempotent);
    EXPECT_TRUE(merged.checkpoint_stores.empty());
}

// ---------------------------------------------------------------------------
// Irreducible control flow -> Unknown (§3.1.2 footnote).
// ---------------------------------------------------------------------------

TEST(Idempotence, IrreducibleCycleIsUnknown)
{
    Fixture fx(R"(
module "m"
global @X 1
func @f(1) {
  bb entry:
    br r0, a, b
  bb a:
    r1 = load [@X]
    br r1, b, done
  bb b:
    r2 = mov 1
    jmp a
  bb done:
    ret r1
}
)");
    const auto result = fx.idem->analyzeRegion(fx.wholeFunction("f"));
    EXPECT_EQ(result.cls, RegionClass::Unknown);
    EXPECT_NE(result.unknown_reason.find("cycle"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Calls (§5.1's Unknown category + mod/ref summaries).
// ---------------------------------------------------------------------------

const char *kCallText = R"(
module "m"
global @X 4
global @LOG 16
func @pure(1) {
  bb entry:
    r1 = load [@X + 1]
    r2 = add r0, r1
    ret r2
}
func @dirty(1) {
  bb entry:
    store [@X + 2], r0
    ret r0
}
func @syslog(1) {
  bb entry:
    store [@LOG], r0
    ret 0
}
func @callsPure(1) {
  bb entry:
    r1 = call @pure(r0)
    store [@X + 3], r1
    ret r1
}
func @callsDirty(1) {
  bb entry:
    r1 = load [@X + 2]
    r2 = call @dirty(r1)
    ret r2
}
func @callsOpaque(1) {
  bb entry:
    r1 = call @syslog(r0)
    ret r1
}
)";

TEST(IdempotenceCalls, PureCalleeIsTransparent)
{
    Fixture fx(kCallText);
    const auto result =
        fx.idem->analyzeRegion(fx.wholeFunction("callsPure"));
    EXPECT_EQ(result.cls, RegionClass::Idempotent);
}

TEST(IdempotenceCalls, DirtyCalleeMakesCallSiteAnOffender)
{
    // callsDirty loads X[2], then calls dirty() which stores X[2]:
    // a WAR through the call. The summary must surface it and the
    // checkpoint must be plantable before the call.
    Fixture fx(kCallText);
    const auto result =
        fx.idem->analyzeRegion(fx.wholeFunction("callsDirty"));
    EXPECT_EQ(result.cls, RegionClass::NonIdempotent);
    EXPECT_TRUE(result.checkpointable);
    ASSERT_EQ(result.checkpoint_calls.size(), 1u);
    EXPECT_EQ(result.checkpoint_calls[0].call->calleeName(), "dirty");
    ASSERT_EQ(result.checkpoint_calls[0].mods.size(), 1u);
    EXPECT_TRUE(result.checkpoint_calls[0].mods[0].isExact());
}

TEST(IdempotenceCalls, OpaqueCalleeIsUnknown)
{
    Fixture fx(kCallText, IdempotenceAnalysis::Options{},
               {"syslog"});
    const auto result =
        fx.idem->analyzeRegion(fx.wholeFunction("callsOpaque"));
    EXPECT_EQ(result.cls, RegionClass::Unknown);
    EXPECT_NE(result.unknown_reason.find("syslog"), std::string::npos);
}

TEST(IdempotenceCalls, SummariesDisabledMatchesPaperBehaviour)
{
    IdempotenceAnalysis::Options options;
    options.use_call_summaries = false;
    Fixture fx(kCallText, options);
    // A side-effecting callee leaves the region Unknown...
    EXPECT_EQ(fx.idem->analyzeRegion(fx.wholeFunction("callsDirty")).cls,
              RegionClass::Unknown);
    // ...but a pure callee is still fine.
    EXPECT_EQ(fx.idem->analyzeRegion(fx.wholeFunction("callsPure")).cls,
              RegionClass::Idempotent);
}

TEST(CallSummariesTest, ModRefContents)
{
    Fixture fx(kCallText);
    const ir::Function &dirty = *fx.module->functionByName("dirty");
    const FunctionSummary &summary = fx.summaries->summary(dirty);
    EXPECT_TRUE(summary.analyzable);
    EXPECT_EQ(summary.mod.size(), 1u);
    EXPECT_TRUE(summary.mod.entries()[0].loc.isExact());

    const ir::Function &pure = *fx.module->functionByName("pure");
    const FunctionSummary &pure_summary = fx.summaries->summary(pure);
    EXPECT_TRUE(pure_summary.analyzable);
    EXPECT_TRUE(pure_summary.mod.empty());
    EXPECT_EQ(pure_summary.ref.size(), 1u);
}

TEST(CallSummariesTest, RecursionIsUnanalyzable)
{
    Fixture fx(R"(
module "m"
global @X 1
func @rec(1) {
  bb entry:
    r1 = cmple r0, 0
    br r1, base, again
  bb base:
    ret 0
  bb again:
    store [@X], r0
    r2 = sub r0, 1
    r3 = call @rec(r2)
    ret r3
}
)");
    const FunctionSummary &summary =
        fx.summaries->summary(*fx.module->functionByName("rec"));
    EXPECT_FALSE(summary.analyzable);
    EXPECT_NE(summary.reason.find("recursive"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Pmin pruning (§3.4.1) — the Figure 2c / 175.vpr try_swap pattern:
// a cold first-call initialization path whose stores would otherwise
// make the hot region non-idempotent.
// ---------------------------------------------------------------------------

const char *kTrySwap = R"(
module "m"
global @init_done 1
global @table 64
global @out 64
func @try_swap(1) {
  bb entry:
    r1 = load [@init_done]
    br r1, hot, coldinit
  bb coldinit:
    store [@init_done], 1
    store [@table + 0], 7
    store [@table + 1], 11
    jmp hot
  bb hot:
    r2 = load [@table + 0]
    r3 = mul r2, r0
    store [@out + 0], r3
    ret r3
}
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = call @try_swap(r1)
    r1 = add r1, 1
    r3 = cmplt r1, r0
    br r3, loop, done
  bb done:
    ret r2
}
)";

TEST(PminPruning, ColdInitViolatesWithoutPruning)
{
    // entry loads init_done and coldinit stores it — a WAR on the
    // unpruned graph. (The table stores are written *before* the hot
    // path reads them, so they are RAW and need no checkpoint.)
    IdempotenceAnalysis::Options options; // pmin = -1: no pruning
    Fixture fx(kTrySwap, options);
    const auto result =
        fx.idem->analyzeRegion(fx.wholeFunction("try_swap"));
    EXPECT_EQ(result.cls, RegionClass::NonIdempotent);
    ASSERT_EQ(result.checkpoint_stores.size(), 1u);
    EXPECT_EQ(fx.module
                  ->object(result.checkpoint_stores[0]->addr().object)
                  .name,
              "init_done");
}

TEST(PminPruning, NeverExecutedPathPrunedAtZero)
{
    // Profile with the flag pre-set so coldinit never runs; pmin = 0.0
    // then prunes it and the region becomes statistically idempotent.
    IdempotenceAnalysis::Options options;
    options.pmin = 0.0;
    Fixture fx(kTrySwap, options);

    // Pre-setting the flag isn't expressible through main(), so profile
    // try_swap directly after priming init_done via a profiling run of
    // main (whose first call runs coldinit once, the rest hot).
    fx.profileRun("main", {50});

    // coldinit ran exactly once over 50 invocations: its probability is
    // 0.02 > 0, so pmin=0.0 keeps it...
    const auto at_zero =
        fx.idem->analyzeRegion(fx.wholeFunction("try_swap"));
    EXPECT_EQ(at_zero.cls, RegionClass::NonIdempotent);

    // ...while pmin=0.1 prunes the statistically dead path, exposing
    // the idempotence of the hot region (the Figure 2c observation).
    IdempotenceAnalysis::Options aggressive;
    aggressive.pmin = 0.1;
    IdempotenceAnalysis idem2(*fx.module, *fx.aa, *fx.summaries,
                              fx.profile.get(), aggressive);
    const auto at_tenth = idem2.analyzeRegion(fx.wholeFunction("try_swap"));
    EXPECT_EQ(at_tenth.cls, RegionClass::Idempotent);
}

TEST(PminPruning, ZeroPrunesTrulyDeadCode)
{
    IdempotenceAnalysis::Options options;
    options.pmin = 0.0;
    Fixture fx(R"(
module "m"
global @X 2
func @f(1) {
  bb entry:
    r1 = load [@X]
    br r0, deadwrite, out
  bb deadwrite:
    store [@X], 1
    jmp out
  bb out:
    ret r1
}
)",
               options);
    // Profile only the path that skips the write.
    fx.profileRun("f", {0});
    const auto result = fx.idem->analyzeRegion(fx.wholeFunction("f"));
    EXPECT_EQ(result.cls, RegionClass::Idempotent);
}

} // namespace
} // namespace encore
