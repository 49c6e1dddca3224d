/**
 * @file
 * Tests for abstract memory locations, location sets, and the alias
 * analyses (static points-to and profile-guided optimistic).
 */
#include <gtest/gtest.h>

#include "analysis/alias.h"
#include "ir/parser.h"

namespace encore::analysis {
namespace {

TEST(MemLocTest, MayAliasRules)
{
    const MemLoc a = MemLoc::exact(1, 4);
    const MemLoc b = MemLoc::exact(1, 4);
    const MemLoc c = MemLoc::exact(1, 5);
    const MemLoc d = MemLoc::exact(2, 4);
    const MemLoc obj1 = MemLoc::object(1);
    const MemLoc any = MemLoc::anywhere();

    EXPECT_TRUE(mayAlias(a, b));
    EXPECT_FALSE(mayAlias(a, c)); // same object, different offsets
    EXPECT_FALSE(mayAlias(a, d)); // different objects
    EXPECT_TRUE(mayAlias(a, obj1));
    EXPECT_FALSE(mayAlias(d, obj1));
    EXPECT_TRUE(mayAlias(a, any));
    EXPECT_TRUE(mayAlias(any, any));
}

TEST(MemLocTest, MultiBaseOffsets)
{
    const MemLoc ab5 = MemLoc::objects({1, 2});
    const MemLoc c = MemLoc::exact(2, 0);
    EXPECT_TRUE(mayAlias(ab5, c));
    const MemLoc disjoint = MemLoc::objects({3, 4});
    EXPECT_FALSE(mayAlias(ab5, disjoint));
}

TEST(MemLocTest, MustAliasNeedsExactness)
{
    EXPECT_TRUE(mustAlias(MemLoc::exact(1, 2), MemLoc::exact(1, 2)));
    EXPECT_FALSE(mustAlias(MemLoc::exact(1, 2), MemLoc::exact(1, 3)));
    EXPECT_FALSE(mustAlias(MemLoc::object(1), MemLoc::object(1)));
    EXPECT_FALSE(mustAlias(MemLoc::anywhere(), MemLoc::anywhere()));
}

TEST(LocationSetTest, DeduplicatesEntries)
{
    LocationSet set;
    set.add(MemLoc::exact(1, 0), nullptr);
    set.add(MemLoc::exact(1, 0), nullptr);
    EXPECT_EQ(set.size(), 1u);
    set.add(MemLoc::exact(1, 1), nullptr);
    EXPECT_EQ(set.size(), 2u);

    LocationSet other;
    other.add(MemLoc::exact(1, 1), nullptr);
    other.add(MemLoc::exact(9, 9), nullptr);
    EXPECT_TRUE(set.unionWith(other));
    EXPECT_EQ(set.size(), 3u);
    EXPECT_FALSE(set.unionWith(other)); // already included
}

const char *kAliasText = R"(
module "m"
global @G 32
global @H 32
func @f(1) {
  points r0 -> @H
  local %buf 8
  bb entry:
    r1 = lea [%buf]
    r2 = mov r1
    r3 = add r2, 2
    r4 = load [@G + 5]
    r5 = load [r3]
    r6 = load [r0 + 1]
    r7 = load [@G + r6]
    store [@G + 5], r5
    ret r5
}
)";

TEST(StaticAA, PointsToThroughLeaAndArithmetic)
{
    auto module = ir::parseModule(kAliasText);
    const ir::Function &f = *module->functionByName("f");
    StaticAliasAnalysis aa(*module);

    const ir::ObjectId buf = module->objectByName("f.buf");
    const ir::ObjectId h = module->objectByName("H");

    const auto &p1 = aa.pointsTo(f, 1);
    EXPECT_FALSE(p1.unknown);
    EXPECT_TRUE(p1.objects.count(buf));

    // Propagated through mov and add.
    const auto &p3 = aa.pointsTo(f, 3);
    EXPECT_FALSE(p3.unknown);
    EXPECT_TRUE(p3.objects.count(buf));

    // Parameter annotation honoured.
    const auto &p0 = aa.pointsTo(f, 0);
    EXPECT_FALSE(p0.unknown);
    EXPECT_TRUE(p0.objects.count(h));

    // Loaded values are untracked pointers.
    EXPECT_TRUE(aa.pointsTo(f, 4).unknown);
}

TEST(StaticAA, ClassifiesAddressExpressions)
{
    auto module = ir::parseModule(kAliasText);
    const ir::Function &f = *module->functionByName("f");
    StaticAliasAnalysis aa(*module);
    const ir::ObjectId g = module->objectByName("G");
    const ir::ObjectId buf = module->objectByName("f.buf");

    for (const auto &inst : f.entry()->instructions()) {
        if (!ir::opcodeHasAddress(inst.opcode()))
            continue;
        const MemLoc loc = aa.classify(f, inst);
        if (inst.opcode() == ir::Opcode::Load &&
            inst.addr().isObjectBase() && inst.addr().offset.isImm()) {
            EXPECT_TRUE(loc.isExact());
            EXPECT_EQ(loc.bases[0], g);
            EXPECT_EQ(loc.offset, 5);
        }
        if (inst.opcode() == ir::Opcode::Load &&
            inst.addr().isRegBase() && inst.addr().base_reg == 3) {
            ASSERT_FALSE(loc.unknown_base);
            EXPECT_EQ(loc.bases, std::vector<ir::ObjectId>{buf});
            EXPECT_FALSE(loc.exact_offset);
        }
    }
}

TEST(OptimisticAA, UsesObservedAddresses)
{
    auto module = ir::parseModule(kAliasText);
    const ir::Function &f = *module->functionByName("f");
    StaticAliasAnalysis static_aa(*module);
    DynamicAddressProfile profile;

    // Grab two instructions to attach observations to.
    const ir::Instruction *load_r5 = nullptr;  // load [r3]
    const ir::Instruction *load_r7 = nullptr;  // load [@G + r6]
    for (const auto &inst : f.entry()->instructions()) {
        if (inst.opcode() == ir::Opcode::Load && inst.hasDest()) {
            if (inst.dest() == 5)
                load_r5 = &inst;
            if (inst.dest() == 7)
                load_r7 = &inst;
        }
    }
    ASSERT_NE(load_r5, nullptr);
    ASSERT_NE(load_r7, nullptr);

    const ir::ObjectId g = module->objectByName("G");
    const ir::ObjectId buf = module->objectByName("f.buf");
    profile.observations[load_r5].record(buf, 2);
    profile.observations[load_r7].record(g, 10);
    profile.observations[load_r7].record(g, 11);

    ProfileGuidedAliasAnalysis aa(static_aa, profile);

    // classify: singleton observation becomes exact.
    const MemLoc loc5 = aa.classify(f, *load_r5);
    EXPECT_TRUE(loc5.isExact());
    EXPECT_EQ(loc5.bases[0], buf);
    EXPECT_EQ(loc5.offset, 2);

    // Pairwise: observed address sets are disjoint although the static
    // locations could overlap.
    LocEntry a{MemLoc::object(g), load_r7};
    LocEntry b{MemLoc::object(g), load_r5};
    EXPECT_FALSE(aa.mayAlias(a, b));

    // Same address observed on both sides -> may (and must) alias.
    profile.observations[load_r5].record(g, 10);
    EXPECT_TRUE(aa.mayAlias(a, b));
}

TEST(OptimisticAA, OverflowDegradesToObjects)
{
    AddrObservation obs;
    for (std::uint32_t i = 0; i < AddrObservation::kMaxAddrs + 5; ++i)
        obs.record(1, i);
    EXPECT_TRUE(obs.overflow);
    EXPECT_TRUE(obs.addrs.empty());
    EXPECT_EQ(obs.objects.size(), 1u);
}

TEST(OptimisticAA, FallsBackWithoutObservations)
{
    auto module = ir::parseModule(kAliasText);
    const ir::Function &f = *module->functionByName("f");
    StaticAliasAnalysis static_aa(*module);
    DynamicAddressProfile empty;
    ProfileGuidedAliasAnalysis aa(static_aa, empty);

    for (const auto &inst : f.entry()->instructions()) {
        if (ir::opcodeHasAddress(inst.opcode())) {
            const MemLoc optimistic = aa.classify(f, inst);
            const MemLoc conservative = static_aa.classify(f, inst);
            EXPECT_TRUE(optimistic == conservative);
        }
    }
}

} // namespace
} // namespace encore::analysis
