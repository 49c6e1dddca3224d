/**
 * @file
 * Property tests for the interned location-set machinery (IdSet,
 * LocationInterner, AliasFilter) against std::set-based reference
 * oracles on random inputs, plus end-to-end determinism tests for the
 * split analysis pipeline: the same workload analyzed twice, cached vs
 * uncached, and at different thread counts must produce byte-identical
 * EncoreReports.
 */
#include <algorithm>
#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/interning.h"
#include "encore/analysis_base.h"
#include "encore/pipeline.h"
#include "workloads/workload.h"

namespace encore::analysis {
namespace {

// ---------------------------------------------------------------------
// IdSet vs std::set<uint32_t> oracle.
// ---------------------------------------------------------------------

std::vector<std::uint32_t>
oracleVector(const std::set<std::uint32_t> &oracle)
{
    return std::vector<std::uint32_t>(oracle.begin(), oracle.end());
}

void
expectMatchesOracle(const IdSet &set,
                    const std::set<std::uint32_t> &oracle)
{
    ASSERT_EQ(set.size(), oracle.size());
    EXPECT_EQ(set.empty(), oracle.empty());
    EXPECT_EQ(set.toVector(), oracleVector(oracle));
    // forEach must visit ascending.
    std::vector<std::uint32_t> visited;
    set.forEach([&](std::uint32_t id) { visited.push_back(id); });
    EXPECT_EQ(visited, oracleVector(oracle));
}

TEST(IdSetTest, RandomInsertContainsDenseTransition)
{
    std::mt19937 rng(0xe5c0fe);
    std::uniform_int_distribution<std::uint32_t> pick(0, 199);

    IdSet set;
    std::set<std::uint32_t> oracle;
    for (int i = 0; i < 400; ++i) {
        const std::uint32_t id = pick(rng);
        EXPECT_EQ(set.insert(id), oracle.insert(id).second);
    }
    // 400 draws from a 200-id universe: a set well past 48 elements.
    expectMatchesOracle(set, oracle);
    for (std::uint32_t id = 0; id < 220; ++id)
        EXPECT_EQ(set.contains(id), oracle.count(id) != 0) << id;
}

TEST(IdSetTest, SparseLargeIdsStaySparse)
{
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::uint32_t> pick(0, 1u << 30);

    IdSet set;
    std::set<std::uint32_t> oracle;
    for (int i = 0; i < 100; ++i) {
        const std::uint32_t id = pick(rng);
        EXPECT_EQ(set.insert(id), oracle.insert(id).second);
    }
    expectMatchesOracle(set, oracle);
    EXPECT_FALSE(set.contains(pick(rng) | (1u << 31)));
}

/// Random set over one of three universes so union/intersection pairs
/// mix sparse and crowded sets.
std::pair<IdSet, std::set<std::uint32_t>>
randomSet(std::mt19937 &rng)
{
    static const std::uint32_t kUniverses[] = {64, 1000, 1u << 20};
    const std::uint32_t universe =
        kUniverses[rng() % (sizeof(kUniverses) / sizeof(*kUniverses))];
    std::uniform_int_distribution<std::uint32_t> pick(0, universe - 1);
    std::uniform_int_distribution<int> count(0, 160);

    IdSet set;
    std::set<std::uint32_t> oracle;
    const int n = count(rng);
    for (int i = 0; i < n; ++i) {
        const std::uint32_t id = pick(rng);
        EXPECT_EQ(set.insert(id), oracle.insert(id).second);
    }
    return {std::move(set), std::move(oracle)};
}

TEST(IdSetTest, RandomUnionsMatchOracle)
{
    std::mt19937 rng(12345);
    for (int trial = 0; trial < 200; ++trial) {
        auto [a, oracle_a] = randomSet(rng);
        auto [b, oracle_b] = randomSet(rng);

        const std::size_t before = oracle_a.size();
        oracle_a.insert(oracle_b.begin(), oracle_b.end());
        const bool oracle_grew = oracle_a.size() != before;

        EXPECT_EQ(a.unionWith(b), oracle_grew);
        expectMatchesOracle(a, oracle_a);
        // b must be untouched.
        expectMatchesOracle(b, oracle_b);
        // Re-union is a no-op.
        EXPECT_FALSE(a.unionWith(b));
    }
}

TEST(IdSetTest, RandomIntersectionsMatchOracle)
{
    std::mt19937 rng(54321);
    for (int trial = 0; trial < 200; ++trial) {
        auto [a, oracle_a] = randomSet(rng);
        auto [b, oracle_b] = randomSet(rng);

        std::set<std::uint32_t> expected;
        std::set_intersection(oracle_a.begin(), oracle_a.end(),
                              oracle_b.begin(), oracle_b.end(),
                              std::inserter(expected, expected.end()));

        a.intersectWith(b);
        expectMatchesOracle(a, expected);
        expectMatchesOracle(b, oracle_b);
        // Intersection is idempotent.
        a.intersectWith(b);
        expectMatchesOracle(a, expected);
    }
}

TEST(IdSetTest, EqualityIsRepresentationIndependent)
{
    std::mt19937 rng(99);
    for (int trial = 0; trial < 100; ++trial) {
        auto [a, oracle_a] = randomSet(rng);
        auto [b, oracle_b] = randomSet(rng);
        EXPECT_EQ(a == b, oracle_a == oracle_b);

        // Same content inserted in a different order must still
        // compare equal.
        std::vector<std::uint32_t> shuffled = oracleVector(oracle_a);
        std::shuffle(shuffled.begin(), shuffled.end(), rng);
        IdSet c;
        for (const std::uint32_t id : shuffled)
            c.insert(id);
        EXPECT_TRUE(a == c);
    }
}

// ---------------------------------------------------------------------
// LocationInterner identities.
// ---------------------------------------------------------------------

const ir::Instruction *
fakeOrigin(std::uintptr_t tag)
{
    // The interner keys on the pointer value and never dereferences
    // origins, so synthetic tags are safe stand-ins for instructions.
    return reinterpret_cast<const ir::Instruction *>(0x1000 + 16 * tag);
}

TEST(LocationInternerTest, InterningIsIdempotent)
{
    LocationInterner interner;
    const LocId a = interner.internLoc(MemLoc::exact(1, 4));
    const LocId b = interner.internLoc(MemLoc::exact(1, 4));
    const LocId c = interner.internLoc(MemLoc::exact(1, 5));
    const LocId d = interner.internLoc(MemLoc::object(1));
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, d);
    EXPECT_EQ(interner.numLocs(), 3u);
    EXPECT_TRUE(interner.loc(a) == MemLoc::exact(1, 4));
    EXPECT_TRUE(interner.loc(d) == MemLoc::object(1));
}

TEST(LocationInternerTest, GuardsOnlyForExactLocations)
{
    LocationInterner interner;
    const LocId e14 = interner.internLoc(MemLoc::exact(1, 4));
    const LocId e14_dup = interner.internLoc(MemLoc::exact(1, 4));
    const LocId e15 = interner.internLoc(MemLoc::exact(1, 5));
    const LocId e24 = interner.internLoc(MemLoc::exact(2, 4));
    const LocId obj = interner.internLoc(MemLoc::object(1));
    const LocId multi = interner.internLoc(MemLoc::objects({1, 2}));
    const LocId any = interner.internLoc(MemLoc::anywhere());

    EXPECT_NE(interner.guardOfLoc(e14), kInvalidInternId);
    EXPECT_EQ(interner.guardOfLoc(e14), interner.guardOfLoc(e14_dup));
    EXPECT_NE(interner.guardOfLoc(e14), interner.guardOfLoc(e15));
    EXPECT_NE(interner.guardOfLoc(e14), interner.guardOfLoc(e24));
    EXPECT_EQ(interner.guardOfLoc(obj), kInvalidInternId);
    EXPECT_EQ(interner.guardOfLoc(multi), kInvalidInternId);
    EXPECT_EQ(interner.guardOfLoc(any), kInvalidInternId);
    EXPECT_EQ(interner.numGuards(), 3u);
}

TEST(LocationInternerTest, EntriesKeyOnLocationAndOrigin)
{
    LocationInterner interner;
    const MemLoc loc = MemLoc::exact(3, 8);
    const EntryId e1 = interner.internEntry(loc, fakeOrigin(1));
    const EntryId e1_dup = interner.internEntry(loc, fakeOrigin(1));
    const EntryId e2 = interner.internEntry(loc, fakeOrigin(2));
    const EntryId e3 =
        interner.internEntry(MemLoc::object(3), fakeOrigin(1));

    EXPECT_EQ(e1, e1_dup);
    EXPECT_NE(e1, e2);
    EXPECT_NE(e1, e3);
    EXPECT_EQ(interner.numEntries(), 3u);

    // Same location behind distinct entries.
    EXPECT_EQ(interner.locOfEntry(e1), interner.locOfEntry(e2));
    EXPECT_NE(interner.locOfEntry(e1), interner.locOfEntry(e3));
    EXPECT_TRUE(interner.entry(e1).loc == loc);
    EXPECT_EQ(interner.entry(e2).origin, fakeOrigin(2));
    EXPECT_EQ(interner.guardOfEntry(e1),
              interner.guardOfLoc(interner.locOfEntry(e1)));
    EXPECT_EQ(interner.guardOfEntry(e3), kInvalidInternId);
}

// ---------------------------------------------------------------------
// AliasFilter vs a nested-loop std::set oracle.
// ---------------------------------------------------------------------

/// Minimal origin-insensitive analysis: the inherited mayAlias falls
/// back to the abstract-location rules, which is exactly what the
/// oracle below recomputes without memoization.
class StubAliasAnalysis : public AliasAnalysis
{
  public:
    MemLoc
    classify(const ir::Function &, const ir::Instruction &) const override
    {
        return MemLoc::anywhere();
    }
};

TEST(AliasFilterTest, MatchesNestedLoopOracleOnRandomSets)
{
    LocationInterner interner;
    // A location mix that exercises every mayAlias rule: exact hits
    // and misses, overlapping/disjoint base sets, and anywhere.
    const std::vector<MemLoc> locs = {
        MemLoc::exact(1, 0),      MemLoc::exact(1, 4),
        MemLoc::exact(2, 0),      MemLoc::exact(2, 4),
        MemLoc::object(1),        MemLoc::object(3),
        MemLoc::objects({1, 2}),  MemLoc::objects({3, 4}),
        MemLoc::anywhere(),
    };
    std::vector<EntryId> entries;
    for (std::size_t i = 0; i < locs.size(); ++i)
        for (std::uintptr_t origin = 0; origin < 3; ++origin)
            entries.push_back(
                interner.internEntry(locs[i], fakeOrigin(origin)));

    StubAliasAnalysis aa;
    ASSERT_FALSE(aa.originSensitive());
    AliasFilter filter(interner, aa);

    std::mt19937 rng(2026);
    std::uniform_int_distribution<std::size_t> pick(0,
                                                    entries.size() - 1);
    std::uniform_int_distribution<int> count(0, 12);
    for (int trial = 0; trial < 100; ++trial) {
        IdSet ea, rs;
        for (int i = count(rng); i > 0; --i)
            ea.insert(entries[pick(rng)]);
        for (int i = count(rng); i > 0; --i)
            rs.insert(entries[pick(rng)]);

        std::vector<std::pair<EntryId, EntryId>> got;
        filter.forEachAliasingPair(
            ea, rs, [&](EntryId exposed, EntryId store) {
                got.emplace_back(exposed, store);
            });

        std::vector<std::pair<EntryId, EntryId>> expected;
        for (const EntryId exposed : ea.toVector())
            for (const EntryId store : rs.toVector())
                if (mayAlias(interner.entry(exposed).loc,
                             interner.entry(store).loc))
                    expected.emplace_back(exposed, store);

        EXPECT_EQ(got, expected);
    }

    // Origin-insensitive analyses memoize per location pair, so the
    // cache stays bounded by |locs|^2 no matter how many entries the
    // sweep touched.
    EXPECT_GT(filter.cacheSize(), 0u);
    EXPECT_LE(filter.cacheSize(), locs.size() * locs.size());

    // Memoized answers must agree with fresh ones.
    for (int i = 0; i < 50; ++i) {
        const EntryId a = entries[pick(rng)];
        const EntryId b = entries[pick(rng)];
        EXPECT_EQ(filter.mayAlias(a, b),
                  mayAlias(interner.entry(a).loc, interner.entry(b).loc));
    }
}

} // namespace
} // namespace encore::analysis

// ---------------------------------------------------------------------
// Pipeline determinism: byte-identical reports across reruns, cache
// modes, and thread counts.
// ---------------------------------------------------------------------

namespace encore {
namespace {

const workloads::Workload &
testWorkload(std::size_t index)
{
    const auto &suite = workloads::allWorkloads();
    return suite[index % suite.size()];
}

EncoreConfig
configFor(const workloads::Workload &workload, double pmin = -1.0)
{
    EncoreConfig config;
    if (pmin >= 0.0) {
        config.prune = true;
        config.pmin = pmin;
    }
    for (const std::string &name : workload.opaque)
        config.opaque_functions.insert(name);
    return config;
}

std::string
pipelineReport(const workloads::Workload &workload)
{
    auto module = workload.build();
    EncorePipeline pipeline(*module, configFor(workload));
    return pipeline
        .run({RunSpec{workload.entry, workload.train_args}})
        .serialized();
}

TEST(PipelineDeterminismTest, SameWorkloadTwiceIsByteIdentical)
{
    for (const std::size_t index : {0u, 7u, 15u}) {
        const workloads::Workload &w = testWorkload(index);
        EXPECT_EQ(pipelineReport(w), pipelineReport(w)) << w.name;
    }
}

TEST(PipelineDeterminismTest, CachedUncachedAndParallelAgree)
{
    for (const std::size_t index : {0u, 11u}) {
        const workloads::Workload &w = testWorkload(index);
        const std::string reference = pipelineReport(w);
        const std::vector<RunSpec> runs{
            RunSpec{w.entry, w.train_args}};
        const EncoreConfig config = configFor(w);

        auto module = w.build();
        AnalysisBase base(*module, runs, config.profile_max_instrs);

        // A null cache: a memo local to the call, over a shared base.
        EXPECT_EQ(analyzeConfig(base, config).report.serialized(),
                  reference)
            << w.name;

        // A shared cache: cold fill, then an all-hits rerun.
        AnalysisCache cache(base);
        EXPECT_EQ(
            analyzeConfig(base, config, &cache).report.serialized(),
            reference)
            << w.name;
        const AnalysisCache::Stats cold = cache.stats();
        EXPECT_EQ(
            analyzeConfig(base, config, &cache).report.serialized(),
            reference)
            << w.name;
        const AnalysisCache::Stats warm = cache.stats();
        EXPECT_EQ(warm.region_evals, cold.region_evals)
            << "warm rerun must not re-evaluate any region";
        EXPECT_GT(warm.region_hits, cold.region_hits);

        // A different config point shares the base but not the
        // variant; it must match its own from-scratch pipeline.
        const EncoreConfig pruned = configFor(w, 0.1);
        auto pruned_module = w.build();
        EncorePipeline pruned_pipeline(*pruned_module, pruned);
        EXPECT_EQ(
            analyzeConfig(base, pruned, &cache).report.serialized(),
            pruned_pipeline.run(runs).serialized())
            << w.name;

        // Multi-threaded base, with a null and a shared cache.
        auto parallel_module = w.build();
        AnalysisBase parallel_base(*parallel_module, runs,
                                   config.profile_max_instrs,
                                   /*jobs=*/4);
        AnalysisCache parallel_cache(parallel_base);
        EXPECT_EQ(
            analyzeConfig(parallel_base, config).report.serialized(),
            reference)
            << w.name;
        EXPECT_EQ(analyzeConfig(parallel_base, config, &parallel_cache)
                      .report.serialized(),
                  reference)
            << w.name;
    }
}

} // namespace
} // namespace encore
