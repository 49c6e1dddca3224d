/**
 * @file
 * Campaign-planner tests: the tentpole acceptance criteria.
 *
 *  - A planned campaign's aggregate is tally-identical to brute-force
 *    FaultInjector::runCampaign, with and without sidecar reuse.
 *  - A fingerprint-invalidating config change (γ flip deselecting one
 *    function's region) re-injects exactly the groups of the changed
 *    function and its callers; untouched functions fold from the
 *    sidecar.
 *  - A planned campaign's summary is byte-identical at --jobs 1 and
 *    --jobs 4, and its per-stratum tallies add up to the aggregate.
 *  - The sidecar survives torn tails and CRC corruption the same way
 *    the trial store does: drop the bad tail, re-execute the affected
 *    groups, never produce a wrong tally.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "campaign/planner.h"
#include "campaign/runner.h"
#include "campaign/tally_store.h"
#include "encore/pipeline.h"
#include "ir/parser.h"
#include "support/checksum.h"

namespace encore::campaign {
namespace {

/**
 * Three-function program engineered for the reuse differential:
 *
 *  - @cold: idempotent loop (distinct store slots, no WAR) — its
 *    region costs no checkpoints, so selection survives any γ.
 *  - @hot: read-modify-write loop (WAR on the same slot) — needs
 *    checkpoints, so its region selection flips on γ.
 *  - @main: calls cold *then* hot, so the tail window (last dmax+2
 *    value instructions) lands in hot/main and every cold group is a
 *    non-tail group.
 *
 * Raising γ from 1.0 past hot's selection score (but below cold's)
 * therefore changes hot's — and, through the call closure, main's —
 * instrumentation fingerprints while leaving cold's untouched.
 */
const char *kProgram = R"(
module "m"
global @in 64
global @cout 64
global @buf 64
func @cold(1) {
  bb entry:
    r1 = mov 0
    r2 = mov 0
    jmp loop
  bb loop:
    r3 = and r1, 63
    r4 = load [@in + r3]
    r5 = add r4, r1
    store [@cout + r3], r5
    r2 = add r2, r5
    r1 = add r1, 1
    r6 = cmplt r1, r0
    br r6, loop, done
  bb done:
    ret r2
}
func @hot(1) {
  bb entry:
    r1 = mov 0
    jmp loop
  bb loop:
    r2 = and r1, 63
    r3 = load [@buf + r2]
    r4 = add r3, 7
    store [@buf + r2], r4
    r1 = add r1, 1
    r5 = cmplt r1, r0
    br r5, loop, done
  bb done:
    r6 = load [@buf + 1]
    ret r6
}
func @main(1) {
  bb entry:
    r1 = call @cold(r0)
    r2 = call @hot(r0)
    r3 = add r1, r2
    ret r3
}
)";

struct Harness
{
    std::unique_ptr<ir::Module> module;
    EncoreReport report;
    std::unique_ptr<fault::FaultInjector> injector;
};

Harness
prepare(double gamma = 1.0, std::uint64_t arg = 60)
{
    Harness setup;
    setup.module = ir::parseModule(kProgram);
    EncoreConfig config;
    config.gamma = gamma;
    EncorePipeline pipeline(*setup.module, config);
    setup.report = pipeline.run({RunSpec{"main", {arg}}});
    setup.injector = std::make_unique<fault::FaultInjector>(
        *setup.module, setup.report);
    EXPECT_TRUE(setup.injector->prepare("main", {arg}));
    return setup;
}

fault::CampaignConfig
campaignConfig(std::size_t jobs = 1, std::uint64_t trials = 400)
{
    fault::CampaignConfig config;
    config.trials = trials;
    config.seed = 77520;
    config.jobs = jobs;
    config.masking_rate = 0.5; // exercise both coin results
    config.trial.dmax = 40;
    return config;
}

std::string
tempPath(const std::string &name)
{
    const std::string path =
        (std::filesystem::path(::testing::TempDir()) / name).string();
    std::filesystem::remove(path);
    return path;
}

void
appendBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

void
corruptByte(const std::string &path, std::uint64_t offset)
{
    std::fstream file(path, std::ios::binary | std::ios::in |
                                std::ios::out);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
}

// --- Tally-identity differential ------------------------------------

TEST(Planner, RunMatchesBruteForceWithoutSidecar)
{
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig();
    const fault::CampaignResult brute =
        setup.injector->runCampaign(config);

    CampaignPlanner planner(*setup.injector, setup.report, config);
    const PlanSummary summary = planner.run();

    EXPECT_EQ(formatAggregate(summary.result), formatAggregate(brute));
    EXPECT_EQ(summary.universe, config.trials);
    EXPECT_EQ(summary.masked_trials,
              brute.count(fault::FaultOutcome::Masked));
    EXPECT_EQ(summary.executed + summary.masked_trials,
              summary.universe);
    EXPECT_EQ(summary.reused_trials, 0u);
    EXPECT_EQ(summary.groups_reused, 0u);
    EXPECT_GT(summary.groups, 1u);
    // Exhaustive run: the coverage figure is exact and matches the
    // aggregate's fraction.
    EXPECT_DOUBLE_EQ(summary.coverage, brute.coveredFraction());

    // The strata partition the universe, and their covered counts
    // partition the aggregate's covered count.
    ASSERT_EQ(summary.strata.size(), 4u);
    EXPECT_EQ(summary.strata[0].name, "masked");
    EXPECT_EQ(summary.strata[0].universe, summary.masked_trials);
    EXPECT_EQ(summary.strata[0].sampled, 0u);
    std::uint64_t universe = 0, covered = 0, sampled = 0;
    for (const StratumSummary &stratum : summary.strata) {
        EXPECT_LE(stratum.covered, stratum.universe) << stratum.name;
        universe += stratum.universe;
        covered += stratum.covered;
        sampled += stratum.sampled;
    }
    EXPECT_EQ(universe, summary.universe);
    EXPECT_EQ(sampled, summary.executed);
    const auto covered_count = [](const fault::CampaignResult &r) {
        return r.count(fault::FaultOutcome::Masked) +
               r.count(fault::FaultOutcome::RecoveredIdempotent) +
               r.count(fault::FaultOutcome::RecoveredCheckpoint) +
               r.count(fault::FaultOutcome::Benign);
    };
    EXPECT_EQ(covered, covered_count(summary.result));
    EXPECT_EQ(covered, covered_count(brute));
}

TEST(Planner, RunIsByteIdenticalAcrossJobs)
{
    // The only planner test that runs the pooled trial loop at more
    // than one thread (scripts/sanitize.sh's thread lane runs it).
    Harness setup = prepare();
    CampaignPlanner one(*setup.injector, setup.report,
                        campaignConfig(1, 2000));
    CampaignPlanner four(*setup.injector, setup.report,
                         campaignConfig(4, 2000));
    const PlanSummary s1 = one.run();
    const PlanSummary s4 = four.run();
    EXPECT_GT(s1.executed, 0u);
    EXPECT_EQ(formatPlanSummary(s1), formatPlanSummary(s4));
}

TEST(Planner, SameConfigSecondRunReusesEverything)
{
    const std::string sidecar = tempPath("planner_same.tally");
    const fault::CampaignConfig config = campaignConfig();
    PlannerOptions options;
    options.sidecar_path = sidecar;
    options.program_key = 0x1234;

    Harness first = prepare();
    CampaignPlanner warm(*first.injector, first.report, config,
                         options);
    const PlanSummary populate = warm.run();
    EXPECT_EQ(populate.groups_reused, 0u);

    // A fresh planner over an identically-built harness: every group
    // (tail groups included — the module hash is unchanged) folds from
    // the sidecar and nothing executes.
    Harness second = prepare();
    CampaignPlanner cold(*second.injector, second.report, config,
                         options);
    const PlanSummary reused = cold.run();
    EXPECT_EQ(reused.executed, 0u);
    EXPECT_EQ(reused.groups_reused, reused.groups);
    EXPECT_EQ(reused.reused_trials + reused.masked_trials,
              reused.universe);
    EXPECT_EQ(formatAggregate(reused.result),
              formatAggregate(populate.result));
}

TEST(Planner, TallyKeysAreStableAcrossBuilds)
{
    // Sidecar keys are durable: a key that changes between builds makes
    // every existing sidecar stop folding. Pinned values.
    const std::string sidecar = tempPath("planner_keys.tally");
    PlannerOptions options;
    options.sidecar_path = sidecar;
    options.program_key = 0x1234;
    Harness setup = prepare();
    CampaignPlanner(*setup.injector, setup.report, campaignConfig(),
                    options)
        .run();

    TallyContents contents;
    ASSERT_FALSE(readTallyStore(sidecar, contents).has_value());
    ASSERT_EQ(contents.records.size(), 3u);
    EXPECT_EQ(contents.records.front().key, 0xf855d9aceb0054e9ULL);
    EXPECT_EQ(contents.records.back().key, 0x7d71a2e13938ce5aULL);
}

TEST(Planner, GammaFlipReinjectsExactlyTheChangedFunctions)
{
    const std::string sidecar = tempPath("planner_flip.tally");
    const fault::CampaignConfig config = campaignConfig();
    PlannerOptions options;
    options.sidecar_path = sidecar;
    options.program_key = 0x1234;

    // Populate at γ=1.0 (hot's checkpointed region selected).
    Harness a = prepare(1.0);
    CampaignPlanner warm(*a.injector, a.report, config, options);
    warm.run();

    // γ=2e4 sits between the two selection scores: hot checkpoints
    // every iteration (coverage²/cost ≈ 1.5e3, rejected) while cold's
    // only per-entry cost is region.enter (score ≈ 2e5, kept).
    Harness b = prepare(2e4);
    bool hot_had_region = false, hot_deselected = true;
    for (const auto &region : a.report.regions) {
        if (region.function == "hot" && region.selected)
            hot_had_region = true;
    }
    for (const auto &region : b.report.regions) {
        if (region.function == "hot" && region.selected)
            hot_deselected = false;
    }
    ASSERT_TRUE(hot_had_region)
        << "test premise: γ=1.0 must select hot's region";
    ASSERT_TRUE(hot_deselected)
        << "test premise: γ=2e4 must deselect hot's region";

    // The reuse contract's load-bearing invariant: the golden-run
    // witnesses (fault-site universe and program result) must not
    // depend on instrumentation choices.
    EXPECT_EQ(a.injector->golden().value_instrs,
              b.injector->golden().value_instrs);
    EXPECT_EQ(a.injector->golden().return_value,
              b.injector->golden().return_value);
    CampaignPlanner planner(*b.injector, b.report, config, options);
    const PlanSummary summary = planner.run();

    // Exactly the changed instrumentation re-injects: cold's non-tail
    // groups fold from the sidecar; hot (changed) and main (its call
    // closure contains hot) re-execute.
    std::size_t cold_groups = 0, reused = 0;
    for (const GroupSummary &group : summary.group_details) {
        const bool expect_reuse =
            group.function == "cold" && !group.tail;
        EXPECT_EQ(group.reused, expect_reuse)
            << group.function << (group.tail ? " (tail)" : "");
        cold_groups += group.function == "cold";
        reused += group.reused;
    }
    EXPECT_GT(cold_groups, 0u);
    EXPECT_GT(reused, 0u);
    EXPECT_EQ(summary.groups_reused, reused);
    EXPECT_GT(summary.executed, 0u);
    EXPECT_GT(summary.reused_trials, 0u);
    EXPECT_EQ(summary.executed + summary.reused_trials +
                  summary.masked_trials,
              summary.universe);

    // ... and the mixed fold+execute aggregate is tally-identical to
    // brute force over the new instrumentation.
    const fault::CampaignResult brute = b.injector->runCampaign(config);
    EXPECT_EQ(formatAggregate(summary.result), formatAggregate(brute));
}

// --- Sidecar durability ---------------------------------------------

TEST(PlannerSidecar, TornTailIsDroppedAndGroupsStillFold)
{
    const std::string sidecar = tempPath("planner_torn.tally");
    const fault::CampaignConfig config = campaignConfig();
    PlannerOptions options;
    options.sidecar_path = sidecar;

    Harness a = prepare();
    CampaignPlanner warm(*a.injector, a.report, config, options);
    const PlanSummary populate = warm.run();

    // A kill mid-append leaves a partial record at the tail.
    appendBytes(sidecar, "torn");

    Harness b = prepare();
    CampaignPlanner planner(*b.injector, b.report, config, options);
    const PlanSummary summary = planner.run();
    EXPECT_EQ(summary.sidecar_dropped_bytes, 4u);
    EXPECT_EQ(summary.executed, 0u);
    EXPECT_EQ(summary.groups_reused, summary.groups);
    EXPECT_EQ(formatAggregate(summary.result),
              formatAggregate(populate.result));
}

TEST(PlannerSidecar, CorruptRecordReexecutesButStaysTallyIdentical)
{
    const std::string sidecar = tempPath("planner_crc.tally");
    const fault::CampaignConfig config = campaignConfig();
    PlannerOptions options;
    options.sidecar_path = sidecar;

    Harness a = prepare();
    CampaignPlanner warm(*a.injector, a.report, config, options);
    const PlanSummary populate = warm.run();
    ASSERT_GT(populate.groups, 2u);

    // Corrupt a byte inside the third record: the reader keeps the
    // first two, drops everything from the corruption on, and the
    // planner re-executes the affected groups.
    corruptByte(sidecar, kTallyStoreHeaderSize + 2 * kTallyRecordSize +
                             kTallyRecordSize / 2);

    Harness b = prepare();
    CampaignPlanner planner(*b.injector, b.report, config, options);
    const PlanSummary summary = planner.run();
    EXPECT_GT(summary.sidecar_dropped_bytes, 0u);
    EXPECT_GT(summary.executed, 0u);
    EXPECT_GT(summary.groups_reused, 0u);
    EXPECT_EQ(formatAggregate(summary.result),
              formatAggregate(populate.result));
}

// --- Tally store format units (mirroring test_trial_store) ----------

TallyRecord
sampleRecord(std::uint64_t key, std::uint64_t count)
{
    TallyRecord record;
    record.key = key;
    record.subset_hash = key * 2654435761u;
    record.subset_count = count;
    record.counts[0] = count; // all-masked keeps the sum invariant
    return record;
}

TEST(TallyStore, RoundTripAndLastWins)
{
    const std::string path = tempPath("tally_round_trip.tally");
    ASSERT_FALSE(createTallyStore(path).has_value());

    TallyContents empty;
    ASSERT_FALSE(readTallyStore(path, empty).has_value());
    const std::vector<TallyRecord> first = {sampleRecord(1, 10),
                                            sampleRecord(2, 20)};
    ASSERT_FALSE(appendTallyRecords(path, empty, first).has_value());

    TallyContents mid;
    ASSERT_FALSE(readTallyStore(path, mid).has_value());
    ASSERT_EQ(mid.records.size(), 2u);
    // An updated tally for key 1 is appended, never rewritten.
    ASSERT_FALSE(
        appendTallyRecords(path, mid, {sampleRecord(1, 30)})
            .has_value());

    TallyContents final_contents;
    ASSERT_FALSE(readTallyStore(path, final_contents).has_value());
    ASSERT_EQ(final_contents.records.size(), 3u);
    EXPECT_EQ(final_contents.dropped_bytes, 0u);
    const auto latest = latestTallies(final_contents);
    ASSERT_EQ(latest.size(), 2u);
    EXPECT_EQ(latest.at(1).subset_count, 30u);
    EXPECT_EQ(latest.at(2).subset_count, 20u);
}

/// Appends `value`'s host-endian bytes to `bytes`.
template <typename T>
void
appendField(std::string &bytes, T value)
{
    bytes.append(reinterpret_cast<const char *>(&value), sizeof value);
}

/// Appends the CRC32 of everything from `from` on.
void
appendCrc(std::string &bytes, std::size_t from)
{
    appendField<std::uint32_t>(
        bytes, crc32(bytes.data() + from, bytes.size() - from));
}

TEST(TallyStore, OnDiskBytesFollowTheLayoutTable)
{
    // Bytes assembled by hand from the layout table in tally_store.h,
    // so a framing change that reader and writer share still shows.
    const std::string path = tempPath("tally_layout.tally");
    ASSERT_FALSE(createTallyStore(path).has_value());
    TallyContents empty;
    ASSERT_FALSE(readTallyStore(path, empty).has_value());
    TallyRecord spread = sampleRecord(9, 12);
    spread.counts[0] = 5;
    spread.counts[kTallyOutcomeSlots - 1] = 7;
    const std::vector<TallyRecord> records = {sampleRecord(1, 10), spread};
    ASSERT_FALSE(appendTallyRecords(path, empty, records).has_value());

    std::string want = "ENCTALLY";
    appendField<std::uint32_t>(want, kTallyStoreVersion);
    appendField<std::uint32_t>(want, kTallyRecordSize);
    appendCrc(want, 0);
    ASSERT_EQ(want.size(), kTallyStoreHeaderSize);
    for (const TallyRecord &record : records) {
        const std::size_t start = want.size();
        appendField<std::uint64_t>(want, record.key);
        appendField<std::uint64_t>(want, record.subset_hash);
        appendField<std::uint64_t>(want, record.subset_count);
        for (const std::uint64_t count : record.counts)
            appendField<std::uint64_t>(want, count);
        appendCrc(want, start);
    }
    ASSERT_EQ(want.size(), kTallyStoreHeaderSize + 2 * kTallyRecordSize);

    std::ifstream in(path, std::ios::binary);
    const std::string got((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(got, want);
}

TEST(TallyStore, TornTailRecoversValidPrefix)
{
    const std::string path = tempPath("tally_torn.tally");
    ASSERT_FALSE(createTallyStore(path).has_value());
    TallyContents empty;
    ASSERT_FALSE(readTallyStore(path, empty).has_value());
    ASSERT_FALSE(appendTallyRecords(path, empty,
                                    {sampleRecord(7, 5)})
                     .has_value());
    appendBytes(path, std::string(kTallyRecordSize / 2, 'x'));

    TallyContents contents;
    ASSERT_FALSE(readTallyStore(path, contents).has_value());
    ASSERT_EQ(contents.records.size(), 1u);
    EXPECT_EQ(contents.records[0].key, 7u);
    EXPECT_EQ(contents.dropped_bytes, kTallyRecordSize / 2);

    // Appending after recovery truncates the torn tail first.
    ASSERT_FALSE(appendTallyRecords(path, contents,
                                    {sampleRecord(8, 6)})
                     .has_value());
    TallyContents repaired;
    ASSERT_FALSE(readTallyStore(path, repaired).has_value());
    ASSERT_EQ(repaired.records.size(), 2u);
    EXPECT_EQ(repaired.dropped_bytes, 0u);
    EXPECT_EQ(std::filesystem::file_size(path),
              kTallyStoreHeaderSize + 2 * kTallyRecordSize);
}

TEST(TallyStore, CrcCorruptRecordStopsTheScan)
{
    const std::string path = tempPath("tally_crc.tally");
    ASSERT_FALSE(createTallyStore(path).has_value());
    TallyContents empty;
    ASSERT_FALSE(readTallyStore(path, empty).has_value());
    ASSERT_FALSE(appendTallyRecords(
                     path, empty,
                     {sampleRecord(1, 1), sampleRecord(2, 2),
                      sampleRecord(3, 3)})
                     .has_value());
    corruptByte(path, kTallyStoreHeaderSize + kTallyRecordSize + 8);

    TallyContents contents;
    ASSERT_FALSE(readTallyStore(path, contents).has_value());
    ASSERT_EQ(contents.records.size(), 1u);
    EXPECT_EQ(contents.records[0].key, 1u);
    EXPECT_EQ(contents.dropped_bytes, 2 * kTallyRecordSize);
}

TEST(TallyStore, MismatchedOutcomeSumIsTreatedAsCorrupt)
{
    const std::string path = tempPath("tally_sum.tally");
    ASSERT_FALSE(createTallyStore(path).has_value());
    TallyContents empty;
    ASSERT_FALSE(readTallyStore(path, empty).has_value());
    TallyRecord bad = sampleRecord(4, 10);
    bad.counts[0] = 3; // sum(counts) != subset_count
    ASSERT_FALSE(appendTallyRecords(path, empty, {bad}).has_value());

    TallyContents contents;
    ASSERT_FALSE(readTallyStore(path, contents).has_value());
    EXPECT_TRUE(contents.records.empty());
    EXPECT_EQ(contents.dropped_bytes, kTallyRecordSize);
}

TEST(TallyStore, RejectsForeignAndDamagedHeaders)
{
    // Wrong magic.
    const std::string magic = tempPath("tally_magic.tally");
    appendBytes(magic, std::string(kTallyStoreHeaderSize, 'Z'));
    TallyContents contents;
    EXPECT_TRUE(readTallyStore(magic, contents).has_value());

    // Damaged header CRC.
    const std::string damaged = tempPath("tally_header.tally");
    ASSERT_FALSE(createTallyStore(damaged).has_value());
    corruptByte(damaged, 9);
    EXPECT_TRUE(readTallyStore(damaged, contents).has_value());

    // Truncated header.
    const std::string stub = tempPath("tally_stub.tally");
    appendBytes(stub, "ENCTALLY");
    EXPECT_TRUE(readTallyStore(stub, contents).has_value());

    // Missing file.
    EXPECT_TRUE(
        readTallyStore(tempPath("tally_missing.tally"), contents)
            .has_value());
}

} // namespace
} // namespace encore::campaign
