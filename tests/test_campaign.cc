/**
 * @file
 * Campaign-runner tests: the durability acceptance criteria.
 *
 *  - An interrupted campaign resumed from its store produces a
 *    byte-identical aggregate to an uninterrupted run, at --jobs 1
 *    and --jobs 4, including after torn-tail corruption.
 *  - Resume re-executes exactly the missing trial indices.
 *  - Shards 0/2 + 1/2 merged are byte-identical to the unsharded run.
 *  - Merge refuses mismatched fingerprints, duplicate shards, and
 *    incomplete campaigns with a clear diagnostic, also when a
 *    crafted header claims far more trials than fit in memory.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "campaign/runner.h"
#include "encore/pipeline.h"
#include "fault/models/fault_model.h"
#include "ir/parser.h"

namespace encore::campaign {
namespace {

const char *kProgram = R"(
module "m"
global @data 64
global @out 64
func @main(1) {
  bb entry:
    r1 = mov 0
    jmp work
  bb work:
    r2 = mul r1, 31
    r3 = and r2, 63
    r4 = load [@data + r3]
    r5 = add r4, r1
    r8 = and r1, 63
    store [@out + r8], r5
    r1 = add r1, 1
    r6 = cmplt r1, r0
    br r6, work, done
  bb done:
    r7 = load [@out + 3]
    ret r7
}
)";

struct Harness
{
    std::unique_ptr<ir::Module> module;
    EncoreReport report;
    std::unique_ptr<fault::FaultInjector> injector;
};

/// The full re-execution side of the cross-tier tests: the snapshot
/// tier is off explicitly, not by the program being shorter than the
/// default stride.
Harness
prepare(std::uint64_t arg = 50)
{
    Harness setup;
    setup.module = ir::parseModule(kProgram);
    EncoreConfig config;
    config.gamma = 1.0;
    EncorePipeline pipeline(*setup.module, config);
    setup.report = pipeline.run({RunSpec{"main", {arg}}});
    setup.injector = std::make_unique<fault::FaultInjector>(
        *setup.module, setup.report);
    interp::SnapshotConfig off;
    off.enabled = false;
    setup.injector->configureSnapshots(off);
    EXPECT_TRUE(setup.injector->prepare("main", {arg}));
    return setup;
}

/// Same harness, but with the snapshot tier actually capturing: the
/// test program is tiny, so the stride has to drop far below the
/// default for any barrier to be crossed.
Harness
prepareWithSnapshots(std::uint64_t arg = 50, std::uint64_t stride = 32)
{
    Harness setup;
    setup.module = ir::parseModule(kProgram);
    EncoreConfig config;
    config.gamma = 1.0;
    EncorePipeline pipeline(*setup.module, config);
    setup.report = pipeline.run({RunSpec{"main", {arg}}});
    setup.injector = std::make_unique<fault::FaultInjector>(
        *setup.module, setup.report);
    interp::SnapshotConfig snap;
    snap.stride = stride;
    setup.injector->configureSnapshots(snap);
    EXPECT_TRUE(setup.injector->prepare("main", {arg}));
    return setup;
}

fault::CampaignConfig
campaignConfig(std::size_t jobs = 1)
{
    fault::CampaignConfig config;
    config.trials = 300;
    config.seed = 20240;
    config.jobs = jobs;
    config.masking_rate = 0.5; // exercise both coin results
    config.trial.dmax = 40;
    return config;
}

std::string
tempStorePath(const std::string &name)
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

TEST(ShardSpecTest, ParseAcceptsAndRejects)
{
    const auto ok = parseShardSpec("2/8");
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->index, 2u);
    EXPECT_EQ(ok->count, 8u);
    EXPECT_FALSE(parseShardSpec("8/8").has_value());
    EXPECT_FALSE(parseShardSpec("0/0").has_value());
    EXPECT_FALSE(parseShardSpec("1").has_value());
    EXPECT_FALSE(parseShardSpec("a/b").has_value());
    EXPECT_FALSE(parseShardSpec("-1/4").has_value());
    EXPECT_FALSE(parseShardSpec("1/2/3").has_value());
    // Above the 32-bit store fields: rejected, not truncated.
    EXPECT_FALSE(parseShardSpec("0/4294967297").has_value());
    EXPECT_FALSE(parseShardSpec("4294967296/4294967297").has_value());
    const auto widest = parseShardSpec("4294967294/4294967295");
    ASSERT_TRUE(widest.has_value());
    EXPECT_EQ(widest->count, 4294967295u);
}

TEST(ShardSpecTest, StridePartitionIsExactAndDisjoint)
{
    const std::uint64_t trials = 107;
    std::vector<int> owners(trials, 0);
    std::uint64_t owned_total = 0;
    for (std::uint32_t i = 0; i < 4; ++i) {
        const ShardSpec spec{i, 4};
        owned_total += spec.ownedTrials(trials);
        for (std::uint64_t t = 0; t < trials; ++t)
            if (spec.owns(t))
                ++owners[t];
    }
    EXPECT_EQ(owned_total, trials);
    for (std::uint64_t t = 0; t < trials; ++t)
        EXPECT_EQ(owners[t], 1) << "trial " << t;
}

TEST(FingerprintTest, SensitiveToOutcomeInputsOnly)
{
    Harness setup = prepare();
    const fault::CampaignConfig base = campaignConfig();
    const std::uint64_t fp = campaignFingerprint(*setup.injector, base);

    // jobs does not change trial outcomes, so it must not change the
    // fingerprint — a campaign resumed at a different thread count is
    // the same campaign.
    fault::CampaignConfig jobs8 = base;
    jobs8.jobs = 8;
    EXPECT_EQ(campaignFingerprint(*setup.injector, jobs8), fp);

    fault::CampaignConfig other_seed = base;
    other_seed.seed += 1;
    EXPECT_NE(campaignFingerprint(*setup.injector, other_seed), fp);
    fault::CampaignConfig other_dmax = base;
    other_dmax.trial.dmax += 1;
    EXPECT_NE(campaignFingerprint(*setup.injector, other_dmax), fp);
    fault::CampaignConfig other_mask = base;
    other_mask.masking_rate = 0.25;
    EXPECT_NE(campaignFingerprint(*setup.injector, other_mask), fp);
}

TEST(FingerprintTest, ValuesAreStableAcrossBuilds)
{
    // Every store header carries the fingerprint; a value that changes
    // between builds makes every existing store refuse to resume.
    // Pinned for the default pair and one non-default pair.
    Harness setup = prepare();
    fault::CampaignConfig config = campaignConfig();
    EXPECT_EQ(campaignFingerprint(*setup.injector, config),
              0xaf702112ec7d3e4fULL);
    config.trial.model = fault::models::findFaultModel("cf-branch");
    config.trial.detector = fault::models::findDetector("replay");
    EXPECT_EQ(campaignFingerprint(*setup.injector, config),
              0x3dfc669f01c66df3ULL);
}

TEST(CampaignRunner, MatchesInMemoryCampaignWithoutAStore)
{
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig();
    const std::string baseline =
        formatAggregate(setup.injector->runCampaign(config));

    CampaignRunner runner(*setup.injector, config, {});
    const RunSummary summary = runner.run();
    EXPECT_TRUE(summary.complete);
    EXPECT_EQ(summary.executed, config.trials);
    EXPECT_EQ(formatAggregate(summary.result), baseline);
}

void
interruptedResumeIsByteIdentical(std::size_t jobs)
{
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig(jobs);
    const std::string baseline =
        formatAggregate(setup.injector->runCampaign(config));
    const std::string path = tempStorePath(
        "resume_j" + std::to_string(jobs) + ".trials");

    // Interrupt deterministically after 100 of 300 trials.
    RunnerOptions first;
    first.store_path = path;
    first.stop_after = 100;
    {
        CampaignRunner runner(*setup.injector, config, first);
        const RunSummary summary = runner.run();
        EXPECT_FALSE(summary.complete);
        EXPECT_EQ(summary.executed, 100u);
    }

    // Simulate the kill -9 torn tail on top of the interruption.
    appendBytes(path, "torn-record-prefix");

    RunnerOptions second;
    second.store_path = path;
    second.store_policy = RunnerOptions::StorePolicy::MustExist;
    CampaignRunner runner(*setup.injector, config, second);
    const RunSummary summary = runner.run();
    EXPECT_TRUE(summary.complete);
    EXPECT_EQ(summary.resumed, 100u);
    EXPECT_EQ(summary.executed, 200u);
    EXPECT_GT(summary.recovered_dropped_bytes, 0u);
    EXPECT_EQ(formatAggregate(summary.result), baseline);

    // A third run over the complete store executes nothing and still
    // reports the identical aggregate.
    CampaignRunner third(*setup.injector, config, second);
    const RunSummary replay = third.run();
    EXPECT_TRUE(replay.complete);
    EXPECT_EQ(replay.executed, 0u);
    EXPECT_EQ(formatAggregate(replay.result), baseline);
}

TEST(CampaignRunner, InterruptedResumeByteIdenticalJobs1)
{
    interruptedResumeIsByteIdentical(1);
}

TEST(CampaignRunner, InterruptedResumeByteIdenticalJobs4)
{
    interruptedResumeIsByteIdentical(4);
}

TEST(CampaignRunner, ResumeRefillsExactlyTheMissingIndices)
{
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig();
    const std::string path = tempStorePath("refill.trials");

    RunnerOptions first;
    first.store_path = path;
    first.stop_after = 120;
    CampaignRunner(*setup.injector, config, first).run();

    StoreContents before;
    ASSERT_FALSE(readTrialStore(path, before).has_value());
    ASSERT_EQ(before.records.size(), 120u);

    RunnerOptions second;
    second.store_path = path;
    CampaignRunner(*setup.injector, config, second).run();

    // The resumed run appended exactly the other 180 indices: the
    // store now covers [0, trials) with no duplicates.
    StoreContents after;
    ASSERT_FALSE(readTrialStore(path, after).has_value());
    ASSERT_EQ(after.records.size(), config.trials);
    std::vector<int> seen(config.trials, 0);
    for (const TrialRecord &record : after.records)
        ++seen[record.trial];
    for (std::uint64_t t = 0; t < config.trials; ++t)
        EXPECT_EQ(seen[t], 1) << "trial " << t;
    // The first 120 records are untouched by the resume.
    for (std::size_t i = 0; i < before.records.size(); ++i) {
        EXPECT_EQ(after.records[i].trial, before.records[i].trial);
        EXPECT_EQ(after.records[i].outcome, before.records[i].outcome);
    }
}

TEST(CampaignRunner, ResumeRefillsScatteredGapsLowestFirst)
{
    // A shard store whose records leave gaps of every width between
    // them, written in reverse trial order: the resume must run exactly
    // the unrecorded owned trials, lowest first, and end with the
    // uninterrupted shard's tally.
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig(/*jobs=*/2);
    const ShardSpec shard{1, 3};
    RunnerOptions full;
    full.store_path = tempStorePath("scattered_full.trials");
    full.shard = shard;
    const RunSummary want =
        CampaignRunner(*setup.injector, config, full).run();
    StoreContents all;
    ASSERT_FALSE(readTrialStore(full.store_path, all).has_value());
    keepFirstRecordPerTrial(all.records);
    ASSERT_EQ(all.records.size(), shard.ownedTrials(config.trials));

    RunnerOptions options;
    options.store_path = tempStorePath("scattered.trials");
    options.shard = shard;
    std::string error;
    auto writer = TrialStoreWriter::create(
        options.store_path,
        CampaignRunner(*setup.injector, config, options).header(), {},
        &error);
    ASSERT_NE(writer, nullptr) << error;
    const auto kept = [](std::size_t k) {
        return k % 3 == 0 || k % 4 == 0 || k % 7 == 1;
    };
    for (std::size_t k = all.records.size(); k-- > 0;)
        if (kept(k))
            writer->add(all.records[k].trial, all.records[k].outcome,
                        all.records[k].aux);
    ASSERT_TRUE(writer->finish());
    std::vector<std::uint64_t> missing;
    for (std::size_t k = 0; k < all.records.size(); ++k)
        if (!kept(k))
            missing.push_back(all.records[k].trial);
    writer.reset();
    const std::size_t recorded = all.records.size() - missing.size();

    options.stop_after = 7;
    CampaignRunner(*setup.injector, config, options).run();
    StoreContents partial;
    ASSERT_FALSE(readTrialStore(options.store_path, partial).has_value());
    ASSERT_EQ(partial.records.size(), recorded + 7);
    std::set<std::uint64_t> refilled;
    for (std::size_t i = recorded; i < partial.records.size(); ++i)
        refilled.insert(partial.records[i].trial);
    EXPECT_EQ(refilled, std::set<std::uint64_t>(missing.begin(),
                                                missing.begin() + 7));

    options.stop_after = 0;
    const RunSummary resumed =
        CampaignRunner(*setup.injector, config, options).run();
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(resumed.executed, missing.size() - 7);
    EXPECT_EQ(formatAggregate(resumed.result), formatAggregate(want.result));
    StoreContents after;
    ASSERT_FALSE(readTrialStore(options.store_path, after).has_value());
    EXPECT_EQ(after.records.size(), all.records.size());
    keepFirstRecordPerTrial(after.records);
    EXPECT_EQ(after.records.size(), all.records.size());
}

TEST(CampaignRunner, ShardedRunPlusMergeMatchesUnsharded)
{
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig();
    const std::string baseline =
        formatAggregate(setup.injector->runCampaign(config));

    std::vector<std::string> paths;
    for (std::uint32_t i = 0; i < 2; ++i) {
        const std::string path = tempStorePath(
            "shard" + std::to_string(i) + ".trials");
        RunnerOptions options;
        options.store_path = path;
        options.shard = ShardSpec{i, 2};
        CampaignRunner runner(*setup.injector, config, options);
        const RunSummary summary = runner.run();
        EXPECT_TRUE(summary.complete);
        EXPECT_EQ(summary.shard_trials, config.trials / 2);
        paths.push_back(path);
    }

    MergeSummary merged;
    const auto err = mergeTrialStores(paths, merged);
    ASSERT_FALSE(err.has_value()) << *err;
    EXPECT_EQ(merged.stores_merged, 2u);
    EXPECT_EQ(formatAggregate(merged.result), baseline);
}

TEST(CampaignRunner, SnapshotKillResumeByteIdenticalAcrossTiers)
{
    // Interrupt a snapshot-accelerated campaign, then resume it with a
    // snapshot-FREE injector (a full re-execution build of the same
    // campaign). The store header records the snapshot provenance of
    // the first run, but provenance is not identity: the resume must
    // proceed, and the final aggregate must be byte-identical to an
    // uninterrupted snapshot-free run.
    Harness off = prepare();
    const fault::CampaignConfig config = campaignConfig(4);
    const std::string baseline =
        formatAggregate(off.injector->runCampaign(config));

    Harness on = prepareWithSnapshots();
    ASSERT_TRUE(on.injector->snapshotsActive());

    const std::string path = tempStorePath("snap_resume.trials");
    RunnerOptions first;
    first.store_path = path;
    first.stop_after = 100;
    {
        CampaignRunner runner(*on.injector, config, first);
        EXPECT_FALSE(runner.run().complete);
    }

    // The interrupted store carries the tier's provenance.
    StoreContents contents;
    ASSERT_FALSE(readTrialStore(path, contents).has_value());
    EXPECT_EQ(contents.header.snapshot_stride,
              on.injector->snapshotStats().stride);
    EXPECT_GT(contents.header.snapshot_page_bytes, 0u);

    RunnerOptions second;
    second.store_path = path;
    second.store_policy = RunnerOptions::StorePolicy::MustExist;
    CampaignRunner runner(*off.injector, config, second);
    const RunSummary summary = runner.run();
    EXPECT_TRUE(summary.complete);
    EXPECT_EQ(summary.resumed, 100u);
    EXPECT_EQ(formatAggregate(summary.result), baseline);
}

TEST(CampaignMerge, AcceptsSnapshotRunAndFullRerunShards)
{
    // Shard 0 produced with the snapshot tier, shard 1 by full
    // re-execution. Their headers differ in every snapshot_* field —
    // and in nothing that determines trial outcomes, so the merge
    // must accept the pair and reproduce the unsharded aggregate.
    Harness on = prepareWithSnapshots();
    ASSERT_TRUE(on.injector->snapshotsActive());
    Harness off = prepare();
    const fault::CampaignConfig config = campaignConfig();
    const std::string baseline =
        formatAggregate(off.injector->runCampaign(config));

    const std::string shard0 = tempStorePath("snap_shard0.trials");
    RunnerOptions options0;
    options0.store_path = shard0;
    options0.shard = ShardSpec{0, 2};
    EXPECT_TRUE(
        CampaignRunner(*on.injector, config, options0).run().complete);

    const std::string shard1 = tempStorePath("snap_shard1.trials");
    RunnerOptions options1;
    options1.store_path = shard1;
    options1.shard = ShardSpec{1, 2};
    EXPECT_TRUE(
        CampaignRunner(*off.injector, config, options1).run().complete);

    StoreContents c0, c1;
    ASSERT_FALSE(readTrialStore(shard0, c0).has_value());
    ASSERT_FALSE(readTrialStore(shard1, c1).has_value());
    EXPECT_GT(c0.header.snapshot_stride, 0u);
    EXPECT_EQ(c1.header.snapshot_stride, 0u);

    MergeSummary merged;
    const auto err = mergeTrialStores({shard0, shard1}, merged);
    ASSERT_FALSE(err.has_value()) << *err;
    EXPECT_EQ(merged.stores_merged, 2u);
    EXPECT_EQ(formatAggregate(merged.result), baseline);
}

TEST(CampaignMerge, RefusesIncompleteCampaign)
{
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig();
    const std::string path = tempStorePath("only_shard0.trials");
    RunnerOptions options;
    options.store_path = path;
    options.shard = ShardSpec{0, 2};
    CampaignRunner(*setup.injector, config, options).run();

    MergeSummary merged;
    const auto err = mergeTrialStores({path}, merged);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("campaign incomplete"), std::string::npos);
    EXPECT_NE(err->find("1 of 2 shard stores were not given"),
              std::string::npos);
}

TEST(CampaignMerge, HugeTrialCountHeaderIsIncompleteNotACrash)
{
    // A CRC-valid header claiming 2^60 trials: merge must tally the
    // few records it reads, not allocate per claimed trial.
    StoreHeader header;
    header.total_trials = std::uint64_t{1} << 60;
    const std::string path = tempStorePath("huge_header.trials");
    std::string error;
    auto writer = TrialStoreWriter::create(path, header, {}, &error);
    ASSERT_NE(writer, nullptr) << error;
    writer->add(7, 0);
    writer->add(1ULL << 59, 1);
    writer->add(7, 0);
    ASSERT_TRUE(writer->finish());

    MergeSummary merged;
    const auto err = mergeTrialStores({path}, merged);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("campaign incomplete: 1152921504606846974 of "
                        "1152921504606846976 trials missing"),
              std::string::npos)
        << *err;
}

TEST(CampaignMerge, RefusesDuplicateShard)
{
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig();
    const std::string path = tempStorePath("dup_shard.trials");
    RunnerOptions options;
    options.store_path = path;
    options.shard = ShardSpec{0, 2};
    CampaignRunner(*setup.injector, config, options).run();

    MergeSummary merged;
    const auto err = mergeTrialStores({path, path}, merged);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("appears twice"), std::string::npos);
}

TEST(CampaignMerge, RefusesMismatchedFingerprints)
{
    Harness setup = prepare();
    fault::CampaignConfig config = campaignConfig();

    const std::string shard0 = tempStorePath("fp_shard0.trials");
    RunnerOptions options0;
    options0.store_path = shard0;
    options0.shard = ShardSpec{0, 2};
    CampaignRunner(*setup.injector, config, options0).run();

    // Shard 1 of a *different* campaign (different seed).
    config.seed += 1;
    const std::string shard1 = tempStorePath("fp_shard1.trials");
    RunnerOptions options1;
    options1.store_path = shard1;
    options1.shard = ShardSpec{1, 2};
    CampaignRunner(*setup.injector, config, options1).run();

    MergeSummary merged;
    const auto err = mergeTrialStores({shard0, shard1}, merged);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("config fingerprint mismatch"),
              std::string::npos);
}

TEST(CampaignMerge, RefusesEmptyPathList)
{
    MergeSummary merged;
    const auto err = mergeTrialStores({}, merged);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("no trial stores"), std::string::npos);
}

TEST(CampaignScenarioMatrix, FingerprintSeparatesEveryPair)
{
    // Two stores whose trials were drawn under different models or
    // detectors must never look like the same campaign.
    Harness setup = prepare();
    std::set<std::uint64_t> fingerprints;
    std::size_t pairs = 0;
    for (const std::string_view m : fault::models::faultModelNames())
        for (const std::string_view d :
             fault::models::detectorNames()) {
            fault::CampaignConfig config = campaignConfig();
            config.trial.model = fault::models::findFaultModel(m);
            config.trial.detector = fault::models::findDetector(d);
            fingerprints.insert(
                campaignFingerprint(*setup.injector, config));
            ++pairs;
        }
    EXPECT_EQ(fingerprints.size(), pairs);

    // A default-constructed config is the explicit default pair:
    // pre-registry stores resume under the explicit default scenario.
    fault::CampaignConfig implicit = campaignConfig();
    fault::CampaignConfig explicit_default = campaignConfig();
    explicit_default.trial.model = fault::models::defaultFaultModel();
    explicit_default.trial.detector = fault::models::defaultDetector();
    EXPECT_EQ(campaignFingerprint(*setup.injector, implicit),
              campaignFingerprint(*setup.injector, explicit_default));
}

TEST(CampaignScenarioMatrix,
     EveryPairByteIdenticalAcrossJobsResumeAndShards)
{
    // The acceptance matrix for the fault-model/detector subsystem:
    // for every registered pair, the aggregate must be byte-identical
    // at --jobs 1 vs --jobs 4, across an interrupted-then-resumed
    // durable run (with a torn tail), and across a 2-way shard+merge.
    Harness setup = prepare();
    for (const std::string_view m : fault::models::faultModelNames())
        for (const std::string_view d :
             fault::models::detectorNames()) {
            const std::string tag =
                std::string(m) + " + " + std::string(d);
            fault::CampaignConfig config = campaignConfig();
            config.trial.model = fault::models::findFaultModel(m);
            config.trial.detector = fault::models::findDetector(d);
            const std::string baseline =
                formatAggregate(setup.injector->runCampaign(config));

            fault::CampaignConfig jobs4 = config;
            jobs4.jobs = 4;
            EXPECT_EQ(
                formatAggregate(setup.injector->runCampaign(jobs4)),
                baseline)
                << tag << " diverges at --jobs 4";

            const std::string path = tempStorePath(
                "matrix_" + std::string(m) + "_" + std::string(d) +
                ".trials");
            RunnerOptions first;
            first.store_path = path;
            first.stop_after = 100;
            {
                CampaignRunner runner(*setup.injector, config, first);
                EXPECT_FALSE(runner.run().complete);
            }
            appendBytes(path, "torn-record-prefix");
            RunnerOptions second;
            second.store_path = path;
            second.store_policy = RunnerOptions::StorePolicy::MustExist;
            CampaignRunner resume(*setup.injector, config, second);
            const RunSummary resumed = resume.run();
            EXPECT_TRUE(resumed.complete) << tag;
            EXPECT_EQ(resumed.resumed, 100u) << tag;
            EXPECT_EQ(formatAggregate(resumed.result), baseline)
                << tag << " diverges across kill->resume";

            std::vector<std::string> shards;
            for (std::uint32_t i = 0; i < 2; ++i) {
                const std::string shard_path = tempStorePath(
                    "matrix_shard" + std::to_string(i) + "_" +
                    std::string(m) + "_" + std::string(d) + ".trials");
                RunnerOptions options;
                options.store_path = shard_path;
                options.shard = ShardSpec{i, 2};
                CampaignRunner runner(*setup.injector, config,
                                      options);
                EXPECT_TRUE(runner.run().complete) << tag;
                shards.push_back(shard_path);
            }
            MergeSummary merged;
            const auto err = mergeTrialStores(shards, merged);
            ASSERT_FALSE(err.has_value()) << tag << ": " << *err;
            EXPECT_EQ(formatAggregate(merged.result), baseline)
                << tag << " diverges across shard+merge";
        }
}

TEST(CampaignScenarioMatrix, ReplayDetectorAccruesReplayCost)
{
    Harness setup = prepare();
    fault::CampaignConfig config = campaignConfig();
    config.trial.detector = fault::models::findDetector("replay");
    CampaignRunner runner(*setup.injector, config, {});
    const RunSummary summary = runner.run();
    EXPECT_GT(summary.result.replay_cost, 0u);
    // The analytic default reports none, and its aggregate text
    // therefore carries no replay-cost line.
    fault::CampaignConfig analytic = campaignConfig();
    CampaignRunner base(*setup.injector, analytic, {});
    const RunSummary base_summary = base.run();
    EXPECT_EQ(base_summary.result.replay_cost, 0u);
    EXPECT_EQ(formatAggregate(base_summary.result)
                  .find("replay-cost"),
              std::string::npos);
    EXPECT_NE(formatAggregate(summary.result).find("replay-cost"),
              std::string::npos);
}

TEST(CampaignMerge, RefusesMismatchedFaultModelIds)
{
    // Hand-build two shard stores that agree on everything the
    // fingerprint covers but claim different fault-model ids: the
    // scenario-id check (not the fingerprint check) must refuse them.
    StoreHeader header;
    header.config_fingerprint = 0x1111;
    header.module_hash = 0x2222;
    header.seed = 1;
    header.total_trials = 4;
    header.shard_count = 2;
    TrialStoreWriter::Options options;
    options.flush_interval = std::chrono::milliseconds(0);

    const std::string shard0 = tempStorePath("scen_shard0.trials");
    header.shard_index = 0;
    header.fault_model_id =
        static_cast<std::uint32_t>(fault::models::FaultModelId::RegBit);
    {
        std::string error;
        auto writer =
            TrialStoreWriter::create(shard0, header, options, &error);
        ASSERT_NE(writer, nullptr) << error;
        writer->add(0, 0);
        writer->add(2, 0);
        ASSERT_TRUE(writer->finish());
    }

    const std::string shard1 = tempStorePath("scen_shard1.trials");
    header.shard_index = 1;
    header.fault_model_id = static_cast<std::uint32_t>(
        fault::models::FaultModelId::CfBranch);
    {
        std::string error;
        auto writer =
            TrialStoreWriter::create(shard1, header, options, &error);
        ASSERT_NE(writer, nullptr) << error;
        writer->add(1, 0);
        writer->add(3, 0);
        ASSERT_TRUE(writer->finish());
    }

    MergeSummary merged;
    const auto err = mergeTrialStores({shard0, shard1}, merged);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("different fault model/detector"),
              std::string::npos);
}

TEST(CampaignRunnerDeathTest, RefusesResumeIntoForeignStore)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig();
    const std::string path = tempStorePath("foreign.trials");
    RunnerOptions options;
    options.store_path = path;
    options.stop_after = 10;
    CampaignRunner(*setup.injector, config, options).run();

    // Same store, different Dmax: the fingerprint differs, resuming
    // would silently mix incomparable trials — must die, not merge.
    fault::CampaignConfig other = config;
    other.trial.dmax += 1;
    EXPECT_EXIT(
        {
            CampaignRunner runner(*setup.injector, other, options);
            runner.run();
        },
        ::testing::ExitedWithCode(1), "different campaign");
}

TEST(CampaignRunnerDeathTest, ResumeOfMissingStoreMustExist)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Harness setup = prepare();
    const fault::CampaignConfig config = campaignConfig();
    RunnerOptions options;
    options.store_path = tempStorePath("absent.trials");
    options.store_policy = RunnerOptions::StorePolicy::MustExist;
    EXPECT_EXIT(
        {
            CampaignRunner runner(*setup.injector, config, options);
            runner.run();
        },
        ::testing::ExitedWithCode(1), "nothing to resume");
}

} // namespace
} // namespace encore::campaign
