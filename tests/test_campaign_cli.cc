/**
 * @file
 * End-to-end tests of the real encore_campaign binary (path injected
 * by CMake as ENCORE_CAMPAIGN_TOOL): kill/resume determinism, shard +
 * merge determinism — including a shard SIGKILLed mid-campaign — and
 * the exit-status contract: merge of mismatched stores must fail with
 * a non-zero exit and a fingerprint diagnostic on stderr.
 */
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "campaign/trial_store.h"

namespace {

namespace campaign = encore::campaign;

const char *kWorkload = "cjpeg";

std::filesystem::path
tempDir()
{
    static const std::filesystem::path dir = [] {
        std::filesystem::path d =
            std::filesystem::path(::testing::TempDir()) /
            "encore_campaign_cli";
        std::filesystem::remove_all(d);
        std::filesystem::create_directories(d);
        return d;
    }();
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

struct CommandResult
{
    int exit_code = -1;
    std::string output; // stdout + stderr
};

/// Runs the tool with `args`, capturing interleaved stdout+stderr.
CommandResult
runTool(const std::string &args)
{
    const std::string capture =
        (tempDir() / "capture.txt").string();
    const std::string command = std::string(ENCORE_CAMPAIGN_TOOL) +
                                " " + args + " > " + capture +
                                " 2>&1";
    const int status = std::system(command.c_str());
    CommandResult result;
    result.exit_code =
        WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    result.output = slurp(capture);
    return result;
}

/// Starts the tool in the background with its output in `log`; the
/// returned pid is the tool itself (the shell execs it), so a signal
/// sent to it reaches the campaign process.
pid_t
spawnTool(const std::string &args, const std::string &log)
{
    const std::string command = "exec " +
                                std::string(ENCORE_CAMPAIGN_TOOL) +
                                " " + args + " > " + log + " 2>&1";
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::execl("/bin/sh", "sh", "-c", command.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/// The X of `inspect`'s "missing X of Y owned trials" line.
std::uint64_t
missingOf(const std::string &inspect_output)
{
    const auto pos = inspect_output.find("missing ");
    return pos == std::string::npos
               ? 0
               : std::stoull(inspect_output.substr(pos + 8));
}

/// Everything from "trials N" on — the aggregate table whose
/// byte-identity across resume/shard/merge is the determinism
/// criterion.
std::string
aggregateOf(const std::string &output)
{
    // The aggregate table is the last "trials N" paragraph; header
    // lines like "total trials 120" must not match, so anchor to a
    // line start.
    const auto pos = output.rfind("\ntrials ");
    return pos == std::string::npos ? "" : output.substr(pos + 1);
}

std::string
storePath(const std::string &name)
{
    return (tempDir() / name).string();
}

const std::string kCommon =
    " --workload cjpeg --trials 120 --seed 777 --dmax 50 --jobs 2";

TEST(CampaignCli, HelpAndUnknownSubcommand)
{
    EXPECT_EQ(runTool("--help").exit_code, 0);
    for (const char *command : {"frobnicate", "serve", "worker"}) {
        const CommandResult unknown = runTool(command);
        EXPECT_EQ(unknown.exit_code, 1) << command;
        EXPECT_NE(unknown.output.find("unknown subcommand"),
                  std::string::npos)
            << command;
    }
}

TEST(CampaignCli, AdaptiveSamplingFlagsAreUnknown)
{
    // Every campaign runs its fixed trial count; --sidecar alone
    // selects the planner. The snapshot budget, the trial store's
    // flush policy, the engine (fused), the progress period (500 ms)
    // and the run budget (4x the golden run) are fixed too. The
    // removed flags are spelled in pieces so that a search for their
    // names finds no live use.
    for (const char *flag :
         {"--" "adaptive", "--target" "-ci 0.01", "--no" "-planner",
          "--snapshot" "-budget-mb 64", "--flush" "-interval-ms 200",
          "--flush" "-batch 256", "--eng" "ine decoded",
          "--progress" "-interval-ms 500", "--budget" "-factor 4"}) {
        const CommandResult result =
            runTool(std::string("run --workload cjpeg --trials 10 ") +
                    flag);
        EXPECT_EQ(result.exit_code, 1) << flag;
        EXPECT_NE(result.output.find("unknown flag"), std::string::npos)
            << flag << ": " << result.output;
    }
}

TEST(CampaignCli, UnknownWorkloadListsAvailable)
{
    const CommandResult result =
        runTool("run --workload no_such_workload --trials 10");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("unknown workload"),
              std::string::npos);
    EXPECT_NE(result.output.find(kWorkload), std::string::npos);
}

TEST(CampaignCli, IntegerFlagsAreBaseTen)
{
    // A leading zero once made --trials octal: 010 ran 8 trials.
    const CommandResult result =
        runTool("run --workload rawcaudio --trials 010 --jobs 1");
    EXPECT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("executed 10 of 10"), std::string::npos)
        << result.output;
}

TEST(CampaignCli, EmptyNumericFlagsAreRefusedByName)
{
    // An empty --mask once ran the campaign at masking rate 0 and
    // exited 0, while an empty --trials was refused.
    for (const char *flag : {"--mask", "--trials"}) {
        const CommandResult result =
            runTool(std::string("run --workload rawcaudio --trials 200 "
                                "--jobs 1 ") +
                    flag + " \"\"");
        EXPECT_EQ(result.exit_code, 1) << flag << ": " << result.output;
        EXPECT_NE(result.output.find(std::string("'") + flag + "'"),
                  std::string::npos)
            << flag << ": " << result.output;
    }
}

TEST(CampaignCli, OutOfRangeSeedIsRefusedByName)
{
    // Past INT64_MAX the seed was once clamped to it and the campaign
    // ran.
    const CommandResult result =
        runTool("run --workload rawcaudio --trials 10 --jobs 1 --seed "
                "18446744073709551615");
    EXPECT_EQ(result.exit_code, 1) << result.output;
    EXPECT_NE(result.output.find("'--seed'"), std::string::npos)
        << result.output;
}

TEST(CampaignCli, InvalidConfigRejectedAtEntry)
{
    const CommandResult result = runTool(
        "run --workload cjpeg --trials 10 --mask 1.5");
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("masking_rate"), std::string::npos);
}

TEST(CampaignCli, ShardAbove32BitsIsRejected)
{
    // The store keeps the shard in 32-bit fields; a wider index or
    // count must fail by name instead of wrapping to another shard
    // (0/4294967297 would wrap to 0/1, the whole campaign).
    for (const char *spec : {"0/4294967297", "4294967296/4294967297"}) {
        const CommandResult result = runTool(
            std::string("run --workload cjpeg --trials 10 --shard ") +
            spec);
        EXPECT_EQ(result.exit_code, 1) << spec;
        EXPECT_NE(result.output.find("--shard expects i/N"),
                  std::string::npos)
            << spec << ": " << result.output;
    }
}

TEST(CampaignCli, InterruptedRunThenResumeIsByteIdentical)
{
    // Uninterrupted baseline (no store).
    const CommandResult baseline = runTool("run" + kCommon);
    ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
    const std::string want = aggregateOf(baseline.output);
    ASSERT_FALSE(want.empty());

    // Interrupt after 40 of 120 trials, then resume to completion.
    const std::string store = storePath("resume.trials");
    const CommandResult interrupted = runTool(
        "run" + kCommon + " --stop-after 40 --store " + store);
    ASSERT_EQ(interrupted.exit_code, 0) << interrupted.output;
    EXPECT_NE(interrupted.output.find("INCOMPLETE"),
              std::string::npos);

    const CommandResult resumed =
        runTool("resume" + kCommon + " --store " + store);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resumed 40"), std::string::npos);
    EXPECT_EQ(aggregateOf(resumed.output), want);

    // inspect agrees: nothing missing, same aggregate.
    const CommandResult inspected =
        runTool("inspect --store " + store);
    ASSERT_EQ(inspected.exit_code, 0) << inspected.output;
    EXPECT_NE(inspected.output.find("missing 0 of 120"),
              std::string::npos);
    EXPECT_EQ(aggregateOf(inspected.output), want);
}

TEST(CampaignCli, ResumeOfMissingStoreFails)
{
    const CommandResult result = runTool(
        "resume" + kCommon + " --store " + storePath("absent.trials"));
    EXPECT_NE(result.exit_code, 0);
    EXPECT_NE(result.output.find("nothing to resume"),
              std::string::npos);
}

TEST(CampaignCli, ResumeMemoryFollowsTheRecordsNotTheClaimedTrials)
{
    // 2^60 claimed trials: a per-trial bitmap would need an exabyte.
    // Both invocations stop after five trials, so each walks only the
    // first indices of the campaign.
    const std::string flags =
        " --workload rawcaudio --trials 1152921504606846976 "
        "--stop-after 5 --jobs 1 --store " +
        storePath("huge_resume.trials");
    const CommandResult started = runTool("run" + flags);
    ASSERT_EQ(started.exit_code, 0) << started.output;
    const CommandResult resumed = runTool("resume" + flags);
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find("resumed 5, executed 5"),
              std::string::npos)
        << resumed.output;
}

TEST(CampaignCli, ResumeOfAnUnboundedRunRefillsLazily)
{
    // Without --stop-after a 2^60-trial run would have to list every
    // trial it owns before executing one. It is killed once its store
    // holds a record; the resume then executes five more trials.
    const std::string store = storePath("huge_unbounded.trials");
    const std::string flags =
        " --workload rawcaudio --trials 1152921504606846976 --jobs 1 "
        "--store " + store;
    const std::string log = storePath("huge_unbounded.log");
    const pid_t victim = spawnTool("run" + flags, log);
    ASSERT_GT(victim, 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    bool saw_records = false;
    int status = 0;
    while (!saw_records && std::chrono::steady_clock::now() < deadline) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(store, ec);
        saw_records = !ec && size >= campaign::kTrialStoreHeaderSize +
                                         campaign::kTrialRecordSize;
        // A run that dies early (the parent's abort) never writes one.
        if (!saw_records && ::waitpid(victim, &status, WNOHANG) == victim)
            FAIL() << "run exited before recording a trial: "
                   << slurp(log);
        if (!saw_records)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::kill(victim, SIGKILL);
    ::waitpid(victim, nullptr, 0);
    ASSERT_TRUE(saw_records) << slurp(log);

    const CommandResult resumed =
        runTool("resume" + flags + " --stop-after 5");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    EXPECT_NE(resumed.output.find(", executed 5 of 1152921504606846976"),
              std::string::npos)
        << resumed.output;
}

TEST(CampaignCli, PlannerRefusesMoreDrawsThanFitInMemory)
{
    // The planner holds every draw, so 2^60 trials must fail by name
    // with exit status 1 instead of aborting; `run --sidecar` takes the
    // same path as `plan`.
    const std::string flags =
        " --workload rawcaudio --trials 1152921504606846976";
    for (const std::string &command :
         {"plan" + flags,
          "run" + flags + " --jobs 1 --sidecar " +
              storePath("huge_plan.tally")}) {
        SCOPED_TRACE(command);
        const CommandResult result = runTool(command);
        EXPECT_EQ(result.exit_code, 1) << result.output;
        EXPECT_NE(result.output.find("--trials 1152921504606846976"),
                  std::string::npos)
            << result.output;
    }
}

TEST(CampaignCli, ShardedRunsMergeToUnshardedAggregate)
{
    const CommandResult baseline = runTool("run" + kCommon);
    ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
    const std::string want = aggregateOf(baseline.output);

    const std::string shard0 = storePath("merge_s0.trials");
    const std::string shard1 = storePath("merge_s1.trials");
    ASSERT_EQ(runTool("run" + kCommon + " --shard 0/2 --store " +
                      shard0)
                  .exit_code,
              0);
    ASSERT_EQ(runTool("run" + kCommon + " --shard 1/2 --store " +
                      shard1)
                  .exit_code,
              0);

    const CommandResult merged =
        runTool("merge --stores " + shard0 + "," + shard1);
    ASSERT_EQ(merged.exit_code, 0) << merged.output;
    EXPECT_EQ(aggregateOf(merged.output), want);

    // Merging an incomplete set must fail loudly, not extrapolate.
    const CommandResult partial =
        runTool("merge --stores " + shard0);
    EXPECT_NE(partial.exit_code, 0);
    EXPECT_NE(partial.output.find("campaign incomplete"),
              std::string::npos);
}

TEST(CampaignCli, SigkilledShardResumesAndMergesByteIdentical)
{
    const std::string flags =
        " --workload cjpeg --trials 50000 --seed 777 --dmax 50 "
        "--no-masking";
    const CommandResult baseline = runTool("run" + flags + " --jobs 2");
    ASSERT_EQ(baseline.exit_code, 0) << baseline.output;
    const std::string want = aggregateOf(baseline.output);
    ASSERT_FALSE(want.empty());

    // Shard 0 runs on one thread and is SIGKILLed once its store holds
    // at least one record.
    const std::string shard0 = storePath("sigkill_s0.trials");
    const std::string shard1 = storePath("sigkill_s1.trials");
    const std::string log = storePath("sigkill_s0.log");
    const std::string shard0_flags =
        flags + " --shard 0/2 --store " + shard0;
    const pid_t victim = spawnTool("run" + shard0_flags + " --jobs 1", log);
    ASSERT_GT(victim, 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(120);
    bool saw_records = false;
    while (!saw_records && std::chrono::steady_clock::now() < deadline) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(shard0, ec);
        saw_records = !ec && size >= campaign::kTrialStoreHeaderSize +
                                         campaign::kTrialRecordSize;
        if (!saw_records)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ::kill(victim, SIGKILL);
    ::waitpid(victim, nullptr, 0);
    ASSERT_TRUE(saw_records) << slurp(log);

    // The premise: the kill left the shard unfinished.
    const CommandResult killed = runTool("inspect --store " + shard0);
    ASSERT_EQ(killed.exit_code, 0) << killed.output;
    ASSERT_GT(missingOf(killed.output), 0u) << killed.output;

    const CommandResult resumed =
        runTool("resume" + shard0_flags + " --jobs 2");
    ASSERT_EQ(resumed.exit_code, 0) << resumed.output;
    ASSERT_EQ(runTool("run" + flags + " --jobs 2 --shard 1/2 --store " +
                      shard1)
                  .exit_code,
              0);
    const CommandResult merged =
        runTool("merge --stores " + shard0 + "," + shard1);
    ASSERT_EQ(merged.exit_code, 0) << merged.output;
    EXPECT_EQ(aggregateOf(merged.output), want);
}

TEST(CampaignCli, InspectOfHugeTrialCountHeaderReportsMissing)
{
    // A CRC-valid header claiming 2^60 trials: inspect must describe
    // the two records it holds, not allocate per claimed trial.
    campaign::StoreHeader header;
    header.total_trials = std::uint64_t{1} << 60;
    const std::string path = storePath("huge_header.trials");
    std::string error;
    auto writer =
        campaign::TrialStoreWriter::create(path, header, {}, &error);
    ASSERT_NE(writer, nullptr) << error;
    writer->add(3, 0);
    writer->add(3, 0);
    writer->add(1ULL << 59, 1);
    ASSERT_TRUE(writer->finish());

    const CommandResult result = runTool("inspect --store " + path);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    EXPECT_NE(result.output.find("missing 1152921504606846974 of "
                                 "1152921504606846976 owned trials"),
              std::string::npos)
        << result.output;
    EXPECT_NE(result.output.find("1 duplicate/foreign"),
              std::string::npos)
        << result.output;
}

TEST(CampaignCli, MergeRefusesMismatchedFingerprints)
{
    const std::string shard0 = storePath("mismatch_s0.trials");
    const std::string shard1 = storePath("mismatch_s1.trials");
    ASSERT_EQ(runTool("run" + kCommon + " --shard 0/2 --store " +
                      shard0)
                  .exit_code,
              0);
    // Shard 1 of a different campaign: same workload, other seed.
    ASSERT_EQ(runTool("run --workload cjpeg --trials 120 --seed 778 "
                      "--dmax 50 --shard 1/2 --store " +
                      shard1)
                  .exit_code,
              0);

    const CommandResult merged =
        runTool("merge --stores " + shard0 + "," + shard1);
    EXPECT_NE(merged.exit_code, 0);
    EXPECT_NE(merged.output.find("fingerprint"), std::string::npos);
    EXPECT_NE(merged.output.find("refusing"), std::string::npos);
}

TEST(CampaignCli, JsonReportCarriesBuildProvenance)
{
    const std::string json = (tempDir() / "campaign.json").string();
    const CommandResult result =
        runTool("run" + kCommon + " --json " + json);
    ASSERT_EQ(result.exit_code, 0) << result.output;
    std::ifstream in(json);
    std::ostringstream body;
    body << in.rdbuf();
    EXPECT_NE(body.str().find("\"build\""), std::string::npos);
    EXPECT_NE(body.str().find("\"git_hash\""), std::string::npos);
    EXPECT_NE(body.str().find("\"counts\""), std::string::npos);
}

} // namespace
