/**
 * @file
 * Campaign-identity gate: fig8's campaigns (two workloads, Dmax 1000,
 * 100 and 10) must give the same outcome tallies sequentially and
 * across a thread pool, with the snapshot tier on and off. The unit
 * differentials pin the interpreter against the reference engine; this
 * pins the whole campaign stack.
 *
 * The same file checks that the bench binaries (fig8 via
 * ENCORE_FIG8_TOOL, table1, fig6, fig1 and ablation_heuristics) and
 * the region_inspector and codec_protection examples reject malformed
 * and removed flags with exit status 1 and a message naming the flag,
 * instead of crashing or guessing.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "encore/pipeline.h"
#include "fault/injector.h"
#include "workloads/workload.h"

using namespace encore;

namespace {

std::filesystem::path
tempDir()
{
    static const std::filesystem::path dir = [] {
        std::filesystem::path d =
            std::filesystem::path(::testing::TempDir()) /
            "encore_engine_identity";
        std::filesystem::remove_all(d);
        std::filesystem::create_directories(d);
        return d;
    }();
    return dir;
}

/// Runs `tool` with `args`; returns stdout+stderr with the
/// machine-dependent lines (timings, json-write notice) stripped so
/// the rest can be compared byte for byte.
std::string
runStripped(const std::string &tool, const std::string &args,
            int *exit_code)
{
    const std::string capture = (tempDir() / "capture.txt").string();
    const std::string command =
        tool + " " + args + " > " + capture + " 2>&1";
    const int status = std::system(command.c_str());
    *exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    std::ifstream in(capture);
    std::ostringstream out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Perf:", 0) == 0 ||
            line.rfind("Wrote ", 0) == 0)
            continue;
        out << line << '\n';
    }
    return out.str();
}

std::string
runFig8Stripped(const std::string &args, int *exit_code)
{
    return runStripped(ENCORE_FIG8_TOOL, args, exit_code);
}

// Two medium workloads keep the runtime in smoke-test territory while
// still crossing snapshot barriers and exercising rollbacks.
const std::string kCommon =
    "--workloads mpeg2dec,rawdaudio --trials 150 --json \"\"";

/// The outcome tallies of fig8's campaigns on `injector` for the
/// workload at `position` of a `--workloads` list: 150 trials per
/// Dmax, seeded as fig8 seeds them at its default --seed.
std::string
fig8Tallies(const fault::FaultInjector &injector, std::size_t position,
            std::size_t jobs)
{
    const std::uint64_t dmaxes[] = {1000, 100, 10};
    std::ostringstream out;
    for (std::size_t d = 0; d < 3; ++d) {
        fault::CampaignConfig campaign;
        campaign.trials = 150;
        campaign.seed = 12345 + d * 7919 + position;
        campaign.jobs = jobs;
        campaign.masking_rate = 0.91;
        campaign.trial.dmax = dmaxes[d];
        const fault::CampaignResult result = injector.runCampaign(campaign);
        out << "Dmax=" << dmaxes[d] << ": trials " << result.trials;
        for (int i = 0;
             i < static_cast<int>(fault::FaultOutcome::NumOutcomes); ++i)
            out << ", "
                << fault::outcomeName(static_cast<fault::FaultOutcome>(i))
                << " " << result.counts[i];
        out << ", replay-cost " << result.replay_cost << "\n";
    }
    return out.str();
}

TEST(Fig8Tallies, IdenticalAcrossJobsAndSnapshotTier)
{
    std::size_t position = 0;
    for (const char *name : {"mpeg2dec", "rawdaudio"}) {
        SCOPED_TRACE(name);
        const workloads::Workload *w = workloads::findWorkload(name);
        ASSERT_NE(w, nullptr);
        auto module = w->build();
        EncoreConfig config;
        for (const std::string &opaque : w->opaque)
            config.opaque_functions.insert(opaque);
        EncorePipeline pipeline(*module, config);
        const EncoreReport report =
            pipeline.run({RunSpec{w->entry, w->train_args}});

        std::string want;
        for (const bool snapshots : {true, false}) {
            fault::FaultInjector injector(*module, report);
            interp::SnapshotConfig tier;
            tier.enabled = snapshots;
            injector.configureSnapshots(tier);
            ASSERT_TRUE(injector.prepare(w->entry, w->train_args));
            for (const std::size_t jobs : {1u, 4u}) {
                SCOPED_TRACE("jobs " + std::to_string(jobs) +
                             (snapshots ? ", snapshots on"
                                        : ", snapshots off"));
                const std::string tallies =
                    fig8Tallies(injector, position, jobs);
                if (want.empty()) {
                    // Sanity: the comparison is about real campaigns.
                    ASSERT_NE(tallies.find("Dmax=10: trials 150"),
                              std::string::npos)
                        << tallies;
                    want = tallies;
                }
                EXPECT_EQ(tallies, want);
            }
        }
        ++position;
    }
}

TEST(BenchFlags, Fig8RejectsBadFlags)
{
    const struct
    {
        const char *args;
        const char *message;
    } cases[] = {
        // Removed: there is one engine.
        {" --eng" "ine decoded", "unknown flag '--eng" "ine'"},
        {" --dmax abc,100,10", "--dmax expects comma-separated positive "
                               "integers, got 'abc'"},
        {" --dmax -5", "--dmax expects comma-separated positive "
                       "integers, got '-5'"},
        {" --jobs -2", "flag '--jobs' expects a non-negative integer, "
                       "got '-2'"},
        // Each worker thread builds an interpreter, and a campaign once
        // started one per trial, up to --jobs.
        {" --jobs 1000000000000", "flag '--jobs' expects an integer in "
                                  "[0, 256], got '1000000000000'"},
        {" --workloads rawdaudio,nosuch",
         "unknown workload 'nosuch'; available workloads:"},
        // Removed: the snapshot budget is SnapshotConfig's fixed 64 MiB.
        {" --snapshot" "-budget-mb 64", "unknown flag '--snapshot"
                                        "-budget-mb'"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.args);
        int exit_code = -1;
        const std::string out =
            runFig8Stripped(kCommon + c.args, &exit_code);
        EXPECT_EQ(exit_code, 1) << out;
        EXPECT_NE(out.find(c.message), std::string::npos) << out;
    }
}

TEST(BenchFlags, Fig8AcceptsASingleDmax)
{
    // The idem/ckpt column then describes the only latency.
    int exit_code = -1;
    const std::string out =
        runFig8Stripped(kCommon + " --dmax 100", &exit_code);
    EXPECT_EQ(exit_code, 0) << out;
    EXPECT_NE(out.find("Dmax=100  idem/ckpt @100"), std::string::npos)
        << out;
}

/// A run that must exit 1 with `message` in its output.
struct Refusal
{
    const char *tool;
    const char *args;
    const char *message;
};

void
expectRefusals(const std::vector<Refusal> &cases)
{
    for (const Refusal &c : cases) {
        SCOPED_TRACE(std::string(c.tool) + " " + c.args);
        int exit_code = -1;
        const std::string out = runStripped(c.tool, c.args, &exit_code);
        EXPECT_EQ(exit_code, 1) << out;
        EXPECT_NE(out.find(c.message), std::string::npos) << out;
    }
}

TEST(BenchFlags, Table1RejectsNegativeTrials)
{
    expectRefusals({{ENCORE_TABLE1_TOOL, "--trials -1",
                     "'--trials' expects a non-negative integer"}});
}

TEST(BenchFlags, ListFlagsRejectBadEntries)
{
    // fig1 once read an unparsable window size as 100 and a negative
    // one as 2^64 - 3; every list entry must be a positive integer or
    // a known workload, and every binary that takes a workload name
    // lists the suite on an unknown one.
    expectRefusals({
        {ENCORE_FIG1_TOOL, "--sizes 5,abc,1000",
         "--sizes expects comma-separated positive integers, got 'abc'"},
        {ENCORE_FIG1_TOOL, "--sizes 0,100",
         "--sizes expects comma-separated positive integers, got '0'"},
        {ENCORE_FIG1_TOOL, "--sizes 100,-3",
         "--sizes expects comma-separated positive integers, got '-3'"},
        {ENCORE_REGION_INSPECTOR_TOOL, "--workload nosuch",
         "unknown workload 'nosuch'; available workloads:"},
        {ENCORE_CODEC_PROTECTION_TOOL, "--workload nosuch",
         "unknown workload 'nosuch'; available workloads:"},
    });
}

TEST(BenchFlags, AnalysisBenchesRejectCampaignFlags)
{
    // fig6 and the ablation table run no campaign, so they register no
    // --seed or --trials; the ablation table's planner sweep moved to
    // perfbench's `sweep` workload. Spelled in pieces so a search for
    // the removed flags finds no live use.
    expectRefusals({
        {ENCORE_FIG6_TOOL, "--trials 5", "unknown flag '--trials'"},
        {ENCORE_FIG6_TOOL, "--seed 9", "unknown flag '--seed'"},
        {ENCORE_ABLATION_TOOL, "--trials 3000", "unknown flag '--trials'"},
        {ENCORE_ABLATION_TOOL, "--planner" "-bench",
         "unknown flag '--planner" "-bench'"},
        {ENCORE_ABLATION_TOOL, "--planner" "-workloads rawcaudio",
         "unknown flag '--planner" "-workloads'"},
        {ENCORE_ABLATION_TOOL, "--fault-model reg-bit",
         "unknown flag '--fault-model'"},
        {ENCORE_ABLATION_TOOL, "--detector analytic",
         "unknown flag '--detector'"},
    });
}

} // namespace
