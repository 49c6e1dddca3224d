/**
 * @file
 * End-to-end engine-identity gate: the real fig8_fault_coverage
 * binary (path injected by CMake as ENCORE_FIG8_TOOL) must print a
 * byte-identical coverage report under `--engine=decoded` and
 * `--engine=fused`, sequentially and across a thread pool, with the
 * snapshot tier on and off. This is the user-facing enforcement of
 * the fusion tier's contract — the unit differentials pin the
 * interpreter, this pins the whole campaign stack through the CLI.
 *
 * Only the timing lines ("Perf: ...") may differ between runs; the
 * tables, the shape check, and every coverage number must not.
 *
 * The same harness checks that the bench binaries (fig8, and table1
 * via ENCORE_TABLE1_TOOL) reject malformed flags with exit status 1
 * and a message naming the flag, instead of crashing or guessing.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

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
// still crossing snapshot barriers and exercising rollbacks; the
// filtered-run seeds differ from the full suite's but are identical
// between the two invocations being compared.
const std::string kCommon =
    "--workloads mpeg2dec,rawdaudio --trials 150 --json \"\"";

TEST(EngineIdentity, Fig8ReportByteIdenticalAcrossEngines)
{
    for (const std::string &extra :
         {std::string(" --jobs 1"), std::string(" --jobs 4"),
          std::string(" --jobs 1 --snapshot-stride 0")}) {
        SCOPED_TRACE(extra);
        int fused_exit = -1;
        int decoded_exit = -1;
        const std::string fused = runFig8Stripped(
            kCommon + extra + " --engine fused", &fused_exit);
        const std::string decoded = runFig8Stripped(
            kCommon + extra + " --engine decoded", &decoded_exit);
        ASSERT_EQ(fused_exit, 0) << fused;
        ASSERT_EQ(decoded_exit, 0) << decoded;
        // Sanity: the comparison is about the real report, not two
        // error messages that happen to agree.
        ASSERT_NE(fused.find("Mean ALL"), std::string::npos) << fused;
        EXPECT_EQ(fused, decoded);
    }
}

TEST(BenchFlags, Fig8RejectsBadFlags)
{
    const struct
    {
        const char *args;
        const char *message;
    } cases[] = {
        {" --engine turbo", "unknown --engine"},
        {" --dmax abc,100,10", "--dmax expects comma-separated positive "
                               "integers, got 'abc'"},
        {" --dmax -5", "--dmax expects comma-separated positive "
                       "integers, got '-5'"},
        {" --jobs -2", "flag '--jobs' expects a non-negative integer, "
                       "got '-2'"},
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

TEST(BenchFlags, Table1RejectsNegativeTrials)
{
    int exit_code = -1;
    const std::string out =
        runStripped(ENCORE_TABLE1_TOOL, "--trials -1", &exit_code);
    EXPECT_EQ(exit_code, 1) << out;
    EXPECT_NE(out.find("'--trials' expects a non-negative integer"),
              std::string::npos)
        << out;
}

} // namespace
