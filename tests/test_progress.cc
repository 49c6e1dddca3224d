/**
 * @file
 * ProgressMeter telemetry tests: heartbeat JSONL well-formedness,
 * resumed-trial accounting (folded into tallies, excluded from the
 * throughput estimate), the final-sample emit in finish(), and the
 * degraded-heartbeat path — an append failure must be reported by
 * finish() instead of silently no-opping for the rest of the run
 * (sticky ofstream failbit).
 */
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "campaign/progress.h"

namespace encore::campaign {
namespace {

std::filesystem::path
tempDir()
{
    static const std::filesystem::path dir = [] {
        std::filesystem::path d =
            std::filesystem::path(::testing::TempDir()) /
            "encore_progress";
        std::filesystem::remove_all(d);
        std::filesystem::create_directories(d);
        return d;
    }();
    return dir;
}

std::vector<std::string>
linesOf(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(HeartbeatJson, CarriesEveryFieldAndOutcome)
{
    ProgressSnapshot snapshot;
    snapshot.elapsed_ms = 1234;
    snapshot.done = 60;
    snapshot.total = 100;
    snapshot.executed = 10;
    snapshot.trials_per_sec = 8.1;
    snapshot.eta_s = 4.9;
    snapshot.final_sample = false;
    snapshot.tally.trials = 60;
    snapshot.tally.counts[0] = 55;
    snapshot.tally.counts[1] = 5;

    const std::string json = formatHeartbeatJson(snapshot);
    EXPECT_NE(json.find("\"elapsed_ms\": 1234"), std::string::npos);
    EXPECT_NE(json.find("\"done\": 60"), std::string::npos);
    EXPECT_NE(json.find("\"total\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"executed\": 10"), std::string::npos);
    EXPECT_NE(json.find("\"final\": false"), std::string::npos);
    EXPECT_NE(json.find("\"masked\": 55"), std::string::npos);
    // Every outcome name appears, so a monitor can hard-code keys.
    constexpr int kNumOutcomes =
        static_cast<int>(fault::FaultOutcome::NumOutcomes);
    for (int i = 0; i < kNumOutcomes; ++i) {
        std::string key = "\"";
        key += fault::outcomeName(static_cast<fault::FaultOutcome>(i));
        key += "\":";
        EXPECT_NE(json.find(key), std::string::npos) << key;
    }
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST(ProgressMeterTest, ResumedTrialsFoldIntoTallyNotThroughput)
{
    ProgressMeter::Options options;
    options.total = 100;
    options.initial.trials = 50;
    options.initial.counts[0] = 48;
    options.initial.counts[3] = 2;
    ProgressMeter meter(options);

    for (int i = 0; i < 10; ++i)
        meter.note(fault::FaultOutcome::Masked);
    meter.note(fault::FaultOutcome::RecoveredIdempotent);

    const ProgressSnapshot snapshot = meter.sample(false);
    EXPECT_EQ(snapshot.executed, 11u); // throughput denominator
    EXPECT_EQ(snapshot.done, 61u);     // resumed + executed
    EXPECT_EQ(snapshot.total, 100u);
    EXPECT_EQ(snapshot.tally.trials, 61u);
    EXPECT_EQ(snapshot.tally.counts[0], 58u); // 48 resumed + 10 new
    EXPECT_EQ(snapshot.tally.counts[1], 1u);
    EXPECT_EQ(snapshot.tally.counts[3], 2u);
}

TEST(ProgressMeterTest, HeartbeatFileIsWellFormedJsonl)
{
    const std::filesystem::path path = tempDir() / "beat.jsonl";
    {
        ProgressMeter::Options options;
        options.heartbeat_path = path.string();
        options.interval = std::chrono::milliseconds(20);
        options.total = 10;
        ProgressMeter meter(options);
        for (int i = 0; i < 10; ++i)
            meter.note(fault::FaultOutcome::Masked);
        // Let at least one periodic tick land before the final one.
        std::this_thread::sleep_for(std::chrono::milliseconds(80));
        EXPECT_TRUE(meter.finish());
    }

    const std::vector<std::string> lines = linesOf(path);
    ASSERT_GE(lines.size(), 2u); // >=1 periodic tick + the final line
    for (const std::string &line : lines) {
        ASSERT_FALSE(line.empty());
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"counts\""), std::string::npos) << line;
    }
    // Exactly the last line is the final sample.
    for (std::size_t i = 0; i + 1 < lines.size(); ++i)
        EXPECT_NE(lines[i].find("\"final\": false"), std::string::npos);
    EXPECT_NE(lines.back().find("\"final\": true"), std::string::npos);
    EXPECT_NE(lines.back().find("\"done\": 10"), std::string::npos);
}

TEST(ProgressMeterTest, FinishIsIdempotent)
{
    const std::filesystem::path path = tempDir() / "idem.jsonl";
    ProgressMeter::Options options;
    options.heartbeat_path = path.string();
    options.interval = std::chrono::hours(1); // no periodic ticks
    options.total = 1;
    ProgressMeter meter(options);
    meter.note(fault::FaultOutcome::Benign);
    EXPECT_TRUE(meter.finish());
    const auto once = linesOf(path);
    EXPECT_TRUE(meter.finish()); // second call must not emit again
    EXPECT_EQ(linesOf(path), once);
    ASSERT_EQ(once.size(), 1u);
    EXPECT_NE(once[0].find("\"final\": true"), std::string::npos);
}

TEST(ProgressMeterTest, FailedHeartbeatAppendReportedByFinish)
{
    // /dev/full accepts open() but fails every write — exactly the
    // disk-full shape that used to leave the failbit stuck while
    // every later tick silently no-opped.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full not available on this system";

    ProgressMeter::Options options;
    options.heartbeat_path = "/dev/full";
    options.interval = std::chrono::hours(1);
    options.total = 1;
    ProgressMeter meter(options);
    meter.note(fault::FaultOutcome::Masked);
    EXPECT_FALSE(meter.finish()); // degraded run must be surfaced
}

TEST(ProgressMeterTest, UnopenableHeartbeatPathIsNotDegraded)
{
    // A path that never opens is warned about at construction and the
    // run proceeds heartbeat-less; only a mid-run append failure
    // counts as degradation.
    ProgressMeter::Options options;
    options.heartbeat_path = tempDir().string() +
                             "/no/such/dir/beat.jsonl";
    options.interval = std::chrono::hours(1);
    options.total = 1;
    ProgressMeter meter(options);
    EXPECT_TRUE(meter.finish());
}

} // namespace
} // namespace encore::campaign
