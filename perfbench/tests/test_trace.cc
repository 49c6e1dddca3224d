// Tests of the benchmark's own arithmetic: the tail-percentile rule and
// span self time.
#include <gtest/gtest.h>

#include <thread>

#include "trace.h"

using namespace perfbench;

TEST(TailPercentile, NeedsTenSamplesBeyondIt)
{
    std::vector<double> samples;
    for (int i = 1; i <= 1000; ++i)
        samples.push_back(i);
    // Rank 990 of 1000: exactly ten samples lie beyond it.
    ASSERT_TRUE(tailPercentile(samples, 0.99).has_value());
    EXPECT_EQ(*tailPercentile(samples, 0.99), 990.0);
    samples.pop_back();
    // 999 samples: rank 990 leaves only nine beyond it.
    EXPECT_FALSE(tailPercentile(samples, 0.99).has_value());
    EXPECT_FALSE(tailPercentile({}, 0.5).has_value());
}

TEST(TailPercentile, MedianIsNearestRank)
{
    EXPECT_EQ(*tailPercentile({5, 1, 4, 2, 3, 9, 8, 7, 6, 10, 11, 12, 13,
                               14, 15, 16, 17, 18, 19, 20, 21},
                              0.5),
              11.0);
}

TEST(SelfTime, ParentMinusCoveredChildTime)
{
    // root [0, 100) holds a [10, 30) and b [50, 60); a holds c [12, 20).
    const std::vector<Span> spans = {
        {0, -1, 0, 100}, {1, 0, 10, 30}, {1, 0, 50, 60}, {2, 1, 12, 20}};
    const std::vector<double> self = selfTimes(spans);
    ASSERT_EQ(self.size(), 4u);
    EXPECT_NEAR(self[0], 70e-9, 1e-15); // 100 - 20 - 10
    EXPECT_NEAR(self[1], 12e-9, 1e-15); // 20 - 8
    EXPECT_NEAR(self[2], 10e-9, 1e-15); // no children
    EXPECT_NEAR(self[3], 8e-9, 1e-15);
    EXPECT_NEAR(self[0] + self[1] + self[2] + self[3], 100e-9, 1e-15);
}

TEST(SelfTime, SelfTimesAddUpToTheRoot)
{
    Tracer tracer(true);
    const std::uint32_t root = tracer.intern("root");
    const std::uint32_t child = tracer.intern("child");
    const std::uint32_t leaf = tracer.intern("leaf");
    {
        Tracer::Scope r(tracer, root);
        for (int i = 0; i < 3; ++i) {
            Tracer::Scope c(tracer, child);
            Tracer::Scope l(tracer, leaf);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
    ASSERT_EQ(tracer.spans().size(), 7u);
    EXPECT_EQ(tracer.spans()[2].parent, 1);
    const std::map<std::string, double> self = tracer.selfTimeByName();
    double sum = 0.0;
    for (const auto &[name, seconds] : self)
        sum += seconds;
    EXPECT_NEAR(sum, tracer.totalTime("root"), 1e-9);
    EXPECT_GE(self.at("leaf"), 3 * 200e-6);
    EXPECT_NEAR(self.at("root") + tracer.totalTime("child"),
                tracer.totalTime("root"), 1e-9);
}

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer tracer(false);
    {
        Tracer::Scope s(tracer, tracer.intern("x"));
    }
    EXPECT_TRUE(tracer.spans().empty());
}
