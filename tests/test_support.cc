/**
 * @file
 * Unit tests for the support library: RNG, statistics, strings, table
 * rendering, and the CLI flag parser.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "support/cli.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"

namespace encore {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 4);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowOneAlwaysZero)
{
    Rng rng(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::int64_t value = rng.range(-3, 3);
        EXPECT_GE(value, -3);
        EXPECT_LE(value, 3);
        seen.insert(value);
    }
    EXPECT_EQ(seen.size(), 7u); // all 7 values hit
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ForkIsIndependent)
{
    Rng a(100);
    Rng fork = a.fork();
    // Drawing more from `a` must not change what fork yields.
    Rng b(100);
    Rng fork2 = b.fork();
    (void)b();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(fork(), fork2());
}

TEST(RunningStats, MeanAndVariance)
{
    RunningStats stats;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        stats.add(x);
    EXPECT_EQ(stats.count(), 8u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_EQ(stats.mean(), 0.0);
    EXPECT_EQ(stats.variance(), 0.0);
}

TEST(Percentile, InterpolatesLinearly)
{
    std::vector<double> data{10, 20, 30, 40};
    EXPECT_DOUBLE_EQ(percentile(data, 0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(data, 100), 40.0);
    EXPECT_DOUBLE_EQ(percentile(data, 50), 25.0);
}

TEST(Percentile, EmptyYieldsZero)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(WilsonInterval, BoundsContainEstimate)
{
    const Proportion p = wilsonInterval(97, 100);
    EXPECT_NEAR(p.estimate, 0.97, 1e-12);
    EXPECT_LT(p.low, 0.97);
    EXPECT_GT(p.high, 0.97);
    EXPECT_GE(p.low, 0.0);
    EXPECT_LE(p.high, 1.0);
}

TEST(WilsonInterval, ZeroTrials)
{
    const Proportion p = wilsonInterval(0, 0);
    EXPECT_EQ(p.estimate, 0.0);
    EXPECT_EQ(p.low, 0.0);
    EXPECT_EQ(p.high, 1.0);
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  hello  "), "hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, Split)
{
    const auto fields = split("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "");
}

TEST(Strings, SplitWhitespace)
{
    const auto tokens = splitWhitespace("  one\ttwo   three ");
    ASSERT_EQ(tokens.size(), 3u);
    EXPECT_EQ(tokens[1], "two");
}

TEST(Strings, ParseInt)
{
    EXPECT_EQ(parseInt("42").value(), 42);
    EXPECT_EQ(parseInt("-7").value(), -7);
    EXPECT_EQ(parseInt("0x10").value(), 16);
    EXPECT_FALSE(parseInt("abc").has_value());
    EXPECT_FALSE(parseInt("12x").has_value());
    EXPECT_FALSE(parseInt("").has_value());
    EXPECT_EQ(parseInt("010", 10).value(), 10);
    EXPECT_FALSE(parseInt("0x10", 10).has_value());
    // Out of range fails instead of clamping to the int64_t limits.
    EXPECT_EQ(parseInt("9223372036854775807").value(), INT64_MAX);
    EXPECT_FALSE(parseInt("9223372036854775808").has_value());
    EXPECT_FALSE(parseInt("-9223372036854775809").has_value());
}

TEST(Strings, Formatting)
{
    EXPECT_EQ(formatPercent(0.973), "97.3%");
    EXPECT_EQ(formatPercent(0.5, 0), "50%");
    EXPECT_EQ(formatFixed(3.14159, 2), "3.14");
}

TEST(TableTest, AlignsColumns)
{
    Table table({"name", "value"});
    table.addRow({"a", "1"});
    table.addRow({"long-name", "12345"});
    const std::string out = table.toString();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("long-name"), std::string::npos);
    // Right-aligned numeric column: "    1" before "12345".
    EXPECT_NE(out.find("    1"), std::string::npos);
}

TEST(CommandLineTest, ParsesFlagsAndDefaults)
{
    CommandLine cli;
    cli.addFlag("trials", "100", "number of trials");
    cli.addFlag("verbose", "false", "verbosity");
    cli.addFlag("rate", "0.5", "a rate");

    const char *argv[] = {"prog", "--trials=250", "--verbose"};
    cli.parse(3, const_cast<char **>(argv));

    EXPECT_EQ(cli.getInt("trials"), 250);
    EXPECT_TRUE(cli.getBool("verbose"));
    EXPECT_DOUBLE_EQ(cli.getDouble("rate"), 0.5);
}

TEST(CommandLineTest, SpaceSeparatedValue)
{
    CommandLine cli;
    cli.addFlag("seed", "1", "seed");
    const char *argv[] = {"prog", "--seed", "99"};
    cli.parse(3, const_cast<char **>(argv));
    EXPECT_EQ(cli.getInt("seed"), 99);
}

TEST(CommandLineTest, GetUintParsesNonNegative)
{
    CommandLine cli;
    cli.addFlag("trials", "100", "number of trials");
    const char *argv[] = {"prog", "--trials=250"};
    cli.parse(2, const_cast<char **>(argv));
    EXPECT_EQ(cli.getUint("trials"), 250u);
}

TEST(CommandLineTest, GetUintRejectsNegativeInsteadOfWrapping)
{
    // The pre-getUint pattern, static_cast<uint64_t>(getInt(...)),
    // turned `--trials -1` into a campaign of 2^64-1 trials. The
    // typed accessor must refuse with a diagnostic naming the flag.
    CommandLine cli;
    cli.addFlag("trials", "100", "number of trials");
    const char *argv[] = {"prog", "--trials=-5"};
    cli.parse(2, const_cast<char **>(argv));
    EXPECT_EXIT((void)cli.getUint("trials"),
                testing::ExitedWithCode(1),
                "--trials.*non-negative integer.*-5");
}

TEST(CommandLineTest, GetUintIsBaseTenAndRefusesOutOfRange)
{
    // Flags were once parsed in base 0 (`010` was eight) and clamped
    // past INT64_MAX.
    const auto seedFlag = [](const std::string &value) {
        CommandLine cli;
        cli.addFlag("seed", "1", "seed");
        const std::string arg = "--seed=" + value;
        const char *argv[] = {"prog", arg.c_str()};
        cli.parse(2, const_cast<char **>(argv));
        return cli;
    };
    EXPECT_EQ(seedFlag("010").getUint("seed"), 10u);
    EXPECT_EQ(seedFlag("9223372036854775807").getUint("seed"),
              9223372036854775807u);
    EXPECT_EXIT((void)seedFlag("9223372036854775808").getUint("seed"),
                testing::ExitedWithCode(1),
                "--seed.*got '9223372036854775808'");
    EXPECT_EXIT((void)seedFlag("0x10").getUint("seed"),
                testing::ExitedWithCode(1), "--seed.*base-10.*got '0x10'");
}

TEST(CommandLineTest, GetDoubleRefusesAnEmptyValueByName)
{
    // An empty value once read as 0.0 (`--mask ""` ran a campaign at
    // masking rate 0), while getInt refused the same input.
    const auto rateFlag = [](const std::string &value) {
        CommandLine cli;
        cli.addFlag("rate", "0.5", "a rate");
        const std::string arg = "--rate=" + value;
        const char *argv[] = {"prog", arg.c_str()};
        cli.parse(2, const_cast<char **>(argv));
        return cli;
    };
    EXPECT_DOUBLE_EQ(rateFlag("0.25").getDouble("rate"), 0.25);
    EXPECT_EXIT((void)rateFlag("").getDouble("rate"),
                testing::ExitedWithCode(1),
                "--rate.*expects a number, got ''");
    EXPECT_EXIT((void)rateFlag("0.5x").getDouble("rate"),
                testing::ExitedWithCode(1),
                "--rate.*expects a number, got '0.5x'");
}

TEST(CommandLineTest, BareValueFlagBeforeAnotherFlagIsFatal)
{
    // '--label --foo' used to silently parse as label=true; a value
    // flag with nothing consumable after it must say so instead.
    CommandLine cli;
    cli.addFlag("label", "", "a string flag");
    cli.addFlag("foo", "false", "a boolean flag");
    const char *argv[] = {"prog", "--label", "--foo"};
    EXPECT_EXIT(cli.parse(3, const_cast<char **>(argv)),
                testing::ExitedWithCode(1),
                "--label.*requires a value");
}

TEST(CommandLineTest, BareValueFlagAtEndOfLineIsFatal)
{
    CommandLine cli;
    cli.addFlag("label", "", "a string flag");
    const char *argv[] = {"prog", "--label"};
    EXPECT_EXIT(cli.parse(2, const_cast<char **>(argv)),
                testing::ExitedWithCode(1),
                "--label.*requires a value");
}

TEST(CommandLineTest, EqualsFormEscapesLeadingDashes)
{
    // The documented escape for values that themselves begin with --.
    CommandLine cli;
    cli.addFlag("label", "", "a string flag");
    const char *argv[] = {"prog", "--label=--foo"};
    cli.parse(2, const_cast<char **>(argv));
    EXPECT_EQ(cli.getString("label"), "--foo");
}

TEST(CommandLineTest, BareBooleanBeforeFlagStillTrue)
{
    // Boolean flags (true/false default) keep their bare form even
    // when another flag follows.
    CommandLine cli;
    cli.addFlag("json", "false", "a boolean flag");
    cli.addFlag("seed", "1", "seed");
    const char *argv[] = {"prog", "--json", "--seed", "7"};
    cli.parse(4, const_cast<char **>(argv));
    EXPECT_TRUE(cli.getBool("json"));
    EXPECT_EQ(cli.getInt("seed"), 7);
}

} // namespace
} // namespace encore
