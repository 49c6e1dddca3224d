/**
 * @file
 * bench::SuiteTable, the per-suite layout of the figure benches:
 * separators between suites and before the means, one mean row per
 * suite that has rows (none for an empty suite), "Mean ALL", and a
 * workload row rendered as its own mean at count 1.
 */
#include <gtest/gtest.h>

#include "common.h"
#include "support/strings.h"

namespace encore::bench {
namespace {

workloads::Workload
workload(const std::string &name, const std::string &suite)
{
    workloads::Workload w;
    w.name = name;
    w.suite = suite;
    return w;
}

/// Each column's mean, then the count the renderer was given.
std::vector<std::string>
meansAndCount(const std::vector<double> &sums, std::size_t count)
{
    std::vector<std::string> cells;
    for (const double sum : sums)
        cells.push_back(formatFixed(sum / count, 2));
    cells.push_back("n=" + std::to_string(count));
    return cells;
}

TEST(SuiteTable, SeparatesSuitesAndAppendsTheirMeans)
{
    // Two SPEC2K-INT rows, one MEDIABENCH row and no SPEC2K-FP row.
    const workloads::Workload int_a = workload("int.a", "SPEC2K-INT");
    const workloads::Workload int_b = workload("int.b", "SPEC2K-INT");
    const workloads::Workload media = workload("media", "MEDIABENCH");
    SuiteTable table({"benchmark", "x", "y", "n", "note"}, meansAndCount);
    table.add(int_a, {1.0, 10.0}, {"A"});
    table.add(int_b, {2.0, 30.0}, {"B"});
    table.add(media, {4.5, 0.25}, {"M"});

    // The media row and its suite's mean differ only in the label and
    // the trailing cell, which mean rows leave blank.
    EXPECT_EQ(table.table().toString(),
              "benchmark           x      y    n  note\n"
              "---------------  ----  -----  ---  ----\n"
              "int.a            1.00  10.00  n=1     A\n"
              "int.b            2.00  30.00  n=1     B\n"
              "---------------  ----  -----  ---  ----\n"
              "media            4.50   0.25  n=1     M\n"
              "---------------  ----  -----  ---  ----\n"
              "Mean SPEC2K-INT  1.50  20.00  n=2      \n"
              "Mean MEDIABENCH  4.50   0.25  n=1      \n"
              "Mean ALL         2.50  13.42  n=3      \n");

    const SuiteTable::Sums spec = table.sums("SPEC2K-INT");
    EXPECT_EQ(spec.values, (std::vector<double>{3.0, 40.0}));
    EXPECT_EQ(spec.count, 2u);
    EXPECT_EQ(table.sums("SPEC2K-FP").count, 0u);
    EXPECT_EQ(table.sums().count, 3u);
    ASSERT_EQ(table.rows().size(), 3u);
    EXPECT_EQ(table.rows()[2].workload, &media);
}

} // namespace
} // namespace encore::bench
