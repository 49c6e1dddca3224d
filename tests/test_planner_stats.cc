/**
 * @file
 * Confidence-interval math behind the campaign planner, checked
 * against slow oracles: the Wilson interval against the direct
 * closed-form formula and an exact-binomial coverage sweep, and the
 * normal quantile against tabulated values.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "support/stats.h"

namespace encore {
namespace {

// --- normalQuantile / confidenceZ ----------------------------------

TEST(NormalQuantile, MatchesTabulatedValues)
{
    // Standard two-sided z values to ~1e-6 (the approximation is good
    // to ~1e-9 relative).
    EXPECT_NEAR(normalQuantile(0.975), 1.959964, 1e-5);
    EXPECT_NEAR(normalQuantile(0.995), 2.575829, 1e-5);
    EXPECT_NEAR(normalQuantile(0.95), 1.644854, 1e-5);
    EXPECT_NEAR(normalQuantile(0.5), 0.0, 1e-12);
    EXPECT_NEAR(normalQuantile(0.9995), 3.290527, 1e-4);
}

TEST(NormalQuantile, IsAntisymmetric)
{
    for (const double p : {0.001, 0.023, 0.2, 0.4, 0.49}) {
        EXPECT_NEAR(normalQuantile(p), -normalQuantile(1.0 - p),
                    1e-9)
            << "p=" << p;
    }
}

TEST(NormalQuantile, ConfidenceZ)
{
    EXPECT_NEAR(confidenceZ(0.95), 1.959964, 1e-5);
    EXPECT_NEAR(confidenceZ(0.99), 2.575829, 1e-5);
    EXPECT_NEAR(confidenceZ(0.90), 1.644854, 1e-5);
}

// --- Wilson interval ------------------------------------------------

/// The direct closed-form Wilson bounds, written out independently of
/// the implementation.
void
wilsonOracle(std::uint64_t k, std::uint64_t n, double z, double &lo,
             double &hi)
{
    const double nn = static_cast<double>(n);
    const double p = static_cast<double>(k) / nn;
    const double z2 = z * z;
    const double centre = p + z2 / (2.0 * nn);
    const double spread =
        z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn));
    const double denom = 1.0 + z2 / nn;
    lo = std::max(0.0, (centre - spread) / denom);
    hi = std::min(1.0, (centre + spread) / denom);
}

TEST(WilsonInterval, MatchesDirectFormula)
{
    const double z = 1.959964;
    const std::uint64_t cases[][2] = {
        {0, 1},   {1, 1},    {0, 10},    {10, 10},  {3, 10},
        {7, 50},  {45, 50},  {599, 600}, {1, 600},  {300, 600},
        {17, 23}, {999, 1000}};
    for (const auto &c : cases) {
        double lo, hi;
        wilsonOracle(c[0], c[1], z, lo, hi);
        const Proportion got = wilsonInterval(c[0], c[1], z);
        EXPECT_NEAR(got.low, lo, 1e-12)
            << c[0] << "/" << c[1];
        EXPECT_NEAR(got.high, hi, 1e-12)
            << c[0] << "/" << c[1];
        EXPECT_NEAR(got.estimate,
                    static_cast<double>(c[0]) /
                        static_cast<double>(c[1]),
                    1e-12);
        EXPECT_LE(got.low, got.estimate);
        EXPECT_GE(got.high, got.estimate);
    }
}

TEST(WilsonInterval, DegenerateInputs)
{
    // No trials: no information, the interval is the whole [0, 1].
    const Proportion none = wilsonInterval(0, 0);
    EXPECT_EQ(none.estimate, 0.0);
    EXPECT_EQ(none.low, 0.0);
    EXPECT_EQ(none.high, 1.0);

    // A single trial keeps both bounds strictly inside (0, 1): the
    // Wilson interval never collapses to a point on tiny samples.
    const Proportion one = wilsonInterval(1, 1);
    EXPECT_GT(one.low, 0.0);
    EXPECT_EQ(one.high, 1.0);
    const Proportion zero = wilsonInterval(0, 1);
    EXPECT_EQ(zero.low, 0.0);
    EXPECT_LT(zero.high, 1.0);

    // All-one-outcome at n=600 (the fig8 default): the far bound
    // stays away from the estimate by a sane margin.
    const Proportion all = wilsonInterval(600, 600);
    EXPECT_GT(all.low, 0.99);
    EXPECT_EQ(all.high, 1.0);
}

/// Exact-binomial coverage check: over every k, sum the binomial pmf
/// of the true p for the k whose Wilson interval contains p. Wilson
/// at 95% nominal should cover ~95%, and never dip below 90% for
/// moderate n / non-extreme p.
TEST(WilsonInterval, ExactBinomialCoverage)
{
    const double z = 1.959964;
    for (const double p : {0.1, 0.5, 0.9, 0.97}) {
        for (const std::uint64_t n : {50ULL, 200ULL, 600ULL}) {
            double coverage = 0.0;
            double log_pmf =
                static_cast<double>(n) * std::log(1.0 - p);
            // Walk k upward, updating the pmf incrementally:
            // pmf(k+1) = pmf(k) * (n-k)/(k+1) * p/(1-p).
            for (std::uint64_t k = 0; k <= n; ++k) {
                const Proportion ci = wilsonInterval(k, n, z);
                if (ci.low <= p && p <= ci.high)
                    coverage += std::exp(log_pmf);
                if (k < n)
                    log_pmf +=
                        std::log(static_cast<double>(n - k)) -
                        std::log(static_cast<double>(k + 1)) +
                        std::log(p) - std::log(1.0 - p);
            }
            EXPECT_GT(coverage, 0.90)
                << "p=" << p << " n=" << n;
            EXPECT_LE(coverage, 1.0 + 1e-9);
        }
    }
}

} // namespace
} // namespace encore
