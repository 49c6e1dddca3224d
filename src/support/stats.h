/**
 * @file
 * Small statistics helpers used by the benchmark harnesses and the fault
 * injection campaigns: running summaries, percentiles, and binomial
 * confidence intervals for coverage estimates.
 */
#ifndef ENCORE_SUPPORT_STATS_H
#define ENCORE_SUPPORT_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace encore {

/**
 * Incremental mean/variance accumulator (Welford's algorithm).
 */
class RunningStats
{
  public:
    void add(double sample);

    std::size_t count() const { return count_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/// Returns the p-th percentile (p in [0,100]) using linear interpolation.
/// The input vector is copied and sorted; empty input yields 0.
double percentile(std::vector<double> samples, double p);

/**
 * Wilson score interval for a binomial proportion.
 *
 * Used to report confidence bounds on fault-coverage estimates from
 * statistical fault injection (successes out of trials at ~95%).
 */
struct Proportion
{
    double estimate;
    double low;
    double high;
};

Proportion wilsonInterval(std::uint64_t successes, std::uint64_t trials,
                          double z = 1.96);

} // namespace encore

#endif // ENCORE_SUPPORT_STATS_H
