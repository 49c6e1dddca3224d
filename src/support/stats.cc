#include "support/stats.h"

#include <algorithm>
#include <cmath>

namespace encore {

void
RunningStats::add(double sample)
{
    if (count_ == 0) {
        min_ = sample;
        max_ = sample;
    } else {
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }
    ++count_;
    sum_ += sample;
    const double delta = sample - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (sample - mean_);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    if (p <= 0.0)
        return samples.front();
    if (p >= 100.0)
        return samples.back();
    const double rank = p / 100.0 * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= samples.size())
        return samples.back();
    return samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
}

Proportion
wilsonInterval(std::uint64_t successes, std::uint64_t trials, double z)
{
    if (trials == 0)
        return {0.0, 0.0, 1.0};
    const double n = static_cast<double>(trials);
    const double phat = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = phat + z2 / (2.0 * n);
    const double spread =
        z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n));
    // The outer clamps against phat absorb the one-ulp rounding at the
    // k=0 / k=n boundaries, where (center ± spread) / denom is exactly
    // phat in real arithmetic but can land a hair inside it in floats —
    // the interval must always contain its own point estimate.
    return {phat,
            std::min(phat, std::max(0.0, (center - spread) / denom)),
            std::max(phat, std::min(1.0, (center + spread) / denom))};
}

} // namespace encore
