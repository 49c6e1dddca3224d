#include "support/stats.h"

#include <algorithm>
#include <cmath>

#include "support/diagnostics.h"

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

double
normalQuantile(double p)
{
    ENCORE_ASSERT(p > 0.0 && p < 1.0,
                  "normalQuantile needs p strictly inside (0, 1)");
    // Acklam's piecewise rational approximation.
    static const double a[] = {-3.969683028665376e+01,
                               2.209460984245205e+02,
                               -2.759285104469687e+02,
                               1.383577518672690e+02,
                               -3.066479806614716e+01,
                               2.506628277459239e+00};
    static const double b[] = {-5.447609879822406e+01,
                               1.615858368580409e+02,
                               -1.556989798598866e+02,
                               6.680131188771972e+01,
                               -1.328068155288572e+01};
    static const double c[] = {-7.784894002430293e-03,
                               -3.223964580411365e-01,
                               -2.400758277161838e+00,
                               -2.549732539343734e+00,
                               4.374664141464968e+00,
                               2.938163982698783e+00};
    static const double d[] = {7.784695709041462e-03,
                               3.224671290700398e-01,
                               2.445134137142996e+00,
                               3.754408661907416e+00};
    const double p_low = 0.02425;
    if (p < p_low) {
        const double q = std::sqrt(-2.0 * std::log(p));
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q +
                 c[4]) *
                    q +
                c[5]) /
               ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
    }
    if (p > 1.0 - p_low)
        return -normalQuantile(1.0 - p);
    const double q = p - 0.5;
    const double r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) *
                r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) *
                r +
            1.0);
}

double
confidenceZ(double confidence)
{
    ENCORE_ASSERT(confidence > 0.0 && confidence < 1.0,
                  "confidence level must be strictly inside (0, 1)");
    return normalQuantile(0.5 + confidence / 2.0);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    ENCORE_ASSERT(hi > lo, "histogram range must be non-empty");
    ENCORE_ASSERT(bins > 0, "histogram needs at least one bin");
}

void
Histogram::add(double sample)
{
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    double idx = (sample - lo_) / width;
    std::size_t bin;
    if (idx < 0.0) {
        bin = 0;
    } else if (idx >= static_cast<double>(counts_.size())) {
        bin = counts_.size() - 1;
    } else {
        bin = static_cast<std::size_t>(idx);
    }
    ++counts_[bin];
    ++total_;
}

double
Histogram::binLow(std::size_t i) const
{
    const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
    return lo_ + width * static_cast<double>(i);
}

double
Histogram::binHigh(std::size_t i) const
{
    return binLow(i + 1);
}

} // namespace encore
