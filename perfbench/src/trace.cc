#include "trace.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const double duration =
            1e-9 * static_cast<double>(spans[i].end_ns - spans[i].start_ns);
        self[i] += duration;
        if (spans[i].parent >= 0)
            self[static_cast<std::size_t>(spans[i].parent)] -= duration;
    }
    return self;
}

std::optional<double>
tailPercentile(std::vector<double> samples, double p,
               std::size_t min_beyond)
{
    if (samples.empty() || p <= 0.0 || p >= 1.0)
        return std::nullopt;
    const std::size_t n = samples.size();
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(n)));
    const std::size_t index = std::clamp<std::size_t>(rank, 1, n) - 1;
    if (n - 1 - index < min_beyond)
        return std::nullopt;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(index),
                     samples.end());
    return samples[index];
}

std::uint32_t
Tracer::intern(const std::string &name)
{
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it != names_.end())
        return static_cast<std::uint32_t>(it - names_.begin());
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
}

std::int32_t
Tracer::begin(std::uint32_t name)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.parent = open_;
    span.start_ns = now();
    spans_.push_back(span);
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    return open_;
}

void
Tracer::end(std::int32_t span)
{
    if (span < 0)
        return;
    Span &s = spans_[static_cast<std::size_t>(span)];
    s.end_ns = now();
    open_ = s.parent;
}

double
Tracer::totalTime(const std::string &name) const
{
    double total = 0.0;
    for (const double d : durations(name))
        total += d;
    return total;
}

std::map<std::string, double>
Tracer::selfTimeByName() const
{
    std::map<std::string, double> out;
    const std::vector<double> self = selfTimes(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i)
        out[names_[spans_[i].name]] += self[i];
    return out;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    const auto it = std::find(names_.begin(), names_.end(), name);
    if (it == names_.end())
        return out;
    const auto id = static_cast<std::uint32_t>(it - names_.begin());
    for (const Span &s : spans_)
        if (s.name == id)
            out.push_back(1e-9 * static_cast<double>(s.end_ns - s.start_ns));
    return out;
}

} // namespace perfbench
