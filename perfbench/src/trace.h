/**
 * @file
 * In-memory spans for the benchmark's traced runs.
 *
 * Spans are recorded only by the benchmark, around its calls into the
 * library (one span per layer boundary: build, analysis, decode, golden
 * run, trial, runner, merge, planner). They stay in memory until the
 * run ends. A span's self time is its duration minus the part of its
 * interval covered by its child spans, so the self times of all spans
 * under a root add up to the root's duration.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
double secondsSince(Clock::time_point start);

struct Span
{
    std::uint32_t name = 0;  ///< Id from Tracer::intern().
    std::int32_t parent = -1; ///< Index of the enclosing span, or -1.
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Self time in seconds of every span: its duration minus the time its
/// child spans cover. Spans of one thread nest, so children never
/// overlap and the covered time is the sum of their durations.
std::vector<double> selfTimes(const std::vector<Span> &spans);

/// The nearest-rank `p`-quantile of `samples` (p in (0, 1)), or nullopt
/// unless at least `min_beyond` samples lie strictly above it. A tail
/// percentile backed by fewer samples than that is noise.
std::optional<double> tailPercentile(std::vector<double> samples, double p,
                                     std::size_t min_beyond = 10);

/**
 * Span recorder for one thread. Disabled tracers record nothing and
 * cost one branch per begin/end.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /// Interns a span name; the id is stable for the tracer's life.
    std::uint32_t intern(const std::string &name);

    /// Opens a span under the innermost open span; returns its index
    /// (-1 when disabled).
    std::int32_t begin(std::uint32_t name);
    void end(std::int32_t span);

    /// Scoped span.
    class Scope
    {
      public:
        Scope(Tracer &tracer, std::uint32_t name)
            : tracer_(tracer), span_(tracer.begin(name))
        {
        }
        ~Scope() { tracer_.end(span_); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        std::int32_t span_;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /// Sum of durations (seconds) over spans named `name`.
    double totalTime(const std::string &name) const;

    /// Sum of self times (seconds) per span name.
    std::map<std::string, double> selfTimeByName() const;

    /// Durations (seconds) of every span named `name`, in record order.
    std::vector<double> durations(const std::string &name) const;

  private:
    std::int64_t now() const;

    bool enabled_;
    Clock::time_point epoch_ = Clock::now();
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::int32_t open_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
