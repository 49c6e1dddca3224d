/**
 * @file
 * A blocking parallel-for over a flat index range.
 *
 * Built for the statistical fault-injection campaigns (thousands of
 * independent trials per workload) and for preparing the workload
 * suite: both are embarrassingly parallel once per-index state is
 * per-thread. A ThreadPool is only a resolved thread count. Each
 * parallelFor call starts at most min(slotCount(), n) - 1 threads; they
 * and the calling thread claim indices from one shared atomic counter
 * until the range is exhausted, and the call joins them before it
 * returns. A pool constructed with `threads == n` thus applies at most
 * n-way parallelism, and `threads == 1` runs every index inline, in
 * index order.
 *
 * parallelFor hands every body invocation a *slot* index that belongs
 * to one executing thread for the whole call (the calling thread is
 * slot 0), so callers can shard accumulators per slot and merge at the
 * end — no atomics or locks on the hot path.
 *
 * Determinism contract: which thread runs which index is arbitrary, so
 * bodies must not depend on execution order. Campaign code achieves
 * bit-identical results at any thread count by deriving all per-trial
 * randomness from the trial index (see Rng::forStream), not from
 * shared sequential state.
 */
#ifndef ENCORE_SUPPORT_THREAD_POOL_H
#define ENCORE_SUPPORT_THREAD_POOL_H

#include <cstddef>
#include <cstdint>
#include <functional>

namespace encore {

/// Resolves a `--jobs`-style request: 0 means "all hardware threads";
/// anything else is returned as-is (minimum 1).
std::size_t resolveJobs(std::size_t requested);

class ThreadPool
{
  public:
    /// Total parallelism, including the calling thread; 0 resolves to
    /// the hardware concurrency (see resolveJobs).
    explicit ThreadPool(std::size_t threads = 0)
        : threads_(resolveJobs(threads))
    {
    }

    /// Upper bound on the slot indices parallelFor hands out. One call
    /// over n indices uses slots below min(slotCount(), n).
    std::size_t slotCount() const { return threads_; }

    /// Runs body(i, slot) for every i in [0, n), blocking until all
    /// invocations finish. `slot` identifies the executing thread. The
    /// first exception thrown by any body is rethrown here (unclaimed
    /// indices are skipped, in-flight ones finish). If a thread cannot
    /// be started, the threads already running cover the whole range.
    void parallelFor(
        std::uint64_t n,
        const std::function<void(std::uint64_t, std::size_t)> &body) const;

  private:
    std::size_t threads_;
};

} // namespace encore

#endif // ENCORE_SUPPORT_THREAD_POOL_H
