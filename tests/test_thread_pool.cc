/**
 * @file
 * Thread-pool parallel-for tests: empty ranges, ranges smaller than
 * the thread count, slot-sharded accumulation, the slot contract (one
 * thread per slot, the caller among them, no more threads than
 * indices), exception propagation, and pool reuse after a failed loop.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "support/thread_pool.h"

namespace encore {
namespace {

TEST(ResolveJobs, ZeroMeansHardwareConcurrency)
{
    EXPECT_GE(resolveJobs(0), 1u);
    EXPECT_EQ(resolveJobs(1), 1u);
    EXPECT_EQ(resolveJobs(7), 7u);
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(0, [&](std::uint64_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, FewerItemsThanWorkersCoversEveryIndexOnce)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(hits.size(), [&](std::uint64_t i, std::size_t) {
        ++hits[i];
    });
    for (const auto &hit : hits)
        EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, SlotShardedAccumulationNeedsNoAtomics)
{
    ThreadPool pool(4);
    ASSERT_EQ(pool.slotCount(), 4u);
    const std::uint64_t n = 10'000;
    std::vector<std::uint64_t> partial(pool.slotCount(), 0);
    pool.parallelFor(n, [&](std::uint64_t i, std::size_t slot) {
        ASSERT_LT(slot, partial.size());
        partial[slot] += i;
    });
    const std::uint64_t total =
        std::accumulate(partial.begin(), partial.end(), 0ULL);
    EXPECT_EQ(total, n * (n - 1) / 2);
}

/// Threads in this process right now; 0 where /proc/self/task is
/// absent (not Linux).
std::size_t
processThreads()
{
    std::error_code error;
    std::filesystem::directory_iterator it("/proc/self/task", error);
    std::size_t count = 0;
    for (; !error && it != std::filesystem::directory_iterator();
         it.increment(error))
        ++count;
    return error ? 0 : count;
}

struct SlotProbe
{
    /// Per slot, the threads that ran a body under it.
    std::map<std::size_t, std::set<std::thread::id>> threads_by_slot;
    /// Most threads the process had while a body ran, less those it
    /// had before the call (0 without /proc).
    std::size_t started = 0;
};

/// Runs `n` indices on `pool`, recording which thread ran each slot
/// and how many threads the call started. Threads other than the
/// caller wait in their body until the caller has run an index, so the
/// caller must take part whenever n is at least the number of threads
/// the call uses.
SlotProbe
probeSlots(const ThreadPool &pool, std::uint64_t n)
{
    const std::thread::id caller = std::this_thread::get_id();
    // Bounded, so a caller that never takes part fails the test
    // instead of hanging it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    const std::size_t before = processThreads();
    std::atomic<bool> caller_ran{false};
    std::mutex mutex;
    SlotProbe probe;
    std::size_t peak = before;
    pool.parallelFor(n, [&](std::uint64_t, std::size_t slot) {
        const std::thread::id self = std::this_thread::get_id();
        const std::size_t now = processThreads();
        if (self == caller) {
            caller_ran = true;
        } else {
            while (!caller_ran &&
                   std::chrono::steady_clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
        std::lock_guard<std::mutex> lock(mutex);
        probe.threads_by_slot[slot].insert(self);
        peak = std::max(peak, now);
    });
    probe.started = peak - before;
    return probe;
}

TEST(ThreadPool, OneThreadPerSlotCallerIncludedNoMoreThanIndices)
{
    // ThreadSanitizer starts a thread of its own on the first thread
    // creation; do that here so the counts below do not see it.
    std::thread([] {}).join();
    const std::thread::id caller = std::this_thread::get_id();
    const struct
    {
        std::size_t threads;
        std::uint64_t n;
    } cases[] = {{4, 2000}, {8, 3}};
    for (const auto &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "ThreadPool(" << c.threads << ") over " << c.n);
        const std::uint64_t used = std::min<std::uint64_t>(c.threads, c.n);
        const SlotProbe probe = probeSlots(ThreadPool(c.threads), c.n);
        std::set<std::thread::id> threads;
        for (const auto &[slot, ids] : probe.threads_by_slot) {
            EXPECT_LT(slot, used);
            EXPECT_EQ(ids.size(), 1u) << "slot " << slot;
            threads.insert(ids.begin(), ids.end());
        }
        // One slot per thread, too: no thread ran under two slots.
        EXPECT_EQ(threads.size(), probe.threads_by_slot.size());
        EXPECT_EQ(threads.count(caller), 1u);
        EXPECT_LE(threads.size(), used);
        // The caller is one of the `used` threads, so the call starts
        // at most used - 1 more.
        EXPECT_LE(probe.started, used - 1);
    }
}

TEST(ThreadPool, SingleThreadRunsInlineInOrder)
{
    ThreadPool pool(1);
    std::vector<std::uint64_t> order;
    pool.parallelFor(5, [&](std::uint64_t i, std::size_t slot) {
        EXPECT_EQ(slot, 0u);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, ExceptionPropagatesAndPoolStaysUsable)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(100,
                         [&](std::uint64_t i, std::size_t) {
                             if (i == 41)
                                 throw std::runtime_error("trial 41");
                         }),
        std::runtime_error);

    // The failed loop must not wedge the pool.
    std::atomic<int> calls{0};
    pool.parallelFor(50, [&](std::uint64_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 50);
}

} // namespace
} // namespace encore
