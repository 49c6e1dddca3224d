#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <system_error>
#include <thread>
#include <vector>

namespace encore {

std::size_t
resolveJobs(std::size_t requested)
{
    if (requested != 0)
        return requested;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

void
ThreadPool::parallelFor(
    std::uint64_t n,
    const std::function<void(std::uint64_t, std::size_t)> &body) const
{
    const std::size_t threads =
        static_cast<std::size_t>(std::min<std::uint64_t>(threads_, n));
    if (threads <= 1) {
        for (std::uint64_t i = 0; i < n; ++i)
            body(i, 0);
        return;
    }

    std::atomic<std::uint64_t> next{0};
    std::atomic<bool> failed{false};
    // Written only by the first body to throw; read after the joins.
    std::exception_ptr error;
    const auto claim = [&](std::size_t slot) {
        try {
            while (!failed) {
                const std::uint64_t i = next++;
                if (i >= n)
                    return;
                body(i, slot);
            }
        } catch (...) {
            if (!failed.exchange(true))
                error = std::current_exception();
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(threads - 1);
    try {
        for (std::size_t slot = 1; slot < threads; ++slot)
            helpers.emplace_back(claim, slot);
    } catch (const std::system_error &) {
        // Out of threads: the ones already running finish the range.
    }
    claim(0);
    for (std::thread &helper : helpers)
        helper.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace encore
