/**
 * @file
 * Campaign progress and telemetry.
 *
 * Long campaigns (hours across machines) need two kinds of liveness
 * signal without perturbing the workers: an in-place progress line for
 * a human watching the terminal, and a machine-readable heartbeat for
 * external monitors (a cron job, a fleet dashboard) that cannot read
 * the terminal. Both are produced by a support/Ticker thread on the
 * monotonic clock; the workers only bump relaxed atomic counters, so
 * telemetry costs nothing on the trial hot path and — unlike anything
 * order-dependent — cannot perturb campaign results.
 *
 * The heartbeat file is JSONL: one self-contained object per tick,
 * appended and flushed, so a monitor can tail it and a kill mid-line
 * corrupts at most the last line.
 */
#ifndef ENCORE_CAMPAIGN_PROGRESS_H
#define ENCORE_CAMPAIGN_PROGRESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>

#include "fault/injector.h"
#include "support/ticker.h"

namespace encore::campaign {

/// One sampled point of a running campaign — everything a heartbeat
/// line or a progress endpoint reports.
struct ProgressSnapshot
{
    std::uint64_t elapsed_ms = 0;
    /// Trials recorded so far (resumed + executed).
    std::uint64_t done = 0;
    std::uint64_t total = 0;
    /// Trials executed by this process (throughput denominator —
    /// resumed trials cost nothing and must not inflate the rate).
    std::uint64_t executed = 0;
    double trials_per_sec = 0.0;
    double eta_s = 0.0;
    bool final_sample = false;
    fault::CampaignResult tally;
};

/// Renders a snapshot as the canonical heartbeat JSON object (no
/// trailing newline), one line of the JSONL heartbeat file.
std::string formatHeartbeatJson(const ProgressSnapshot &snapshot);

class ProgressMeter
{
  public:
    struct Options
    {
        /// Print an in-place progress line to stderr every tick.
        bool line = false;
        /// Append a JSONL heartbeat to this path ("" disables).
        std::string heartbeat_path;
        std::chrono::milliseconds interval{500};
        /// Prefix for the progress line, e.g. "164.gzip shard 0/2".
        std::string label;
        /// Trials this process is responsible for (its shard's size).
        std::uint64_t total = 0;
        /// Outcomes already in the store when the run started
        /// (resumed trials): counted as done and folded into the
        /// running outcome tallies, but excluded from the throughput
        /// estimate.
        fault::CampaignResult initial;
    };

    explicit ProgressMeter(Options options);
    ~ProgressMeter();

    ProgressMeter(const ProgressMeter &) = delete;
    ProgressMeter &operator=(const ProgressMeter &) = delete;

    /// Called by workers after each executed trial. Lock-free.
    void note(fault::FaultOutcome outcome);

    /// Samples the current state (atomics + wall clock). Thread-safe.
    ProgressSnapshot sample(bool final_sample) const;

    /// Stops the ticker and emits one final progress line/heartbeat
    /// entry. Idempotent; called by the destructor. Returns false
    /// when the heartbeat stream degraded at any point — an append
    /// failed (disk full, path deleted) after the file was opened —
    /// so callers can surface a run that *looked* healthy but whose
    /// monitors went blind.
    bool finish();

  private:
    void emitLocked(bool final);

    Options options_;
    std::chrono::steady_clock::time_point start_;
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t>
        counts_[static_cast<int>(fault::FaultOutcome::NumOutcomes)] = {};
    std::ofstream heartbeat_;
    std::mutex emit_mutex_;
    bool finished_ = false;           // guarded by emit_mutex_
    bool heartbeat_degraded_ = false; // guarded by emit_mutex_
    /// Declared last so it stops before the state it samples dies.
    std::unique_ptr<Ticker> ticker_;
};

} // namespace encore::campaign

#endif // ENCORE_CAMPAIGN_PROGRESS_H
