/**
 * @file
 * Resumable, sharded campaign runner — orchestration over
 * FaultInjector and the durable trial store.
 *
 * Because every trial is a pure function of (module, golden run,
 * campaign seed, trial index) — the counter-based seeding contract of
 * Rng::forStream — a campaign is just the set of trial indices
 * [0, trials). The runner exploits that three ways:
 *
 *  - **Resume.** On startup it reads the store's valid prefix,
 *    recomputes which indices are missing, and runs only those
 *    through fault::runTrials, writing each result to the store as it
 *    lands. A campaign killed at trial 99,999 of 100,000 re-executes
 *    one trial; the aggregate is bit-identical to an uninterrupted run
 *    because per-outcome counts are order-independent sums of
 *    per-trial outcomes that never change.
 *
 *  - **Multi-process sharding.** Shard i of N owns the indices with
 *    `t % N == i` (stride partitioning keeps shard workloads
 *    statistically even). N processes — or machines — write disjoint
 *    stores; mergeTrialStores() later combines them into the same
 *    aggregate a single unsharded run would have produced.
 *
 *  - **Identity checking.** The store header carries a fingerprint of
 *    everything that determines trial outcomes (module hash, entry,
 *    args, seed, trials, Dmax, run budget, masking, fault model and
 *    detector). Resume and merge refuse a store whose identity does
 *    not match (identityMismatches) instead of silently mixing trials
 *    from different experiments.
 *
 * The runner validates its CampaignConfig on entry
 * (fault::validateCampaignConfig) and exits through
 * support/diagnostics fatal() — with a diagnostic naming the
 * offending field or store — on misconfiguration.
 */
#ifndef ENCORE_CAMPAIGN_RUNNER_H
#define ENCORE_CAMPAIGN_RUNNER_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/trial_store.h"
#include "fault/injector.h"

namespace encore::campaign {

struct ShardSpec
{
    std::uint32_t index = 0;
    std::uint32_t count = 1;

    /// Does this shard own trial index `t`?
    bool owns(std::uint64_t t) const { return t % count == index; }

    /// Number of owned indices in [0, trials).
    std::uint64_t
    ownedTrials(std::uint64_t trials) const
    {
        return trials / count + (trials % count > index ? 1 : 0);
    }
};

/// Parses "i/N" (e.g. "0/4"). Returns nullopt on malformed input,
/// i >= N, or N == 0.
std::optional<ShardSpec> parseShardSpec(const std::string &text);

struct RunnerOptions
{
    /// Trial store path; "" runs without durability (still sharded,
    /// still validated, still reported — just not resumable).
    std::string store_path;
    ShardSpec shard;
    /// When the store already exists, require/forbid that: `resume`
    /// passes MustExist, a fresh `run` may pass either.
    enum class StorePolicy { CreateOrResume, MustExist };
    StorePolicy store_policy = StorePolicy::CreateOrResume;
    /// Test/ops hook: execute at most this many *new* trials, then
    /// stop (summary.complete == false), simulating an interrupted
    /// campaign deterministically. 0 = run to completion.
    std::uint64_t stop_after = 0;
    /// Progress/telemetry (see campaign/progress.h).
    bool progress = false;
    std::string heartbeat_path;
    std::chrono::milliseconds progress_interval{500};
    /// Label shown in the progress line; defaults to the store path.
    std::string label;
};

struct RunSummary
{
    /// Aggregate over every trial recorded for this shard (resumed +
    /// executed). For shard 0/1 of a complete run this is exactly
    /// what FaultInjector::runCampaign would have returned.
    fault::CampaignResult result;
    /// Indices this shard owns.
    std::uint64_t shard_trials = 0;
    /// Trials recovered from the store instead of re-executed.
    std::uint64_t resumed = 0;
    /// Trials executed by this invocation.
    std::uint64_t executed = 0;
    /// Every owned index is recorded.
    bool complete = false;
    /// Torn/corrupt bytes the store reader dropped (0 normally).
    std::uint64_t recovered_dropped_bytes = 0;
};

/// A read store's outcome tally: the first record of each trial its
/// shard owns, in trial order. Foreign records (an out-of-range
/// outcome, or a trial the shard does not own) are dropped before
/// duplicates, so a valid record behind a foreign one still counts.
/// Memory follows the records, never the header's total_trials.
struct StoreTally
{
    fault::CampaignResult result;
    std::vector<TrialRecord> records;
    std::uint64_t foreign = 0;
    std::uint64_t duplicates = 0;
};

StoreTally tallyStore(const StoreContents &contents);

/// One "\n  <field> mismatch: store has X, expected Y" line per
/// campaign-identity field on which `found` differs from `want`, ""
/// for the same campaign and shard. Snapshot provenance is never
/// compared: the snapshot tier cannot change an outcome.
std::string identityMismatches(const StoreHeader &want,
                               const StoreHeader &found);

/// Fingerprint of everything that determines trial outcomes: the
/// module hash, then fault::mixCampaignIdentity's config fields.
/// Deliberately excludes `jobs` and the shard spec — neither may
/// change results.
std::uint64_t campaignFingerprint(const fault::FaultInjector &injector,
                                  const fault::CampaignConfig &config);

class CampaignRunner
{
  public:
    /// `injector` must already be prepare()d.
    CampaignRunner(const fault::FaultInjector &injector,
                   const fault::CampaignConfig &config,
                   RunnerOptions options = {});

    /// Runs (or resumes) this shard of the campaign. Fatal on invalid
    /// config, unusable store, or store/config identity mismatch.
    RunSummary run();

    /// The header a store written by this runner carries.
    StoreHeader header() const;

  private:
    const fault::FaultInjector &injector_;
    fault::CampaignConfig config_;
    RunnerOptions options_;
};

struct MergeSummary
{
    /// Aggregate across all shards — bit-identical to the unsharded
    /// campaign's CampaignResult.
    fault::CampaignResult result;
    /// The common campaign identity of the merged stores.
    StoreHeader header;
    std::uint64_t stores_merged = 0;
};

/// Combines shard stores into one aggregate. Returns nullopt on
/// success; otherwise a diagnostic explaining the refusal: unreadable
/// store, mismatched config fingerprint / module hash / shard count,
/// duplicate shard index, a record owned by the wrong shard, or an
/// incomplete campaign (missing trials are listed by count).
std::optional<std::string>
mergeTrialStores(const std::vector<std::string> &paths,
                 MergeSummary &out);

/// Renders a CampaignResult as the canonical aggregate table (one row
/// per outcome: count + fraction, then the covered line, then — only
/// when non-zero — the replay-cost line). Byte-equal output is the
/// determinism criterion used by tests and the CLI.
std::string formatAggregate(const fault::CampaignResult &result);

} // namespace encore::campaign

#endif // ENCORE_CAMPAIGN_RUNNER_H
