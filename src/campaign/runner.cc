#include "campaign/runner.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>

#include "campaign/progress.h"
#include "support/checksum.h"
#include "support/diagnostics.h"
#include "support/strings.h"

namespace encore::campaign {

namespace {

constexpr int kNumOutcomes =
    static_cast<int>(fault::FaultOutcome::NumOutcomes);

/// Fatal with a diagnostic naming every differing identity field —
/// "fingerprint mismatch" alone would leave the user guessing which
/// knob they changed. The snapshot_* provenance fields are
/// deliberately NOT compared: the snapshot tier cannot change trial
/// outcomes (bit-identity is enforced by the differential suite), so
/// resuming a full-rerun store with snapshots enabled — or vice
/// versa — is safe and must not be refused.
void
requireHeaderMatches(const StoreHeader &want, const StoreHeader &found,
                     const std::string &path)
{
    std::ostringstream os;
    auto mismatch = [&](const char *field, std::uint64_t expected,
                        std::uint64_t got) {
        os << "\n  " << field << ": store has " << got << ", campaign has "
           << expected;
    };
    if (want.config_fingerprint != found.config_fingerprint)
        mismatch("config fingerprint", want.config_fingerprint,
                 found.config_fingerprint);
    if (want.module_hash != found.module_hash)
        mismatch("module hash", want.module_hash, found.module_hash);
    if (want.seed != found.seed)
        mismatch("seed", want.seed, found.seed);
    if (want.total_trials != found.total_trials)
        mismatch("total trials", want.total_trials, found.total_trials);
    if (want.shard_index != found.shard_index)
        mismatch("shard index", want.shard_index, found.shard_index);
    if (want.shard_count != found.shard_count)
        mismatch("shard count", want.shard_count, found.shard_count);
    auto scenario_name = [](const char *kind, std::uint32_t id,
                            std::string_view name) {
        return std::string(name.empty() ? "?" : name) + " (" + kind +
               " id " + std::to_string(id) + ")";
    };
    if (want.fault_model_id != found.fault_model_id) {
        auto name_of = [&](std::uint32_t id) {
            const fault::models::FaultModel *m =
                fault::models::faultModelById(id);
            return scenario_name("model", id, m ? m->name() : "");
        };
        os << "\n  fault model: store has "
           << name_of(found.fault_model_id) << ", campaign has "
           << name_of(want.fault_model_id);
    }
    if (want.detector_id != found.detector_id) {
        auto name_of = [&](std::uint32_t id) {
            const fault::models::Detector *d =
                fault::models::detectorById(id);
            return scenario_name("detector", id, d ? d->name() : "");
        };
        os << "\n  detector: store has " << name_of(found.detector_id)
           << ", campaign has " << name_of(want.detector_id);
    }
    if (os.str().empty())
        return;
    fatalf("trial store '", path,
           "' belongs to a different campaign; refusing to resume "
           "into it (results would not be comparable). Mismatches:",
           os.str(),
           "\nEither rerun with the original configuration, or point "
           "--store at a fresh path.");
}

} // namespace

std::optional<ShardSpec>
parseShardSpec(const std::string &text)
{
    const std::vector<std::string> parts = split(text, '/');
    if (parts.size() != 2)
        return std::nullopt;
    const auto index = parseInt(parts[0]);
    const auto count = parseInt(parts[1]);
    if (!index || !count || *count <= 0 || *index < 0 ||
        *index >= *count)
        return std::nullopt;
    ShardSpec spec;
    spec.index = static_cast<std::uint32_t>(*index);
    spec.count = static_cast<std::uint32_t>(*count);
    return spec;
}

std::uint64_t
campaignFingerprint(const fault::FaultInjector &injector,
                    const fault::CampaignConfig &config)
{
    std::uint64_t hash = fnv1a64("encore-campaign-v1");
    hash = fnv1a64Mix(injector.moduleHash(), hash);
    return fault::mixCampaignIdentity(hash, injector, config);
}

CampaignRunner::CampaignRunner(const fault::FaultInjector &injector,
                               const fault::CampaignConfig &config,
                               RunnerOptions options)
    : injector_(injector), config_(config), options_(std::move(options))
{
}

StoreHeader
CampaignRunner::header() const
{
    StoreHeader header;
    header.config_fingerprint = campaignFingerprint(injector_, config_);
    header.module_hash = injector_.moduleHash();
    header.seed = config_.seed;
    header.total_trials = config_.trials;
    header.shard_index = options_.shard.index;
    header.shard_count = options_.shard.count;
    // Provenance only (audit via `encore_campaign inspect`): the
    // effective stride after any adaptive doubling, 0 when the tier is
    // off or recorded nothing for this workload.
    if (injector_.snapshotsActive()) {
        header.snapshot_stride = injector_.snapshotStats().stride;
        header.snapshot_byte_budget =
            injector_.snapshotConfig().byte_budget;
        header.snapshot_page_bytes =
            static_cast<std::uint32_t>(
                injector_.snapshotConfig().page_words) *
            8;
    }
    // Scenario identity, checked by resume/merge and surfaced by
    // `inspect`.
    header.fault_model_id =
        static_cast<std::uint32_t>(config_.trial.model->id());
    header.detector_id =
        static_cast<std::uint32_t>(config_.trial.detector->id());
    return header;
}

RunSummary
CampaignRunner::run()
{
    fault::validateCampaignConfig(config_);
    if (options_.shard.count == 0 ||
        options_.shard.index >= options_.shard.count)
        fatalf("campaign shard: index must be < count, got ",
               options_.shard.index, "/", options_.shard.count);

    const std::uint64_t trials = config_.trials;
    const std::string &path = options_.store_path;
    RunSummary summary;
    summary.shard_trials = options_.shard.ownedTrials(trials);

    // 1 = this trial index is already recorded in the store.
    std::vector<std::uint8_t> done(trials, 0);
    std::unique_ptr<TrialStoreWriter> writer;
    if (!path.empty()) {
        const bool exists = std::filesystem::exists(path);
        if (!exists &&
            options_.store_policy == RunnerOptions::StorePolicy::MustExist)
            fatalf("trial store '", path,
                   "' does not exist — nothing to resume; use `run` "
                   "to start a new campaign");
        std::string error;
        if (exists) {
            StoreContents contents;
            if (const auto err = readTrialStore(path, contents))
                fatal(*err);
            requireHeaderMatches(header(), contents.header, path);
            if (contents.dropped_bytes > 0)
                warn("trial store '" + path + "': dropped " +
                     std::to_string(contents.dropped_bytes) +
                     " torn/corrupt tail bytes from an interrupted "
                     "run; the missing trials will be re-executed");
            summary.recovered_dropped_bytes = contents.dropped_bytes;
            for (const TrialRecord &record : contents.records) {
                if (record.outcome >=
                    static_cast<std::uint32_t>(kNumOutcomes))
                    fatalf("trial store '", path,
                           "': record for trial ", record.trial,
                           " has outcome ", record.outcome,
                           " out of range — store was written by an "
                           "incompatible build");
                if (!options_.shard.owns(record.trial))
                    fatalf("trial store '", path,
                           "': record for trial ", record.trial,
                           " is not owned by shard ",
                           options_.shard.index, "/",
                           options_.shard.count);
                if (done[record.trial])
                    continue;
                done[record.trial] = 1;
                ++summary.result.counts[record.outcome];
                ++summary.result.trials;
                summary.result.replay_cost += record.aux;
            }
            summary.resumed = summary.result.trials;
            writer = TrialStoreWriter::append(path, contents,
                                              options_.store, &error);
        } else {
            writer = TrialStoreWriter::create(path, header(),
                                              options_.store, &error);
        }
        if (!writer)
            fatal(error);
    }

    // The refill set: every owned index the store does not cover, in
    // increasing order.
    std::vector<std::uint64_t> missing;
    missing.reserve(summary.shard_trials - summary.resumed);
    for (std::uint64_t t = options_.shard.index; t < trials;
         t += options_.shard.count)
        if (!done[t])
            missing.push_back(t);
    if (options_.stop_after > 0 &&
        missing.size() > options_.stop_after)
        missing.resize(options_.stop_after);

    ProgressMeter::Options meter_options;
    meter_options.line = options_.progress;
    meter_options.heartbeat_path = options_.heartbeat_path;
    meter_options.interval = options_.progress_interval;
    meter_options.label =
        !options_.label.empty() ? options_.label
        : !path.empty()         ? path
                                : "campaign";
    meter_options.total = summary.shard_trials;
    meter_options.initial = summary.result;
    ProgressMeter meter(meter_options);

    const std::uint64_t value_instrs = injector_.golden().value_instrs;
    const fault::CampaignResult executed = fault::runTrials(
        injector_, config_.jobs, missing.size(),
        [&](std::uint64_t i, interp::Interpreter &interp) {
            const std::uint64_t trial = missing[i];
            const fault::TrialResult result = injector_.runTrial(
                fault::drawTrial(config_, trial, value_instrs),
                config_.trial, interp);
            if (writer)
                writer->add(trial,
                            static_cast<std::uint32_t>(result.outcome),
                            result.aux);
            meter.note(result.outcome);
            return result;
        });

    if (writer && !writer->finish())
        fatalf("trial store '", path,
               "': write failed (disk full?). The store still holds a "
               "valid prefix; `resume` will re-execute only what is "
               "missing.");
    meter.finish();

    summary.result.merge(executed);
    summary.executed = executed.trials;
    summary.complete = summary.result.trials == summary.shard_trials;
    return summary;
}

std::optional<std::string>
mergeTrialStores(const std::vector<std::string> &paths,
                 MergeSummary &out)
{
    out = MergeSummary{};
    if (paths.empty())
        return std::string("merge: no trial stores given");

    // Shard indices merged so far. Distinct shards own disjoint trial
    // indices, so duplicates can only sit inside one store.
    std::vector<std::uint32_t> shards;
    for (const std::string &path : paths) {
        StoreContents contents;
        if (const auto err = readTrialStore(path, contents))
            return "merge: " + *err;
        const StoreHeader &h = contents.header;
        if (out.stores_merged == 0) {
            out.header = h;
            out.header.shard_index = 0;
        } else {
            const StoreHeader &c = out.header;
            if (h.config_fingerprint != c.config_fingerprint)
                return "merge: config fingerprint mismatch — '" + path +
                       "' was produced by a different campaign "
                       "configuration (module, entry/args, seed, "
                       "trials, Dmax, budget or masking differ); "
                       "refusing to combine incomparable stores";
            if (h.module_hash != c.module_hash)
                return "merge: module hash mismatch — '" + path +
                       "' was produced from a different instrumented "
                       "module";
            if (h.total_trials != c.total_trials ||
                h.seed != c.seed)
                return "merge: '" + path +
                       "' disagrees on seed/total trials with the "
                       "first store";
            if (h.shard_count != c.shard_count)
                return "merge: '" + path + "' declares " +
                       std::to_string(h.shard_count) +
                       " shards, the first store declares " +
                       std::to_string(c.shard_count);
            if (h.fault_model_id != c.fault_model_id ||
                h.detector_id != c.detector_id)
                return "merge: '" + path +
                       "' ran under a different fault model/detector "
                       "than the first store; the same trial index "
                       "means a different experiment there — refusing "
                       "to combine";
        }
        if (std::find(shards.begin(), shards.end(), h.shard_index) !=
            shards.end())
            return "merge: shard " + std::to_string(h.shard_index) +
                   "/" + std::to_string(h.shard_count) +
                   " appears twice ('" + path + "' duplicates an "
                   "earlier store)";
        shards.push_back(h.shard_index);

        const ShardSpec spec{h.shard_index, h.shard_count};
        for (const TrialRecord &record : contents.records) {
            if (record.outcome >=
                static_cast<std::uint32_t>(kNumOutcomes))
                return "merge: '" + path + "' has an out-of-range "
                       "outcome for trial " +
                       std::to_string(record.trial) +
                       " — written by an incompatible build?";
            if (!spec.owns(record.trial))
                return "merge: '" + path + "' records trial " +
                       std::to_string(record.trial) +
                       ", which shard " +
                       std::to_string(h.shard_index) + "/" +
                       std::to_string(h.shard_count) +
                       " does not own";
        }
        keepFirstRecordPerTrial(contents.records);
        for (const TrialRecord &record : contents.records) {
            ++out.result.counts[record.outcome];
            ++out.result.trials;
            out.result.replay_cost += record.aux;
        }
        ++out.stores_merged;
    }

    if (out.result.trials != out.header.total_trials) {
        const std::uint64_t missing =
            out.header.total_trials - out.result.trials;
        const std::uint64_t shards_missing =
            out.header.shard_count - shards.size();
        std::string detail =
            shards_missing > 0
                ? std::to_string(shards_missing) + " of " +
                      std::to_string(out.header.shard_count) +
                      " shard stores were not given"
                : "some shards were interrupted — `encore_campaign "
                  "resume` each store to fill the gaps";
        return "merge: campaign incomplete: " +
               std::to_string(missing) + " of " +
               std::to_string(out.header.total_trials) +
               " trials missing (" + detail + ")";
    }
    return std::nullopt;
}

std::string
formatAggregate(const fault::CampaignResult &result)
{
    std::ostringstream os;
    os << "trials " << result.trials << "\n";
    for (int i = 0; i < kNumOutcomes; ++i) {
        const auto outcome = static_cast<fault::FaultOutcome>(i);
        os << outcomeName(outcome) << " " << result.count(outcome)
           << " (" << formatPercent(result.fraction(outcome)) << ")\n";
    }
    os << "covered " << formatPercent(result.coveredFraction()) << "\n";
    // Only the replay detector accrues replay cost; omitting the line
    // otherwise keeps analytical-detector output byte-identical to
    // pre-registry campaigns.
    if (result.replay_cost > 0)
        os << "replay-cost " << result.replay_cost << "\n";
    return os.str();
}

} // namespace encore::campaign
