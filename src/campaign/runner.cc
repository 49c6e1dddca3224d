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

/// "<model> (model id N) + <detector> (detector id M)".
std::string
scenarioName(const StoreHeader &header)
{
    const fault::models::FaultModel *model =
        fault::models::faultModelById(header.fault_model_id);
    const fault::models::Detector *detector =
        fault::models::detectorById(header.detector_id);
    return std::string(model ? model->name() : "?") + " (model id " +
           std::to_string(header.fault_model_id) + ") + " +
           std::string(detector ? detector->name() : "?") +
           " (detector id " + std::to_string(header.detector_id) + ")";
}

/// Names the foreign records (see StoreTally) of the store at `path`.
std::string
foreignRecords(const std::string &path, std::uint64_t foreign)
{
    return "trial store '" + path + "' holds " + std::to_string(foreign) +
           " record(s) with an out-of-range outcome or a trial its shard "
           "does not own — written by an incompatible build?";
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

StoreTally
tallyStore(const StoreContents &contents)
{
    const ShardSpec shard{contents.header.shard_index,
                          contents.header.shard_count};
    StoreTally tally;
    for (const TrialRecord &record : contents.records)
        if (record.outcome < static_cast<std::uint32_t>(kNumOutcomes) &&
            shard.owns(record.trial))
            tally.records.push_back(record);
    tally.foreign = contents.records.size() - tally.records.size();
    keepFirstRecordPerTrial(tally.records);
    tally.duplicates =
        contents.records.size() - tally.foreign - tally.records.size();
    for (const TrialRecord &record : tally.records) {
        ++tally.result.counts[record.outcome];
        ++tally.result.trials;
        tally.result.replay_cost += record.aux;
    }
    return tally;
}

std::string
identityMismatches(const StoreHeader &want, const StoreHeader &found)
{
    std::string lines;
    auto compare = [&](const char *field, std::uint64_t expected,
                       std::uint64_t got) {
        if (got != expected)
            lines += std::string("\n  ") + field + " mismatch: store has " +
                     std::to_string(got) + ", expected " +
                     std::to_string(expected);
    };
    compare("config fingerprint", want.config_fingerprint,
            found.config_fingerprint);
    compare("module hash", want.module_hash, found.module_hash);
    compare("seed", want.seed, found.seed);
    compare("total trials", want.total_trials, found.total_trials);
    compare("shard index", want.shard_index, found.shard_index);
    compare("shard count", want.shard_count, found.shard_count);
    // The same trial index is a different experiment under another
    // fault model or detector.
    if (want.fault_model_id != found.fault_model_id ||
        want.detector_id != found.detector_id)
        lines += "\n  different fault model/detector: store has " +
                 scenarioName(found) + ", expected " + scenarioName(want);
    return lines;
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

    // The owned trials the store already records, in trial order.
    std::vector<TrialRecord> recorded;
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
            const std::string mismatches =
                identityMismatches(header(), contents.header);
            if (!mismatches.empty())
                fatalf("trial store '", path,
                       "' belongs to a different campaign; refusing to "
                       "resume into it (results would not be "
                       "comparable):",
                       mismatches,
                       "\nEither rerun with the original configuration, "
                       "or point --store at a fresh path.");
            if (contents.dropped_bytes > 0)
                warn("trial store '" + path + "': dropped " +
                     std::to_string(contents.dropped_bytes) +
                     " torn/corrupt tail bytes from an interrupted "
                     "run; the missing trials will be re-executed");
            summary.recovered_dropped_bytes = contents.dropped_bytes;
            StoreTally tally = tallyStore(contents);
            if (tally.foreign > 0)
                fatal(foreignRecords(path, tally.foreign));
            summary.result = tally.result;
            summary.resumed = tally.result.trials;
            recorded = std::move(tally.records);
            writer = TrialStoreWriter::append(path, contents, {}, &error);
        } else {
            writer = TrialStoreWriter::create(path, header(), {}, &error);
        }
        if (!writer)
            fatal(error);
    }

    // The refill set: the owned indices the store does not record, in
    // increasing order, at most --stop-after of them. The walk stops
    // once it has them all, so its memory follows the records and the
    // refill, never the campaign's claimed trial count.
    std::uint64_t refill = summary.shard_trials - summary.resumed;
    if (options_.stop_after > 0)
        refill = std::min(refill, options_.stop_after);
    std::vector<std::uint64_t> missing;
    missing.reserve(refill);
    auto next = recorded.begin();
    for (std::uint64_t t = options_.shard.index;
         t < trials && missing.size() < refill; t += options_.shard.count) {
        if (next != recorded.end() && next->trial == t)
            ++next;
        else
            missing.push_back(t);
    }

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
        }
        // Shards of one campaign differ in their index alone.
        StoreHeader want = out.header;
        want.shard_index = h.shard_index;
        const std::string mismatches = identityMismatches(want, h);
        if (!mismatches.empty())
            return "merge: '" + path +
                   "' belongs to a different campaign than the first "
                   "store; refusing to combine incomparable stores:" +
                   mismatches;
        if (std::find(shards.begin(), shards.end(), h.shard_index) !=
            shards.end())
            return "merge: shard " + std::to_string(h.shard_index) +
                   "/" + std::to_string(h.shard_count) +
                   " appears twice ('" + path + "' duplicates an "
                   "earlier store)";
        shards.push_back(h.shard_index);

        const StoreTally tally = tallyStore(contents);
        if (tally.foreign > 0)
            return "merge: " + foreignRecords(path, tally.foreign);
        out.result.merge(tally.result);
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
