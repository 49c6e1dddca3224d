/**
 * @file
 * Append-only binary trial store — the durability layer under
 * resumable fault-injection campaigns.
 *
 * A campaign's trials are mutually independent and each one is a pure
 * function of (module, golden run, seed, trial index), so durability
 * needs nothing transactional: the store is a sealed-record file
 * (record_file.h), which recovers its valid prefix after a kill.
 * Records may land in any order (worker threads finish out of order)
 * — the trial index inside each record, not its file position, says
 * which trial it is.
 *
 * The header carries a campaign-config fingerprint, the instrumented
 * module's hash, and shard coordinates, so `resume` and `merge` can
 * refuse a store that was produced under a different campaign
 * identity instead of silently mixing incompatible trials.
 *
 * On-disk layout (the framing of record_file.h):
 *
 *   offset  size  field
 *   0       8     magic "ENCTRIAL"
 *   8       4     format version (kTrialStoreVersion)
 *   12      4     record size (kTrialRecordSize)
 *   16      8     config fingerprint   (campaignFingerprint)
 *   24      8     module hash          (FaultInjector::moduleHash)
 *   32      8     campaign seed
 *   40      8     total campaign trials (across ALL shards)
 *   48      4     shard index
 *   52      4     shard count
 *   56      8     snapshot stride      (0 = snapshot tier disabled)
 *   64      8     snapshot byte budget
 *   72      4     snapshot page bytes
 *   76      4     fault-model id       (models::FaultModelId)
 *   80      4     detector id          (models::DetectorId)
 *   84      4     CRC32 of bytes [0, 84)
 *   88      20×N  records: trial u64 | outcome u32 | aux u32 |
 *                 CRC32(first 16 B)
 *
 * The snapshot_* fields (version 2) are **provenance, not identity**:
 * they record how the shard was produced so `inspect` can audit a
 * merged campaign, but they are deliberately excluded from the config
 * fingerprint and from the resume/merge identity checks. Snapshots
 * only change *where a trial's execution starts*, never what it
 * computes — the restored state is bit-identical to re-executing the
 * prefix (enforced by the differential suite) — so a snapshot-run
 * shard and a full-rerun shard of the same campaign hold identical
 * records and may be merged freely.
 *
 * The fault-model/detector ids (version 3) are the opposite —
 * **identity, not provenance**: the same trial index produces a
 * different outcome under a different model, so resume and merge
 * refuse stores whose model/detector differ (they are also mixed into
 * the config fingerprint; the header ids exist so `inspect` can name
 * the scenario and so the refusal message can be precise). The
 * per-record aux field (version 3) carries the trial's replay cost in
 * dynamic instructions under the replay detector (saturated to 32
 * bits; always 0 under the analytical detector), letting a resumed or
 * merged campaign reproduce replay-cost aggregates exactly.
 */
#ifndef ENCORE_CAMPAIGN_TRIAL_STORE_H
#define ENCORE_CAMPAIGN_TRIAL_STORE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "campaign/record_file.h"

namespace encore::campaign {

inline constexpr std::uint32_t kTrialStoreVersion = 3;
inline constexpr std::size_t kTrialStoreHeaderSize = 88;
inline constexpr std::size_t kTrialRecordSize = 20;

struct StoreHeader
{
    std::uint64_t config_fingerprint = 0;
    std::uint64_t module_hash = 0;
    std::uint64_t seed = 0;
    /// Trials of the whole campaign, across all shards.
    std::uint64_t total_trials = 0;
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
    /// Snapshot-tier provenance (see the layout comment: audit-only,
    /// never part of the campaign identity). stride 0 means the shard
    /// ran without snapshots.
    std::uint64_t snapshot_stride = 0;
    std::uint64_t snapshot_byte_budget = 0;
    std::uint32_t snapshot_page_bytes = 0;
    /// Scenario identity (see the layout comment): the fault model and
    /// detector the shard's trials ran under, as registry ids. Part of
    /// the resume/merge identity checks.
    std::uint32_t fault_model_id = 0;
    std::uint32_t detector_id = 0;
};

struct TrialRecord
{
    std::uint64_t trial = 0;
    std::uint32_t outcome = 0;
    /// Auxiliary per-trial cost counter (replayed dynamic instructions
    /// under the replay detector; 0 otherwise).
    std::uint32_t aux = 0;
};

struct StoreContents : RecordFileExtent
{
    StoreHeader header;
    /// The valid record prefix, in file order (NOT trial order).
    std::vector<TrialRecord> records;
};

/// Reads a store (readRecordFile). Nullopt on success; an error when
/// the store is unusable, which includes a header whose shard index is
/// not below a non-zero shard count. A torn or corrupt tail is NOT an
/// error (a record whose trial index is not below the total trials is
/// corrupt): `dropped_bytes` reports it — the crash-recovery path.
std::optional<std::string> readTrialStore(const std::string &path,
                                          StoreContents &out);

/// Drops every record whose trial index already appeared earlier in
/// `records` and sorts the rest by trial index, in memory proportional
/// to the records (never to the untrusted header's total_trials).
void keepFirstRecordPerTrial(std::vector<TrialRecord> &records);

/// Concurrent batched appender of trial records: RecordWriter over the
/// trial store's format. append() reopens a store the caller has read
/// and validated.
class TrialStoreWriter
{
  public:
    using Options = RecordWriter::Options;

    static std::unique_ptr<TrialStoreWriter>
    create(const std::string &path, const StoreHeader &header,
           const Options &options, std::string *error);
    static std::unique_ptr<TrialStoreWriter>
    append(const std::string &path, const StoreContents &contents,
           const Options &options, std::string *error);

    void add(std::uint64_t trial, std::uint32_t outcome,
             std::uint32_t aux = 0);
    bool finish() { return writer_->finish(); }
    bool ok() { return writer_->ok(); }

  private:
    explicit TrialStoreWriter(std::unique_ptr<RecordWriter> writer)
        : writer_(std::move(writer))
    {
    }

    std::unique_ptr<RecordWriter> writer_;
};

} // namespace encore::campaign

#endif // ENCORE_CAMPAIGN_TRIAL_STORE_H
