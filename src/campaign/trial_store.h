/**
 * @file
 * Append-only binary trial store — the durability layer under
 * resumable fault-injection campaigns.
 *
 * A campaign's trials are mutually independent and each one is a pure
 * function of (module, golden run, seed, trial index), so durability
 * needs nothing transactional: the store is a fixed-size header
 * followed by fixed-size records, each record carrying its own CRC32.
 * A process killed mid-write leaves at worst one torn record at the
 * tail; the reader recovers the valid prefix and reports the dropped
 * bytes instead of failing, and the writer physically truncates the
 * tail before appending again. Records may land in any order (worker
 * threads finish out of order) — the trial index inside each record,
 * not its file position, says which trial it is.
 *
 * The header carries a campaign-config fingerprint, the instrumented
 * module's hash, and shard coordinates, so `resume` and `merge` can
 * refuse a store that was produced under a different campaign
 * identity instead of silently mixing incompatible trials.
 *
 * On-disk layout (host-endian; stores are consumed on the machine
 * family that wrote them):
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

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "support/ticker.h"

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

struct StoreContents
{
    StoreHeader header;
    /// The valid record prefix, in file order (NOT trial order).
    std::vector<TrialRecord> records;
    /// Bytes of the file that parsed cleanly (header + records).
    std::uint64_t valid_bytes = 0;
    /// Torn/corrupt tail bytes dropped by the reader (0 for a store
    /// that was closed cleanly).
    std::uint64_t dropped_bytes = 0;
};

/// Reads a store. Returns nullopt on success, an error message when
/// the store is unusable (missing file, bad magic/version/record
/// size, corrupt header, shard index not below a non-zero shard
/// count). A torn or CRC-corrupt record is NOT an error: reading stops
/// at the first bad record and the remainder is reported via
/// `dropped_bytes` — that is the crash-recovery path.
std::optional<std::string> readTrialStore(const std::string &path,
                                          StoreContents &out);

/// Drops every record whose trial index already appeared earlier in
/// `records` and sorts the rest by trial index. Its memory is
/// proportional to the records, never to the header's total_trials,
/// which a crafted store can set to anything.
void keepFirstRecordPerTrial(std::vector<TrialRecord> &records);

/**
 * Concurrent batched appender. Worker threads call add(); records
 * accumulate in a buffer that is written out either when it reaches
 * `flush_batch` records or when the background flusher thread fires
 * (every `flush_interval`, on the monotonic clock), bounding both
 * syscall traffic at 30k trials/s and the number of trials lost to a
 * kill to roughly one flush interval.
 */
class TrialStoreWriter
{
  public:
    struct Options
    {
        /// Records buffered before an inline flush.
        std::size_t flush_batch = 256;
        /// Background flush period; 0 disables the flusher thread
        /// (records then only hit disk on batch boundaries/finish).
        std::chrono::milliseconds flush_interval{200};
    };

    /// Creates `path` fresh (truncating any existing file) and writes
    /// the header. Null + `*error` on I/O failure.
    static std::unique_ptr<TrialStoreWriter>
    create(const std::string &path, const StoreHeader &header,
           const Options &options, std::string *error);

    /// Reopens an existing store for append after the caller has read
    /// and validated it: physically truncates the file to
    /// `contents.valid_bytes` (discarding any torn tail) and appends
    /// from there. Null + `*error` on I/O failure.
    static std::unique_ptr<TrialStoreWriter>
    append(const std::string &path, const StoreContents &contents,
           const Options &options, std::string *error);

    ~TrialStoreWriter();

    TrialStoreWriter(const TrialStoreWriter &) = delete;
    TrialStoreWriter &operator=(const TrialStoreWriter &) = delete;

    /// Queues one record. Thread-safe; may flush inline when the
    /// batch fills.
    void add(std::uint64_t trial, std::uint32_t outcome,
             std::uint32_t aux = 0);

    /// Stops the flusher thread, writes out everything pending and
    /// closes the file. Idempotent; called by the destructor. Returns
    /// false when a write failed at any point (the store is then at
    /// worst truncated — the reader recovers the valid prefix).
    bool finish();

    /// True when every write so far succeeded.
    bool ok();

  private:
    TrialStoreWriter(std::ofstream out, const Options &options);

    void flushLocked();

    std::ofstream out_;          // guarded by mutex_
    std::vector<char> pending_;  // guarded by mutex_
    std::size_t batch_bytes_;
    bool failed_ = false;        // guarded by mutex_
    bool finished_ = false;      // guarded by mutex_
    std::mutex mutex_;
    /// Declared last: the flusher must die before the members it pokes.
    std::unique_ptr<Ticker> flusher_;
};

} // namespace encore::campaign

#endif // ENCORE_CAMPAIGN_TRIAL_STORE_H
