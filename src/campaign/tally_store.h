/**
 * @file
 * CRC'd sidecar table of per-group trial-outcome tallies — the
 * durability layer under the campaign planner's compositional reuse.
 *
 * The planner partitions a campaign's trial universe into groups (one
 * per struck region plus per-function unprotected groups, see
 * campaign/planner.h) and keys each group's outcome tally by a
 * fingerprint covering everything that can change those outcomes. A
 * later sweep point whose fingerprint matches folds the stored tally
 * into its aggregate instead of re-executing the group's trials.
 *
 * The table is a sealed-record file like the trial store
 * (record_file.h): a kill mid-write leaves at worst a torn tail, which
 * the reader drops, and the affected groups just re-execute.
 * Duplicate keys are legal — the *last* record for a key wins (an
 * updated tally is appended, never rewritten in place).
 *
 * On-disk layout (the framing of record_file.h):
 *
 *   offset  size  field
 *   0       8     magic "ENCTALLY"
 *   8       4     format version (kTallyStoreVersion)
 *   12      4     record size (kTallyRecordSize)
 *   16      4     CRC32 of bytes [0, 16)
 *   20      R×N   records:
 *                   key u64           group fingerprint
 *                   subset_hash u64   FNV-1a over the group's sorted
 *                                     trial indices (witness: a reused
 *                                     tally must cover exactly the
 *                                     same trials)
 *                   subset_count u64
 *                   counts[NumOutcomes] u64
 *                   CRC32 of the record's preceding bytes
 */
#ifndef ENCORE_CAMPAIGN_TALLY_STORE_H
#define ENCORE_CAMPAIGN_TALLY_STORE_H

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "campaign/record_file.h"
#include "fault/injector.h"

namespace encore::campaign {

inline constexpr std::uint32_t kTallyStoreVersion = 1;
inline constexpr std::size_t kTallyStoreHeaderSize = 20;
inline constexpr std::size_t kTallyOutcomeSlots =
    static_cast<std::size_t>(fault::FaultOutcome::NumOutcomes);
inline constexpr std::size_t kTallyRecordSize =
    8 + 8 + 8 + kTallyOutcomeSlots * 8 + 4;

struct TallyRecord
{
    std::uint64_t key = 0;
    std::uint64_t subset_hash = 0;
    std::uint64_t subset_count = 0;
    std::uint64_t counts[kTallyOutcomeSlots] = {};
};

struct TallyContents : RecordFileExtent
{
    /// The valid record prefix, in file order (duplicates preserved).
    std::vector<TallyRecord> records;
};

/// Reads a sidecar table (readRecordFile). Nullopt on success; an
/// error when the file is unusable. A torn or corrupt tail is NOT an
/// error (a record whose counts do not sum to its subset_count is
/// corrupt): `dropped_bytes` reports it, and the planner re-executes
/// the affected groups.
std::optional<std::string> readTallyStore(const std::string &path,
                                          TallyContents &out);

/// Last-wins view of the records: key → most recently appended tally.
std::unordered_map<std::uint64_t, TallyRecord>
latestTallies(const TallyContents &contents);

/// Creates `path` fresh with just the header (truncating any existing
/// file). Returns nullopt on success.
std::optional<std::string> createTallyStore(const std::string &path);

/// Appends records to an existing table after the caller has read it:
/// the file is physically truncated to `contents.valid_bytes` first
/// (discarding any torn tail). Returns nullopt on success.
std::optional<std::string>
appendTallyRecords(const std::string &path,
                   const TallyContents &contents,
                   const std::vector<TallyRecord> &records);

} // namespace encore::campaign

#endif // ENCORE_CAMPAIGN_TALLY_STORE_H
