/**
 * @file
 * Sealed-record files — the framing shared by the trial store
 * (trial_store.h) and the planner's tally sidecar (tally_store.h).
 *
 * A fixed-size header sealed by a CRC32, then fixed-size records, each
 * sealed by its own CRC32, appended in any order (host-endian; files
 * are read on the machine family that wrote them):
 *
 *   offset  size   field
 *   0       8      magic (names the format)
 *   8       4      format version
 *   12      4      record size R
 *   16      H-20   the format's header fields
 *   H-4     4      CRC32 of bytes [0, H-4)
 *   H       R×N    records: R-4 bytes of fields, then their CRC32
 *
 * A process killed mid-write leaves at worst one torn record at the
 * tail. The reader keeps the longest prefix of CRC-clean records that
 * pass the format's content check and reports the bytes after it; a
 * writer that reopens the file first truncates it to that prefix, so
 * a corrupt record never sits between valid ones.
 */
#ifndef ENCORE_CAMPAIGN_RECORD_FILE_H
#define ENCORE_CAMPAIGN_RECORD_FILE_H

#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/ticker.h"

namespace encore::campaign {

/// One format's constants; the sizes include the trailing CRC32s, and
/// `noun` is what diagnostics call the file ("trial store").
struct RecordFormat
{
    std::string_view magic;
    std::uint32_t version = 0;
    std::size_t header_size = 0;
    std::size_t record_size = 0;
    std::string_view noun;
};

/// Visitors for the formats' layout tables: each copies one field to
/// or from its byte offset in a header or record.
struct FieldWriter
{
    char *bytes;

    template <typename T>
    void operator()(std::size_t offset, const T &value) const
    {
        std::memcpy(bytes + offset, &value, sizeof value);
    }
};

struct FieldReader
{
    const char *bytes;

    template <typename T>
    void operator()(std::size_t offset, T &value) const
    {
        std::memcpy(&value, bytes + offset, sizeof value);
    }
};

/// The valid prefix a read found.
struct RecordFileExtent
{
    /// Bytes that parsed cleanly (header + records).
    std::uint64_t valid_bytes = 0;
    /// Torn or corrupt tail bytes the reader dropped.
    std::uint64_t dropped_bytes = 0;
};

/// Reads `path`. An error when the file is unusable: missing, shorter
/// than a header, bad magic, version or record size, a header CRC
/// mismatch, or an error `header` (may be empty) returns for the
/// header bytes. Otherwise hands each CRC-clean record to `record` in
/// file order; the first torn, CRC-corrupt or refused (`record`
/// returns false) one ends the valid prefix.
std::optional<std::string> readRecordFile(
    const std::string &path, const RecordFormat &format,
    const std::function<std::optional<std::string>(const char *)> &header,
    const std::function<bool(const char *)> &record,
    RecordFileExtent &extent);

/// Creates `path` fresh (truncating any existing file) holding just the
/// header: format.header_size bytes with the format's fields filled in,
/// to which this adds the magic, version, record size and CRC.
std::optional<std::string> createRecordFile(const std::string &path,
                                            const RecordFormat &format,
                                            const char *header);

/// Thread-safe batched appender. Records queue until `flush_batch` of
/// them are pending, the background flusher fires (every
/// `flush_interval` on the monotonic clock; 0 runs no flusher), or
/// finish() — bounding both syscall traffic and what a kill can lose.
class RecordWriter
{
  public:
    struct Options
    {
        std::size_t flush_batch = 256;
        std::chrono::milliseconds flush_interval{200};
    };

    /// Opens a file the caller has read or created for append, after
    /// truncating it to `extent.valid_bytes`. Null + `*error` on I/O
    /// failure.
    static std::unique_ptr<RecordWriter>
    append(const std::string &path, const RecordFormat &format,
           const RecordFileExtent &extent, const Options &options,
           std::string *error);

    ~RecordWriter();

    RecordWriter(const RecordWriter &) = delete;
    RecordWriter &operator=(const RecordWriter &) = delete;

    /// Seals the first record_size - 4 bytes of `record` and queues
    /// them. Thread-safe; may flush inline.
    void add(const char *record);

    /// Stops the flusher, writes out the queue and closes the file.
    /// Idempotent; the destructor calls it. False when any write
    /// failed (the file then holds at worst a torn tail).
    bool finish();

    /// True when every write so far succeeded.
    bool ok();

  private:
    RecordWriter(std::ofstream out, std::size_t record_size,
                 const Options &options);

    void flushLocked();

    const std::size_t record_size_;
    const std::size_t batch_bytes_;
    std::mutex mutex_;
    std::ofstream out_;         // guarded by mutex_
    std::vector<char> pending_; // guarded by mutex_
    bool failed_ = false;       // guarded by mutex_
    bool finished_ = false;     // guarded by mutex_
    /// Declared last: the flusher must die before the members it pokes.
    std::unique_ptr<Ticker> flusher_;
};

} // namespace encore::campaign

#endif // ENCORE_CAMPAIGN_RECORD_FILE_H
