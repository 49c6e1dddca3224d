#include "campaign/trial_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "support/checksum.h"

namespace encore::campaign {

namespace {

constexpr char kMagic[8] = {'E', 'N', 'C', 'T', 'R', 'I', 'A', 'L'};

template <typename T>
void
put(char *bytes, std::size_t offset, T value)
{
    std::memcpy(bytes + offset, &value, sizeof value);
}

template <typename T>
T
get(const char *bytes, std::size_t offset)
{
    T value;
    std::memcpy(&value, bytes + offset, sizeof value);
    return value;
}

void
encodeHeader(char (&bytes)[kTrialStoreHeaderSize],
             const StoreHeader &header)
{
    std::memset(bytes, 0, sizeof bytes);
    std::memcpy(bytes, kMagic, sizeof kMagic);
    put<std::uint32_t>(bytes, 8, kTrialStoreVersion);
    put<std::uint32_t>(bytes, 12,
                       static_cast<std::uint32_t>(kTrialRecordSize));
    put<std::uint64_t>(bytes, 16, header.config_fingerprint);
    put<std::uint64_t>(bytes, 24, header.module_hash);
    put<std::uint64_t>(bytes, 32, header.seed);
    put<std::uint64_t>(bytes, 40, header.total_trials);
    put<std::uint32_t>(bytes, 48, header.shard_index);
    put<std::uint32_t>(bytes, 52, header.shard_count);
    put<std::uint64_t>(bytes, 56, header.snapshot_stride);
    put<std::uint64_t>(bytes, 64, header.snapshot_byte_budget);
    put<std::uint32_t>(bytes, 72, header.snapshot_page_bytes);
    put<std::uint32_t>(bytes, 76, header.fault_model_id);
    put<std::uint32_t>(bytes, 80, header.detector_id);
    put<std::uint32_t>(bytes, 84, crc32(bytes, 84));
}

void
encodeRecord(char (&bytes)[kTrialRecordSize], std::uint64_t trial,
             std::uint32_t outcome, std::uint32_t aux)
{
    put<std::uint64_t>(bytes, 0, trial);
    put<std::uint32_t>(bytes, 8, outcome);
    put<std::uint32_t>(bytes, 12, aux);
    put<std::uint32_t>(bytes, 16, crc32(bytes, 16));
}

} // namespace

std::optional<std::string>
readTrialStore(const std::string &path, StoreContents &out)
{
    out = StoreContents{};
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "cannot open trial store '" + path + "' for reading";

    char header_bytes[kTrialStoreHeaderSize];
    in.read(header_bytes, sizeof header_bytes);
    if (in.gcount() != static_cast<std::streamsize>(sizeof header_bytes))
        return "trial store '" + path +
               "' is shorter than a store header — not a trial store "
               "(or the very first write was torn)";
    if (std::memcmp(header_bytes, kMagic, sizeof kMagic) != 0)
        return "'" + path + "' is not a trial store (bad magic)";
    const auto version = get<std::uint32_t>(header_bytes, 8);
    if (version != kTrialStoreVersion)
        return "trial store '" + path + "' has format version " +
               std::to_string(version) + "; this build reads version " +
               std::to_string(kTrialStoreVersion);
    const auto record_size = get<std::uint32_t>(header_bytes, 12);
    if (record_size != kTrialRecordSize)
        return "trial store '" + path + "' declares " +
               std::to_string(record_size) + "-byte records, expected " +
               std::to_string(kTrialRecordSize);
    if (get<std::uint32_t>(header_bytes, 84) != crc32(header_bytes, 84))
        return "trial store '" + path + "' has a corrupt header (CRC "
               "mismatch)";

    out.header.config_fingerprint =
        get<std::uint64_t>(header_bytes, 16);
    out.header.module_hash = get<std::uint64_t>(header_bytes, 24);
    out.header.seed = get<std::uint64_t>(header_bytes, 32);
    out.header.total_trials = get<std::uint64_t>(header_bytes, 40);
    out.header.shard_index = get<std::uint32_t>(header_bytes, 48);
    out.header.shard_count = get<std::uint32_t>(header_bytes, 52);
    out.header.snapshot_stride = get<std::uint64_t>(header_bytes, 56);
    out.header.snapshot_byte_budget =
        get<std::uint64_t>(header_bytes, 64);
    out.header.snapshot_page_bytes =
        get<std::uint32_t>(header_bytes, 72);
    out.header.fault_model_id = get<std::uint32_t>(header_bytes, 76);
    out.header.detector_id = get<std::uint32_t>(header_bytes, 80);
    if (out.header.shard_index >= out.header.shard_count)
        return "trial store '" + path + "' declares shard " +
               std::to_string(out.header.shard_index) + "/" +
               std::to_string(out.header.shard_count) +
               "; the shard index must be below a non-zero shard count";
    out.valid_bytes = kTrialStoreHeaderSize;

    // Records: accept the longest prefix of whole, CRC-clean records
    // whose trial index is in range; everything after the first bad
    // one is a torn tail from an interrupted run.
    char record_bytes[kTrialRecordSize];
    for (;;) {
        in.read(record_bytes, sizeof record_bytes);
        const std::streamsize got = in.gcount();
        if (got == 0)
            break;
        if (got != static_cast<std::streamsize>(sizeof record_bytes)) {
            out.dropped_bytes += static_cast<std::uint64_t>(got);
            break;
        }
        const auto stored_crc = get<std::uint32_t>(record_bytes, 16);
        TrialRecord record;
        record.trial = get<std::uint64_t>(record_bytes, 0);
        record.outcome = get<std::uint32_t>(record_bytes, 8);
        record.aux = get<std::uint32_t>(record_bytes, 12);
        if (stored_crc != crc32(record_bytes, 16) ||
            record.trial >= out.header.total_trials) {
            out.dropped_bytes += sizeof record_bytes;
            break;
        }
        out.records.push_back(record);
        out.valid_bytes += sizeof record_bytes;
    }
    // Anything still unread after a bad record is part of the tail.
    if (out.dropped_bytes > 0) {
        in.clear();
        in.seekg(0, std::ios::end);
        const auto end = static_cast<std::uint64_t>(in.tellg());
        if (end > out.valid_bytes)
            out.dropped_bytes = end - out.valid_bytes;
    }
    return std::nullopt;
}

void
keepFirstRecordPerTrial(std::vector<TrialRecord> &records)
{
    // Stable, so the first record of a trial in file order heads its
    // run and survives std::unique.
    std::stable_sort(records.begin(), records.end(),
                     [](const TrialRecord &a, const TrialRecord &b) {
                         return a.trial < b.trial;
                     });
    const auto same_trial = [](const TrialRecord &a,
                               const TrialRecord &b) {
        return a.trial == b.trial;
    };
    records.erase(std::unique(records.begin(), records.end(), same_trial),
                  records.end());
}

TrialStoreWriter::TrialStoreWriter(std::ofstream out,
                                   const Options &options)
    : out_(std::move(out)),
      batch_bytes_(std::max<std::size_t>(1, options.flush_batch) *
                   kTrialRecordSize)
{
    pending_.reserve(batch_bytes_ + kTrialRecordSize);
    if (options.flush_interval.count() > 0) {
        flusher_ = std::make_unique<Ticker>(
            options.flush_interval, [this] {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!finished_)
                    flushLocked();
            });
    }
}

std::unique_ptr<TrialStoreWriter>
TrialStoreWriter::create(const std::string &path,
                         const StoreHeader &header,
                         const Options &options, std::string *error)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    char bytes[kTrialStoreHeaderSize];
    encodeHeader(bytes, header);
    out.write(bytes, sizeof bytes);
    out.flush();
    if (!out) {
        if (error)
            *error = "cannot create trial store '" + path +
                     "': check that the directory exists and is "
                     "writable";
        return nullptr;
    }
    return std::unique_ptr<TrialStoreWriter>(
        new TrialStoreWriter(std::move(out), options));
}

std::unique_ptr<TrialStoreWriter>
TrialStoreWriter::append(const std::string &path,
                         const StoreContents &contents,
                         const Options &options, std::string *error)
{
    // Cut off the torn tail first so the file never contains a
    // corrupt record in the middle of otherwise valid data.
    std::error_code ec;
    std::filesystem::resize_file(path, contents.valid_bytes, ec);
    if (ec) {
        if (error)
            *error = "cannot truncate trial store '" + path +
                     "' to its valid prefix: " + ec.message();
        return nullptr;
    }
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out) {
        if (error)
            *error =
                "cannot open trial store '" + path + "' for append";
        return nullptr;
    }
    return std::unique_ptr<TrialStoreWriter>(
        new TrialStoreWriter(std::move(out), options));
}

TrialStoreWriter::~TrialStoreWriter()
{
    finish();
}

void
TrialStoreWriter::add(std::uint64_t trial, std::uint32_t outcome,
                      std::uint32_t aux)
{
    char bytes[kTrialRecordSize];
    encodeRecord(bytes, trial, outcome, aux);
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.insert(pending_.end(), bytes, bytes + sizeof bytes);
    if (pending_.size() >= batch_bytes_)
        flushLocked();
}

void
TrialStoreWriter::flushLocked()
{
    if (pending_.empty())
        return;
    out_.write(pending_.data(),
               static_cast<std::streamsize>(pending_.size()));
    out_.flush();
    if (!out_)
        failed_ = true;
    pending_.clear();
}

bool
TrialStoreWriter::finish()
{
    // Stop the flusher before taking the lock for the final flush —
    // its callback takes the same mutex.
    if (flusher_)
        flusher_->stop();
    std::lock_guard<std::mutex> lock(mutex_);
    if (!finished_) {
        flushLocked();
        out_.close();
        if (!out_)
            failed_ = true;
        finished_ = true;
    }
    return !failed_;
}

bool
TrialStoreWriter::ok()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return !failed_;
}

} // namespace encore::campaign
