#include "campaign/record_file.h"

#include <algorithm>
#include <filesystem>

#include "support/checksum.h"

namespace encore::campaign {

namespace {

/// Byte offsets of the framing's own header fields.
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kRecordSizeOffset = 12;

/// Does the CRC32 in the last 4 of `size` bytes match the rest?
bool
sealed(const char *bytes, std::size_t size)
{
    std::uint32_t stored = 0;
    FieldReader{bytes}(size - 4, stored);
    return stored == crc32(bytes, size - 4);
}

std::string
describe(const RecordFormat &format, const std::string &path)
{
    return std::string(format.noun) + " '" + path + "'";
}

} // namespace

std::optional<std::string>
readRecordFile(
    const std::string &path, const RecordFormat &format,
    const std::function<std::optional<std::string>(const char *)> &header,
    const std::function<bool(const char *)> &record,
    RecordFileExtent &extent)
{
    extent = RecordFileExtent{};
    const std::string name = describe(format, path);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "cannot open " + name + " for reading";

    std::vector<char> bytes(format.header_size);
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (in.gcount() != static_cast<std::streamsize>(bytes.size()))
        return name + " is shorter than a store header — not a " +
               std::string(format.noun) +
               " (or the very first write was torn)";
    if (std::memcmp(bytes.data(), format.magic.data(),
                    format.magic.size()) != 0)
        return "'" + path + "' is not a " + std::string(format.noun) +
               " (bad magic)";
    std::uint32_t version = 0;
    std::uint32_t record_size = 0;
    const FieldReader field{bytes.data()};
    field(kVersionOffset, version);
    field(kRecordSizeOffset, record_size);
    if (version != format.version)
        return name + " has format version " + std::to_string(version) +
               "; this build reads version " +
               std::to_string(format.version);
    if (record_size != format.record_size)
        return name + " declares " + std::to_string(record_size) +
               "-byte records, expected " +
               std::to_string(format.record_size);
    if (!sealed(bytes.data(), bytes.size()))
        return name + " has a corrupt header (CRC mismatch)";
    if (header)
        if (auto error = header(bytes.data()))
            return error;
    extent.valid_bytes = format.header_size;

    // Everything after the first bad record is a torn tail from an
    // interrupted run.
    bytes.resize(format.record_size);
    while (in.read(bytes.data(),
                   static_cast<std::streamsize>(bytes.size())) &&
           sealed(bytes.data(), bytes.size()) && record(bytes.data()))
        extent.valid_bytes += bytes.size();
    in.clear();
    in.seekg(0, std::ios::end);
    extent.dropped_bytes =
        static_cast<std::uint64_t>(in.tellg()) - extent.valid_bytes;
    return std::nullopt;
}

std::optional<std::string>
createRecordFile(const std::string &path, const RecordFormat &format,
                 const char *header)
{
    std::vector<char> bytes(header, header + format.header_size);
    std::memcpy(bytes.data(), format.magic.data(), format.magic.size());
    const FieldWriter field{bytes.data()};
    field(kVersionOffset, format.version);
    field(kRecordSizeOffset, static_cast<std::uint32_t>(format.record_size));
    field(bytes.size() - 4, crc32(bytes.data(), bytes.size() - 4));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (!out)
        return "cannot create " + describe(format, path) +
               ": check that the directory exists and is writable";
    return std::nullopt;
}

RecordWriter::RecordWriter(std::ofstream out, std::size_t record_size,
                           const Options &options)
    : record_size_(record_size),
      batch_bytes_(std::max<std::size_t>(1, options.flush_batch) *
                   record_size),
      out_(std::move(out))
{
    pending_.reserve(batch_bytes_ + record_size_);
    if (options.flush_interval.count() > 0) {
        flusher_ = std::make_unique<Ticker>(
            options.flush_interval, [this] {
                std::lock_guard<std::mutex> lock(mutex_);
                if (!finished_)
                    flushLocked();
            });
    }
}

std::unique_ptr<RecordWriter>
RecordWriter::append(const std::string &path, const RecordFormat &format,
                     const RecordFileExtent &extent,
                     const Options &options, std::string *error)
{
    std::error_code ec;
    std::filesystem::resize_file(path, extent.valid_bytes, ec);
    if (ec) {
        if (error)
            *error = "cannot truncate " + describe(format, path) +
                     " to its valid prefix: " + ec.message();
        return nullptr;
    }
    std::ofstream out(path, std::ios::binary | std::ios::app);
    if (!out) {
        if (error)
            *error = "cannot open " + describe(format, path) +
                     " for append";
        return nullptr;
    }
    return std::unique_ptr<RecordWriter>(
        new RecordWriter(std::move(out), format.record_size, options));
}

RecordWriter::~RecordWriter()
{
    finish();
}

void
RecordWriter::add(const char *record)
{
    const std::uint32_t crc = crc32(record, record_size_ - 4);
    const char *crc_bytes = reinterpret_cast<const char *>(&crc);
    std::lock_guard<std::mutex> lock(mutex_);
    pending_.insert(pending_.end(), record, record + record_size_ - 4);
    pending_.insert(pending_.end(), crc_bytes, crc_bytes + sizeof crc);
    if (pending_.size() >= batch_bytes_)
        flushLocked();
}

void
RecordWriter::flushLocked()
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
RecordWriter::finish()
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
RecordWriter::ok()
{
    std::lock_guard<std::mutex> lock(mutex_);
    return !failed_;
}

} // namespace encore::campaign
