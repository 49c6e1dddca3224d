#include "campaign/tally_store.h"

namespace encore::campaign {

namespace {

constexpr RecordFormat kFormat{"ENCTALLY", kTallyStoreVersion,
                               kTallyStoreHeaderSize, kTallyRecordSize,
                               "tally table"};

/// A record's field layout (see the table in tally_store.h).
template <typename Record, typename Field>
void
recordFields(Record &record, Field field)
{
    field(0, record.key);
    field(8, record.subset_hash);
    field(16, record.subset_count);
    for (std::size_t i = 0; i < kTallyOutcomeSlots; ++i)
        field(24 + i * 8, record.counts[i]);
}

} // namespace

std::optional<std::string>
readTallyStore(const std::string &path, TallyContents &out)
{
    out = TallyContents{};
    // A record whose outcome counts do not add up to its subset is
    // inconsistent: it ends the trusted prefix.
    const auto record = [&](const char *bytes) {
        TallyRecord decoded;
        recordFields(decoded, FieldReader{bytes});
        std::uint64_t total = 0;
        for (const std::uint64_t count : decoded.counts)
            total += count;
        if (total != decoded.subset_count)
            return false;
        out.records.push_back(decoded);
        return true;
    };
    return readRecordFile(path, kFormat, nullptr, record, out);
}

std::unordered_map<std::uint64_t, TallyRecord>
latestTallies(const TallyContents &contents)
{
    std::unordered_map<std::uint64_t, TallyRecord> latest;
    for (const TallyRecord &record : contents.records)
        latest[record.key] = record;
    return latest;
}

std::optional<std::string>
createTallyStore(const std::string &path)
{
    const char header[kTallyStoreHeaderSize] = {};
    return createRecordFile(path, kFormat, header);
}

std::optional<std::string>
appendTallyRecords(const std::string &path, const TallyContents &contents,
                   const std::vector<TallyRecord> &records)
{
    // One append per sweep point: no flusher thread.
    std::string error;
    const auto writer = RecordWriter::append(
        path, kFormat, contents,
        {.flush_interval = std::chrono::milliseconds(0)}, &error);
    if (!writer)
        return error;
    char bytes[kTallyRecordSize] = {};
    for (const TallyRecord &record : records) {
        recordFields(record, FieldWriter{bytes});
        writer->add(bytes);
    }
    if (!writer->finish())
        return "write to tally table '" + path + "' failed";
    return std::nullopt;
}

} // namespace encore::campaign
