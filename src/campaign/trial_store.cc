#include "campaign/trial_store.h"

#include <algorithm>

namespace encore::campaign {

namespace {

constexpr RecordFormat kFormat{"ENCTRIAL", kTrialStoreVersion,
                               kTrialStoreHeaderSize, kTrialRecordSize,
                               "trial store"};

/// The header's field layout (see the table in trial_store.h).
template <typename Header, typename Field>
void
headerFields(Header &header, Field field)
{
    field(16, header.config_fingerprint);
    field(24, header.module_hash);
    field(32, header.seed);
    field(40, header.total_trials);
    field(48, header.shard_index);
    field(52, header.shard_count);
    field(56, header.snapshot_stride);
    field(64, header.snapshot_byte_budget);
    field(72, header.snapshot_page_bytes);
    field(76, header.fault_model_id);
    field(80, header.detector_id);
}

/// A record's field layout.
template <typename Record, typename Field>
void
recordFields(Record &record, Field field)
{
    field(0, record.trial);
    field(8, record.outcome);
    field(12, record.aux);
}

} // namespace

std::optional<std::string>
readTrialStore(const std::string &path, StoreContents &out)
{
    out = StoreContents{};
    const auto header = [&](const char *bytes) -> std::optional<std::string> {
        headerFields(out.header, FieldReader{bytes});
        if (out.header.shard_index < out.header.shard_count)
            return std::nullopt;
        return "trial store '" + path + "' declares shard " +
               std::to_string(out.header.shard_index) + "/" +
               std::to_string(out.header.shard_count) +
               "; the shard index must be below a non-zero shard count";
    };
    // A CRC-valid record whose trial index is out of range belongs to
    // some other (longer) campaign: it ends the trusted prefix.
    const auto record = [&](const char *bytes) {
        TrialRecord decoded;
        recordFields(decoded, FieldReader{bytes});
        if (decoded.trial >= out.header.total_trials)
            return false;
        out.records.push_back(decoded);
        return true;
    };
    return readRecordFile(path, kFormat, header, record, out);
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

std::unique_ptr<TrialStoreWriter>
TrialStoreWriter::create(const std::string &path,
                         const StoreHeader &header,
                         const Options &options, std::string *error)
{
    char bytes[kTrialStoreHeaderSize] = {};
    headerFields(header, FieldWriter{bytes});
    if (const auto err = createRecordFile(path, kFormat, bytes)) {
        if (error)
            *error = *err;
        return nullptr;
    }
    StoreContents created;
    created.valid_bytes = kTrialStoreHeaderSize;
    return append(path, created, options, error);
}

std::unique_ptr<TrialStoreWriter>
TrialStoreWriter::append(const std::string &path,
                         const StoreContents &contents,
                         const Options &options, std::string *error)
{
    auto writer =
        RecordWriter::append(path, kFormat, contents, options, error);
    return std::unique_ptr<TrialStoreWriter>(
        writer ? new TrialStoreWriter(std::move(writer)) : nullptr);
}

void
TrialStoreWriter::add(std::uint64_t trial, std::uint32_t outcome,
                      std::uint32_t aux)
{
    const TrialRecord record{trial, outcome, aux};
    char bytes[kTrialRecordSize] = {};
    recordFields(record, FieldWriter{bytes});
    writer_->add(bytes);
}

} // namespace encore::campaign
