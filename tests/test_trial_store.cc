/**
 * @file
 * Trial-store unit tests: round trips, crash-recovery of torn and
 * CRC-corrupt tails, and rejection of files that are not (usable)
 * trial stores.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "campaign/trial_store.h"
#include "support/checksum.h"

namespace encore::campaign {
namespace {

std::string
tempStorePath(const std::string &name)
{
    const std::string path =
        (std::filesystem::path(::testing::TempDir()) / name).string();
    std::filesystem::remove(path);
    return path;
}

StoreHeader
sampleHeader(std::uint64_t trials = 100)
{
    StoreHeader header;
    header.config_fingerprint = 0xfeedface12345678ULL;
    header.module_hash = 0x0123456789abcdefULL;
    header.seed = 42;
    header.total_trials = trials;
    header.shard_index = 0;
    header.shard_count = 1;
    header.snapshot_stride = 65536;
    header.snapshot_byte_budget = 64ULL << 20;
    header.snapshot_page_bytes = 512;
    header.fault_model_id = 2; // cf-branch
    header.detector_id = 1;    // replay
    return header;
}

void
writeRecords(const std::string &path, const StoreHeader &header,
             const std::vector<TrialRecord> &records)
{
    TrialStoreWriter::Options options;
    options.flush_interval = std::chrono::milliseconds(0);
    std::string error;
    auto writer = TrialStoreWriter::create(path, header, options, &error);
    ASSERT_NE(writer, nullptr) << error;
    for (const TrialRecord &record : records)
        writer->add(record.trial, record.outcome, record.aux);
    EXPECT_TRUE(writer->finish());
}

void
appendBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/// Overwrites one u32 header field and re-seals the header CRC, so
/// the field's own check (not the CRC check) is what trips.
void
patchHeaderField(const std::string &path, std::size_t offset,
                 std::uint32_t value)
{
    std::fstream file(path, std::ios::binary | std::ios::in |
                                std::ios::out);
    char header[kTrialStoreHeaderSize];
    file.read(header, sizeof header);
    std::memcpy(header + offset, &value, sizeof value);
    const std::uint32_t crc = crc32(header, 84);
    std::memcpy(header + 84, &crc, sizeof crc);
    file.seekp(0);
    file.write(header, sizeof header);
}

void
corruptByte(const std::string &path, std::uint64_t offset)
{
    std::fstream file(path, std::ios::binary | std::ios::in |
                                std::ios::out);
    file.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    file.seekp(static_cast<std::streamoff>(offset));
    file.write(&byte, 1);
}

TEST(TrialStore, RoundTripPreservesHeaderAndRecords)
{
    const std::string path = tempStorePath("round_trip.trials");
    const StoreHeader header = sampleHeader(10);
    // Out-of-order trial indices: file order is completion order, not
    // trial order. Trial 7 carries a replay-cost aux payload.
    const std::vector<TrialRecord> records = {
        {3, 1, 0}, {0, 0, 0}, {7, 2, 512}, {1, 6, 0}};
    writeRecords(path, header, records);

    StoreContents contents;
    const auto err = readTrialStore(path, contents);
    ASSERT_FALSE(err.has_value()) << *err;
    EXPECT_EQ(contents.header.config_fingerprint,
              header.config_fingerprint);
    EXPECT_EQ(contents.header.module_hash, header.module_hash);
    EXPECT_EQ(contents.header.seed, header.seed);
    EXPECT_EQ(contents.header.total_trials, header.total_trials);
    EXPECT_EQ(contents.header.shard_index, header.shard_index);
    EXPECT_EQ(contents.header.shard_count, header.shard_count);
    EXPECT_EQ(contents.header.snapshot_stride, header.snapshot_stride);
    EXPECT_EQ(contents.header.snapshot_byte_budget,
              header.snapshot_byte_budget);
    EXPECT_EQ(contents.header.snapshot_page_bytes,
              header.snapshot_page_bytes);
    EXPECT_EQ(contents.header.fault_model_id, header.fault_model_id);
    EXPECT_EQ(contents.header.detector_id, header.detector_id);
    ASSERT_EQ(contents.records.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(contents.records[i].trial, records[i].trial);
        EXPECT_EQ(contents.records[i].outcome, records[i].outcome);
        EXPECT_EQ(contents.records[i].aux, records[i].aux);
    }
    EXPECT_EQ(contents.valid_bytes,
              kTrialStoreHeaderSize + records.size() * kTrialRecordSize);
    EXPECT_EQ(contents.dropped_bytes, 0u);
}

/// Appends `value`'s host-endian bytes to `bytes`.
template <typename T>
void
appendField(std::string &bytes, T value)
{
    bytes.append(reinterpret_cast<const char *>(&value), sizeof value);
}

/// Appends the CRC32 of everything from `from` on.
void
appendCrc(std::string &bytes, std::size_t from)
{
    appendField<std::uint32_t>(
        bytes, crc32(bytes.data() + from, bytes.size() - from));
}

TEST(TrialStore, OnDiskBytesFollowTheLayoutTable)
{
    // Bytes assembled by hand from the layout table in trial_store.h,
    // so a framing change that reader and writer share still shows.
    const std::string path = tempStorePath("layout.trials");
    const StoreHeader header = sampleHeader(10);
    writeRecords(path, header, {{3, 1, 0}, {7, 2, 512}});

    std::string want = "ENCTRIAL";
    appendField<std::uint32_t>(want, kTrialStoreVersion);
    appendField<std::uint32_t>(want, kTrialRecordSize);
    appendField<std::uint64_t>(want, header.config_fingerprint);
    appendField<std::uint64_t>(want, header.module_hash);
    appendField<std::uint64_t>(want, header.seed);
    appendField<std::uint64_t>(want, header.total_trials);
    appendField<std::uint32_t>(want, header.shard_index);
    appendField<std::uint32_t>(want, header.shard_count);
    appendField<std::uint64_t>(want, header.snapshot_stride);
    appendField<std::uint64_t>(want, header.snapshot_byte_budget);
    appendField<std::uint32_t>(want, header.snapshot_page_bytes);
    appendField<std::uint32_t>(want, header.fault_model_id);
    appendField<std::uint32_t>(want, header.detector_id);
    appendCrc(want, 0);
    ASSERT_EQ(want.size(), kTrialStoreHeaderSize);
    for (const TrialRecord &record :
         std::vector<TrialRecord>{{3, 1, 0}, {7, 2, 512}}) {
        const std::size_t start = want.size();
        appendField<std::uint64_t>(want, record.trial);
        appendField<std::uint32_t>(want, record.outcome);
        appendField<std::uint32_t>(want, record.aux);
        appendCrc(want, start);
    }
    ASSERT_EQ(want.size(), kTrialStoreHeaderSize + 2 * kTrialRecordSize);

    std::ifstream in(path, std::ios::binary);
    const std::string got((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    EXPECT_EQ(got, want);
}

TEST(TrialStore, TornTailIsDroppedNotFatal)
{
    const std::string path = tempStorePath("torn_tail.trials");
    writeRecords(path, sampleHeader(), {{0, 1}, {1, 2}});
    // A kill -9 mid-write leaves a partial record at the tail.
    appendBytes(path, "torn!");

    StoreContents contents;
    const auto err = readTrialStore(path, contents);
    ASSERT_FALSE(err.has_value()) << *err;
    EXPECT_EQ(contents.records.size(), 2u);
    EXPECT_EQ(contents.dropped_bytes, 5u);
    EXPECT_EQ(contents.valid_bytes,
              kTrialStoreHeaderSize + 2 * kTrialRecordSize);
}

TEST(TrialStore, CorruptRecordCrcTruncatesFromThatRecord)
{
    const std::string path = tempStorePath("corrupt_crc.trials");
    writeRecords(path, sampleHeader(), {{0, 1}, {1, 2}, {2, 3}});
    // Flip a payload byte of the middle record: it and everything
    // after it (even intact records) is dropped — records after a
    // corrupt region cannot be trusted to be aligned.
    corruptByte(path, kTrialStoreHeaderSize + kTrialRecordSize + 2);

    StoreContents contents;
    const auto err = readTrialStore(path, contents);
    ASSERT_FALSE(err.has_value()) << *err;
    ASSERT_EQ(contents.records.size(), 1u);
    EXPECT_EQ(contents.records[0].trial, 0u);
    EXPECT_EQ(contents.dropped_bytes, 2 * kTrialRecordSize);
    EXPECT_EQ(contents.valid_bytes,
              kTrialStoreHeaderSize + kTrialRecordSize);
}

TEST(TrialStore, OutOfRangeTrialIndexTreatedAsTorn)
{
    const std::string path = tempStorePath("bad_index.trials");
    // total_trials == 5, but a record claims trial 99: a CRC-valid
    // record from some other (longer) campaign must not be trusted.
    writeRecords(path, sampleHeader(5), {{1, 1}, {99, 1}});

    StoreContents contents;
    const auto err = readTrialStore(path, contents);
    ASSERT_FALSE(err.has_value()) << *err;
    ASSERT_EQ(contents.records.size(), 1u);
    EXPECT_EQ(contents.records[0].trial, 1u);
    EXPECT_EQ(contents.dropped_bytes, kTrialRecordSize);
}

TEST(TrialStore, AppendTruncatesTornTailThenExtends)
{
    const std::string path = tempStorePath("append.trials");
    writeRecords(path, sampleHeader(), {{0, 1}, {1, 2}});
    appendBytes(path, "partial-record");

    StoreContents contents;
    ASSERT_FALSE(readTrialStore(path, contents).has_value());
    ASSERT_GT(contents.dropped_bytes, 0u);

    TrialStoreWriter::Options options;
    options.flush_interval = std::chrono::milliseconds(0);
    std::string error;
    auto writer =
        TrialStoreWriter::append(path, contents, options, &error);
    ASSERT_NE(writer, nullptr) << error;
    writer->add(2, 3);
    EXPECT_TRUE(writer->finish());

    StoreContents reread;
    ASSERT_FALSE(readTrialStore(path, reread).has_value());
    ASSERT_EQ(reread.records.size(), 3u);
    EXPECT_EQ(reread.records[2].trial, 2u);
    EXPECT_EQ(reread.records[2].outcome, 3u);
    EXPECT_EQ(reread.dropped_bytes, 0u);
}

TEST(TrialStore, MissingFileIsAnError)
{
    StoreContents contents;
    const auto err =
        readTrialStore(tempStorePath("never_written.trials"), contents);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("cannot open"), std::string::npos);
}

TEST(TrialStore, NonStoreFileIsAnError)
{
    const std::string path = tempStorePath("not_a_store.trials");
    std::ofstream(path) << "This is a full header's worth of text "
                           "(80+ bytes) that is definitely not a "
                           "trial store header..........";
    StoreContents contents;
    const auto err = readTrialStore(path, contents);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("bad magic"), std::string::npos);
}

TEST(TrialStore, ShortFileIsAnError)
{
    const std::string path = tempStorePath("short.trials");
    std::ofstream(path) << "ENCTRIAL";
    StoreContents contents;
    const auto err = readTrialStore(path, contents);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("shorter than a store header"),
              std::string::npos);
}

TEST(TrialStore, CorruptHeaderIsAnError)
{
    const std::string path = tempStorePath("bad_header.trials");
    writeRecords(path, sampleHeader(), {{0, 1}});
    corruptByte(path, 20); // inside the fingerprint field
    StoreContents contents;
    const auto err = readTrialStore(path, contents);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("corrupt header"), std::string::npos);
}

TEST(TrialStore, BadShardHeaderIsAnError)
{
    // CRC-valid headers whose shard coordinates own nothing: a zero
    // shard count (every ownership test would divide by it) and an
    // index at or past the count.
    const std::uint32_t shards[][2] = {{0, 0}, {3, 0}, {2, 2}, {7, 2}};
    for (const auto &[index, count] : shards) {
        const std::string path = tempStorePath("bad_shard.trials");
        writeRecords(path, sampleHeader(), {{0, 1}});
        patchHeaderField(path, 48, index);
        patchHeaderField(path, 52, count);
        StoreContents contents;
        const auto err = readTrialStore(path, contents);
        ASSERT_TRUE(err.has_value()) << index << "/" << count;
        EXPECT_NE(err->find("shard index must be below a non-zero "
                            "shard count"),
                  std::string::npos)
            << *err;
    }
}

TEST(TrialStore, WrongFormatVersionIsAnError)
{
    const std::string path = tempStorePath("bad_version.trials");
    writeRecords(path, sampleHeader(), {{0, 1}});
    patchHeaderField(path, 8, kTrialStoreVersion + 7);

    StoreContents contents;
    const auto err = readTrialStore(path, contents);
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("format version"), std::string::npos);
}

TEST(TrialStore, KeepFirstRecordPerTrialKeepsTheEarliest)
{
    std::vector<TrialRecord> records = {
        {5, 1, 10}, {2, 3, 0}, {5, 4, 20}, {2, 6, 0}, {9, 0, 0}};
    keepFirstRecordPerTrial(records);
    ASSERT_EQ(records.size(), 3u);
    EXPECT_EQ(records[0].trial, 2u);
    EXPECT_EQ(records[0].outcome, 3u);
    EXPECT_EQ(records[1].trial, 5u);
    EXPECT_EQ(records[1].outcome, 1u);
    EXPECT_EQ(records[1].aux, 10u);
    EXPECT_EQ(records[2].trial, 9u);
}

TEST(TrialStore, BatchedWritesAllLandByFinish)
{
    const std::string path = tempStorePath("batched.trials");
    TrialStoreWriter::Options options;
    options.flush_batch = 64;
    options.flush_interval = std::chrono::milliseconds(0);
    std::string error;
    auto writer = TrialStoreWriter::create(path, sampleHeader(1000),
                                           options, &error);
    ASSERT_NE(writer, nullptr) << error;
    for (std::uint64_t t = 0; t < 1000; ++t)
        writer->add(t, static_cast<std::uint32_t>(t % 7));
    EXPECT_TRUE(writer->ok());
    EXPECT_TRUE(writer->finish());

    StoreContents contents;
    ASSERT_FALSE(readTrialStore(path, contents).has_value());
    ASSERT_EQ(contents.records.size(), 1000u);
    for (std::uint64_t t = 0; t < 1000; ++t) {
        EXPECT_EQ(contents.records[t].trial, t);
        EXPECT_EQ(contents.records[t].outcome, t % 7);
    }
}

} // namespace
} // namespace encore::campaign
