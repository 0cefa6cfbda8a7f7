// WAL v2 recovery semantics (DESIGN.md §3g): torn tails salvage, interior
// corruption refuses, v1 logs are refused by name (never salvaged), group
// commit fsyncs on its cadence, and quarantine preserves the crash debris
// byte-for-byte.

#include "storage/wal.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/models/pmc_mean.h"
#include "obs/metrics.h"
#include "storage/segment_store.h"
#include "util/buffer.h"
#include "util/fault_env.h"

namespace modelardb {
namespace {

std::vector<uint8_t> MakePayload(int tag, size_t size) {
  std::vector<uint8_t> payload(size);
  for (size_t i = 0; i < size; ++i) {
    payload[i] = static_cast<uint8_t>(tag * 131 + static_cast<int>(i));
  }
  return payload;
}

std::vector<uint8_t> EncodeV2Log(
    const std::vector<std::vector<uint8_t>>& payloads) {
  std::vector<uint8_t> file;
  for (const auto& p : payloads) EncodeWalBlockV2(p.data(), p.size(), &file);
  return file;
}

std::vector<uint8_t> EncodeV1Block(const std::vector<uint8_t>& payload) {
  BufferWriter writer;
  writer.WriteU32(kWalMagicV1);
  writer.WriteU32(static_cast<uint32_t>(payload.size()));
  writer.WriteRaw(payload.data(), payload.size());
  return writer.Finish();
}

Result<WalReadResult> Parse(const std::vector<uint8_t>& file) {
  return ReadWalBlocks(file.data(), file.size(), "test.log");
}

// The refusal every v1 log gets: NotImplemented, naming the format.
void ExpectV1Refusal(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kNotImplemented) << status;
  EXPECT_NE(status.ToString().find("v1"), std::string::npos) << status;
}

int64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

TEST(WalReaderTest, CleanLogRoundTrips) {
  std::vector<std::vector<uint8_t>> payloads = {
      MakePayload(1, 40), MakePayload(2, 0), MakePayload(3, 200)};
  std::vector<uint8_t> file = EncodeV2Log(payloads);
  auto result = Parse(file);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(result->torn_tail);
  EXPECT_EQ(result->valid_bytes, file.size());
  ASSERT_EQ(result->blocks.size(), payloads.size());
  for (size_t i = 0; i < payloads.size(); ++i) {
    const WalBlockRef& block = result->blocks[i];
    ASSERT_EQ(block.payload_size, payloads[i].size());
    EXPECT_TRUE(std::equal(payloads[i].begin(), payloads[i].end(),
                           file.begin() + block.payload_offset));
  }
}

TEST(WalReaderTest, TruncationAtEveryByteSalvagesThePrefix) {
  // The torn-tail property: a log cut at ANY byte offset parses OK and
  // yields exactly the whole blocks before the cut — never Corruption,
  // never a partial block.
  std::vector<std::vector<uint8_t>> payloads = {
      MakePayload(1, 33), MakePayload(2, 57), MakePayload(3, 12),
      MakePayload(4, 90)};
  std::vector<uint8_t> file = EncodeV2Log(payloads);
  // Block end offsets, in order.
  std::vector<size_t> boundaries;
  {
    auto clean = Parse(file);
    ASSERT_TRUE(clean.ok());
    for (const WalBlockRef& b : clean->blocks) {
      boundaries.push_back(b.payload_offset + b.payload_size);
    }
  }
  for (size_t cut = 0; cut <= file.size(); ++cut) {
    std::vector<uint8_t> truncated(file.begin(), file.begin() + cut);
    auto result = Parse(truncated);
    ASSERT_TRUE(result.ok()) << "cut at " << cut << ": " << result.status();
    size_t whole = 0;
    size_t valid = 0;
    for (size_t b : boundaries) {
      if (b <= cut) {
        ++whole;
        valid = b;
      }
    }
    EXPECT_EQ(result->blocks.size(), whole) << "cut at " << cut;
    EXPECT_EQ(result->valid_bytes, valid) << "cut at " << cut;
    EXPECT_EQ(result->torn_tail, cut != valid) << "cut at " << cut;
  }
}

TEST(WalReaderTest, InteriorBitFlipIsCorruption) {
  std::vector<std::vector<uint8_t>> payloads = {
      MakePayload(1, 50), MakePayload(2, 50), MakePayload(3, 50)};
  std::vector<uint8_t> file = EncodeV2Log(payloads);
  auto clean = Parse(file);
  ASSERT_TRUE(clean.ok());
  // Flip one payload bit in the FIRST block: valid blocks follow, so the
  // file rotted — replaying past it would serve wrong data.
  std::vector<uint8_t> flipped = file;
  flipped[clean->blocks[0].payload_offset + 10] ^= 0x04;
  auto result = Parse(flipped);
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
  // Same for a flip in the second block's header magic.
  flipped = file;
  flipped[clean->blocks[1].offset] ^= 0x01;
  result = Parse(flipped);
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(WalReaderTest, TailBitFlipSalvages) {
  std::vector<std::vector<uint8_t>> payloads = {
      MakePayload(1, 50), MakePayload(2, 50), MakePayload(3, 50)};
  std::vector<uint8_t> file = EncodeV2Log(payloads);
  auto clean = Parse(file);
  ASSERT_TRUE(clean.ok());
  const WalBlockRef& last = clean->blocks[2];
  std::vector<uint8_t> flipped = file;
  flipped[last.payload_offset + 25] ^= 0x80;
  auto result = Parse(flipped);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->blocks.size(), 2u);
  EXPECT_TRUE(result->torn_tail);
  EXPECT_EQ(result->valid_bytes, last.offset);
}

TEST(WalReaderTest, CrcFieldFlipIsDamageToo) {
  // The CRC field itself is not covered by the CRC; flipping it must still
  // invalidate the block (the stored and computed sums no longer match).
  std::vector<std::vector<uint8_t>> payloads = {MakePayload(1, 50),
                                                MakePayload(2, 50)};
  std::vector<uint8_t> file = EncodeV2Log(payloads);
  auto clean = Parse(file);
  ASSERT_TRUE(clean.ok());
  // In the tail block: salvage.
  std::vector<uint8_t> flipped = file;
  flipped[clean->blocks[1].offset + 8] ^= 0x10;  // CRC field, bytes 8-11.
  auto result = Parse(flipped);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->blocks.size(), 1u);
  EXPECT_TRUE(result->torn_tail);
  // In the first block with a valid successor: corruption.
  flipped = file;
  flipped[clean->blocks[0].offset + 8] ^= 0x10;
  EXPECT_EQ(Parse(flipped).status().code(), StatusCode::kCorruption);
}

TEST(WalReaderTest, V1BlocksStillReadable) {
  // v1 blocks carry no checksum and are no longer readable: a v1 log is
  // refused by name, never replayed.
  std::vector<uint8_t> file = EncodeV1Block(MakePayload(1, 30));
  std::vector<uint8_t> second = EncodeV1Block(MakePayload(2, 45));
  file.insert(file.end(), second.begin(), second.end());
  ExpectV1Refusal(Parse(file).status());
}

TEST(WalReaderTest, MixedV1ThenV2Log) {
  // v2 blocks appended after a v1 history do not make the log readable.
  std::vector<uint8_t> file = EncodeV1Block(MakePayload(1, 30));
  EncodeWalBlockV2(MakePayload(2, 60).data(), 60, &file);
  ExpectV1Refusal(Parse(file).status());
}

TEST(WalReaderTest, V1TruncatedTailSalvages) {
  // A v1 log with a truncated last block is refused too: it must not be
  // mistaken for a v2 log with a torn tail and salvaged.
  std::vector<uint8_t> file = EncodeV1Block(MakePayload(1, 30));
  std::vector<uint8_t> partial = EncodeV1Block(MakePayload(2, 40));
  file.insert(file.end(), partial.begin(), partial.end() - 11);
  ExpectV1Refusal(Parse(file).status());
}

TEST(WalWriterTest, GroupCommitFsyncCadence) {
  auto dir = std::filesystem::temp_directory_path() /
             ("mdb_wal_gc_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const int64_t fsyncs_before = CounterValue("modelardb_wal_fsyncs_total");
  const int64_t grouped_before =
      CounterValue("modelardb_wal_group_committed_blocks_total");
  {
    WalWriterOptions options;
    options.sync_policy = WalSyncPolicy::kEveryNBlocks;
    options.sync_every_n_blocks = 4;
    auto writer =
        *WalWriter::Open(Env::Default(), (dir / "gc.log").string(), options);
    std::vector<uint8_t> payload = MakePayload(7, 20);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(writer->AppendBlock(payload.data(), payload.size()).ok());
    }
    // 8 blocks, N=4: exactly two barriers, each committing a group of 4.
    EXPECT_EQ(CounterValue("modelardb_wal_fsyncs_total") - fsyncs_before, 2);
    EXPECT_EQ(CounterValue("modelardb_wal_group_committed_blocks_total") -
                  grouped_before,
              8);
    ASSERT_TRUE(writer->Close().ok());
  }
  {
    const int64_t before = CounterValue("modelardb_wal_fsyncs_total");
    WalWriterOptions options;
    options.sync_policy = WalSyncPolicy::kNone;
    auto writer =
        *WalWriter::Open(Env::Default(), (dir / "none.log").string(), options);
    std::vector<uint8_t> payload = MakePayload(8, 20);
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(writer->AppendBlock(payload.data(), payload.size()).ok());
    }
    EXPECT_EQ(CounterValue("modelardb_wal_fsyncs_total") - before, 0);
    ASSERT_TRUE(writer->Sync().ok());  // The explicit barrier.
    EXPECT_EQ(CounterValue("modelardb_wal_fsyncs_total") - before, 1);
    ASSERT_TRUE(writer->Close().ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(WalWriterTest, PoisonsAfterSyncFailure) {
  // After a failed barrier the tail is undefined; appending more blocks
  // would turn a salvageable tail into interior corruption, so the writer
  // must refuse (fsyncgate: a failed fsync is not retryable).
  auto dir = std::filesystem::temp_directory_path() /
             ("mdb_wal_poison_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  FaultInjectionEnv::Options fault_options;
  fault_options.fail_sync_at = 1;  // Op 0 = first append, op 1 = its sync.
  FaultInjectionEnv env(Env::Default(), fault_options);
  WalWriterOptions options;  // kEveryBlock.
  auto writer = *WalWriter::Open(&env, (dir / "wal.log").string(), options);
  std::vector<uint8_t> payload = MakePayload(9, 16);
  EXPECT_FALSE(writer->AppendBlock(payload.data(), payload.size()).ok());
  const int64_t ops_after_failure = env.ops();
  // Poisoned: later appends fail fast without touching the file.
  EXPECT_FALSE(writer->AppendBlock(payload.data(), payload.size()).ok());
  EXPECT_EQ(env.ops(), ops_after_failure);
  std::filesystem::remove_all(dir);
}

// --- SegmentStore-level recovery -----------------------------------------

class WalRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mdb_walrec_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  static Segment MakeSegment(int i) {
    Segment s;
    s.gid = 1;
    s.start_time = i * 1000;
    s.end_time = i * 1000 + 900;
    s.si = 100;
    s.mid = kMidPmcMean;
    float value = 1.5f * static_cast<float>(i);
    s.parameters.resize(sizeof(float));
    std::memcpy(s.parameters.data(), &value, sizeof(float));
    return s;
  }

  // One WAL block per flush.
  void WriteStore(const std::string& dir, int segments_per_flush,
                  int flushes) {
    SegmentStoreOptions options;
    options.directory = dir;
    auto store = *SegmentStore::Open(options);
    int next = 0;
    for (int f = 0; f < flushes; ++f) {
      for (int i = 0; i < segments_per_flush; ++i) {
        ASSERT_TRUE(store->Put(MakeSegment(next++)).ok());
      }
      ASSERT_TRUE(store->Flush().ok());
    }
  }

  static Result<std::unique_ptr<SegmentStore>> OpenDir(
      const std::string& dir) {
    SegmentStoreOptions options;
    options.directory = dir;
    return SegmentStore::Open(options);
  }

  static inline int counter_ = 0;
  std::filesystem::path dir_;
};

TEST_F(WalRecoveryTest, StoreSurvivesTruncationAtEveryByte) {
  // End-to-end torn-tail property: for EVERY cut offset the store opens,
  // serves exactly the segments of the whole blocks before the cut, and a
  // second open is clean (the repair is idempotent).
  const std::string source = (dir_ / "source").string();
  std::filesystem::create_directories(source);
  WriteStore(source, 3, 2);  // Two blocks of 3 segments each.
  std::ifstream in(source + "/segments.log", std::ios::binary);
  std::vector<uint8_t> file((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  in.close();
  auto clean = ReadWalBlocks(file.data(), file.size(), "segments.log");
  ASSERT_TRUE(clean.ok());
  ASSERT_EQ(clean->blocks.size(), 2u);
  const size_t boundary =
      clean->blocks[1].offset;  // End of the first block.

  for (size_t cut = 0; cut <= file.size(); ++cut) {
    const std::string trial =
        (dir_ / ("cut_" + std::to_string(cut))).string();
    std::filesystem::create_directories(trial);
    {
      std::ofstream out(trial + "/segments.log", std::ios::binary);
      out.write(reinterpret_cast<const char*>(file.data()),
                static_cast<std::streamsize>(cut));
    }
    const int64_t expected =
        cut >= file.size() ? 6 : (cut >= boundary ? 3 : 0);
    auto store = OpenDir(trial);
    ASSERT_TRUE(store.ok()) << "cut at " << cut << ": " << store.status();
    EXPECT_EQ((*store)->NumSegments(), expected) << "cut at " << cut;
    store->reset();  // Release before the idempotence reopen.
    auto again = OpenDir(trial);
    ASSERT_TRUE(again.ok()) << "cut at " << cut << ": " << again.status();
    EXPECT_EQ((*again)->NumSegments(), expected) << "cut at " << cut;
    EXPECT_FALSE((*again)->recovery_info().torn_tail) << "cut at " << cut;
    std::filesystem::remove_all(trial);
  }
}

TEST_F(WalRecoveryTest, QuarantinePreservesTornBytes) {
  WriteStore(dir_.string(), 3, 1);
  const std::string log = (dir_ / "segments.log").string();
  const auto clean_size = std::filesystem::file_size(log);
  std::vector<uint8_t> garbage = MakePayload(13, 37);
  {
    std::ofstream out(log, std::ios::binary | std::ios::app);
    out.write(reinterpret_cast<const char*>(garbage.data()),
              static_cast<std::streamsize>(garbage.size()));
  }
  const int64_t torn_before =
      CounterValue("modelardb_recovery_torn_tails_truncated_total");
  const int64_t quarantined_before =
      CounterValue("modelardb_recovery_quarantined_bytes_total");
  auto store = OpenDir(dir_.string());
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_EQ((*store)->NumSegments(), 3);
  EXPECT_TRUE((*store)->recovery_info().torn_tail);
  EXPECT_EQ((*store)->recovery_info().quarantined_bytes,
            static_cast<int64_t>(garbage.size()));
  EXPECT_EQ(
      CounterValue("modelardb_recovery_torn_tails_truncated_total") -
          torn_before,
      1);
  EXPECT_EQ(CounterValue("modelardb_recovery_quarantined_bytes_total") -
                quarantined_before,
            static_cast<int64_t>(garbage.size()));
  // The log shrank back to the valid prefix...
  EXPECT_EQ(std::filesystem::file_size(log), clean_size);
  // ...and the sidecar holds the debris byte-for-byte (forensics).
  std::ifstream side((*store)->CorruptSidecarPath(), std::ios::binary);
  std::vector<uint8_t> quarantined((std::istreambuf_iterator<char>(side)),
                                   std::istreambuf_iterator<char>());
  EXPECT_EQ(quarantined, garbage);
}

TEST_F(WalRecoveryTest, V1LogReplaysIntoTheStore) {
  // A log in the unchecksummed v1 format fails Open by name, and the file
  // is left as it was: neither quarantined nor truncated as a torn tail.
  BufferWriter payload;
  payload.WriteVarint(1);
  MakeSegment(0).SerializeTo(&payload);
  std::vector<uint8_t> block = EncodeV1Block(payload.Finish());
  const std::filesystem::path log = dir_ / "segments.log";
  {
    std::ofstream out(log.string(), std::ios::binary);
    out.write(reinterpret_cast<const char*>(block.data()),
              static_cast<std::streamsize>(block.size()));
  }
  auto store = OpenDir(dir_.string());
  ExpectV1Refusal(store.status());
  EXPECT_EQ(std::filesystem::file_size(log), block.size());
  EXPECT_FALSE(std::filesystem::exists(dir_ / "segments.log.corrupt"));
}

TEST_F(WalRecoveryTest, FaultInjectedStoreRecoversToWatermark) {
  // In-process kill -9: ingest under a FaultInjectionEnv, cut the power,
  // reopen with the real env — everything flushed under kEveryBlock before
  // the cut must be served.
  FaultInjectionEnv env(Env::Default(), {.seed = 3});
  int64_t acked = 0;
  {
    SegmentStoreOptions options;
    options.directory = dir_.string();
    options.env = &env;
    options.wal_sync_policy = WalSyncPolicy::kEveryBlock;
    auto store = *SegmentStore::Open(options);
    for (int f = 0; f < 5; ++f) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(store->Put(MakeSegment(f * 3 + i)).ok());
      }
      ASSERT_TRUE(store->Flush().ok());
      acked = (f + 1) * 3;
    }
    // Unflushed put: the destructor's best-effort flush may persist it,
    // the crash may eat it — either way recovery must serve >= watermark.
    ASSERT_TRUE(store->Put(MakeSegment(15)).ok());
  }
  ASSERT_TRUE(env.SimulateCrash().ok());
  auto store = OpenDir(dir_.string());
  ASSERT_TRUE(store.ok()) << store.status();
  EXPECT_GE((*store)->NumSegments(), acked);
}

}  // namespace
}  // namespace modelardb
