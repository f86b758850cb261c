#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/lsm/storage_engine.h"
#include "src/util/env.h"
#include "src/util/random.h"
#include "src/wal/async_logger.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

class WalTest : public ::testing::Test {
 protected:
  WalTest() : dir_("wal"), env_(Env::Default()) {}

  std::string FileName() const { return dir_.path() + "/wal.log"; }

  void WriteRecords(const std::vector<std::string>& records) {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(FileName(), &file).ok());
    log::Writer writer(file.get());
    for (const auto& r : records) {
      ASSERT_TRUE(writer.AddRecord(r).ok());
    }
    ASSERT_TRUE(file->Close().ok());
  }

  struct CountingReporter : public log::Reader::Reporter {
    size_t dropped = 0;
    void Corruption(size_t bytes, const Status& status) override { dropped += bytes; }
  };

  std::vector<std::string> ReadAll(CountingReporter* reporter = nullptr) {
    std::unique_ptr<SequentialFile> file;
    EXPECT_TRUE(env_->NewSequentialFile(FileName(), &file).ok());
    CountingReporter local;
    log::Reader reader(file.get(), reporter != nullptr ? reporter : &local, true, 0);
    std::vector<std::string> out;
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      out.push_back(record.ToString());
    }
    return out;
  }

  ScratchDir dir_;
  Env* env_;
};

TEST_F(WalTest, EmptyLog) {
  WriteRecords({});
  EXPECT_TRUE(ReadAll().empty());
}

TEST_F(WalTest, SmallRecordsRoundTrip) {
  std::vector<std::string> records = {"", "a", "hello world", std::string(100, 'x')};
  WriteRecords(records);
  EXPECT_EQ(records, ReadAll());
}

TEST_F(WalTest, FragmentedRecordsRoundTrip) {
  // Records larger than a 32 KiB block force FIRST/MIDDLE/LAST framing.
  Random rnd(301);
  std::vector<std::string> records;
  for (size_t n : {1000u, 32768u, 32769u, 100000u, 3u, 200000u}) {
    std::string r(n, '\0');
    for (size_t i = 0; i < n; i++) {
      r[i] = static_cast<char>(rnd.Next() % 256);
    }
    records.push_back(std::move(r));
  }
  WriteRecords(records);
  EXPECT_EQ(records, ReadAll());
}

TEST_F(WalTest, BlockBoundaryTrailer) {
  // A record ending within kHeaderSize bytes of a block boundary forces a
  // zero-filled trailer; the reader must skip it cleanly.
  std::vector<std::string> records;
  records.push_back(std::string(log::kBlockSize - log::kHeaderSize - 3, 'a'));
  records.push_back("tail");
  WriteRecords(records);
  EXPECT_EQ(records, ReadAll());
}

TEST_F(WalTest, ChecksumCorruptionDetected) {
  WriteRecords({"payload-one", "payload-two"});
  // Flip a byte inside the first record's payload.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, FileName(), &contents).ok());
  contents[log::kHeaderSize + 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFileSync(env_, contents, FileName()).ok());

  CountingReporter reporter;
  std::vector<std::string> out = ReadAll(&reporter);
  // On a checksum mismatch the reader cannot trust the corrupted record's
  // length field, so it conservatively drops the rest of the 32 KiB block —
  // taking the second record (same block) with it. What matters is that the
  // corruption is reported and no corrupt payload is returned.
  EXPECT_TRUE(out.empty());
  EXPECT_GT(reporter.dropped, 0u);
}

TEST_F(WalTest, CorruptionInOneBlockDoesNotPoisonNextBlock) {
  // First record fills block 0 (corrupted); second record lives in block 1
  // and must survive.
  std::vector<std::string> records;
  records.push_back(std::string(log::kBlockSize - log::kHeaderSize, 'a'));
  records.push_back("survivor");
  WriteRecords(records);
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, FileName(), &contents).ok());
  contents[log::kHeaderSize + 2] ^= 0x40;
  ASSERT_TRUE(WriteStringToFileSync(env_, contents, FileName()).ok());

  CountingReporter reporter;
  std::vector<std::string> out = ReadAll(&reporter);
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ("survivor", out[0]);
  EXPECT_GT(reporter.dropped, 0u);
}

TEST_F(WalTest, TornTailIsNotCorruption) {
  WriteRecords({"first", std::string(50000, 'z')});
  // Truncate mid-way through the second (fragmented) record, simulating a
  // crash during an asynchronous write.
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, FileName(), &contents).ok());
  contents.resize(contents.size() - 20000);
  ASSERT_TRUE(WriteStringToFileSync(env_, contents, FileName()).ok());

  CountingReporter reporter;
  std::vector<std::string> out = ReadAll(&reporter);
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ("first", out[0]);
  EXPECT_EQ(0u, reporter.dropped) << "a torn tail must not be reported as corruption";
}

TEST_F(WalTest, AsyncLoggerDrainsEverything) {
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(FileName(), &file).ok());
    AsyncLogger logger(std::move(file));
    for (int i = 0; i < 1000; i++) {
      logger.AddRecordAsync("record-" + std::to_string(i));
    }
    logger.Drain();
    // Destructor also drains; both paths must preserve every record.
    for (int i = 1000; i < 2000; i++) {
      logger.AddRecordAsync("record-" + std::to_string(i));
    }
  }
  std::vector<std::string> out = ReadAll();
  ASSERT_EQ(2000u, out.size());
  // Single producer: order preserved.
  for (int i = 0; i < 2000; i++) {
    EXPECT_EQ("record-" + std::to_string(i), out[i]);
  }
}

TEST_F(WalTest, AsyncLoggerSyncWaitsForDurability) {
  std::unique_ptr<WritableFile> file;
  ASSERT_TRUE(env_->NewWritableFile(FileName(), &file).ok());
  AsyncLogger logger(std::move(file));
  logger.AddRecordAsync("async-1");
  ASSERT_TRUE(logger.AddRecordSync("sync-1").ok());
  // After a sync write returns, both records are on disk even without
  // closing the logger.
  std::vector<std::string> out = ReadAll();
  ASSERT_EQ(2u, out.size());
  EXPECT_EQ("async-1", out[0]);
  EXPECT_EQ("sync-1", out[1]);
}

TEST_F(WalTest, ConcurrentProducers) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2000;
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(FileName(), &file).ok());
    AsyncLogger logger(std::move(file));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; i++) {
          logger.AddRecordAsync(std::to_string(t) + ":" + std::to_string(i));
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
  }
  std::vector<std::string> out = ReadAll();
  EXPECT_EQ(static_cast<size_t>(kThreads * kPerThread), out.size());
  // Totality: every record appears exactly once.
  std::set<std::string> unique(out.begin(), out.end());
  EXPECT_EQ(out.size(), unique.size());
}

TEST_F(WalTest, MultiOpRecordRoundTrip) {
  // Atomic batches pack several operations into one WAL record.
  std::string rec;
  EncodeWalRecord(&rec, 1, kTypeValue, "a", "va");
  EncodeWalRecord(&rec, 2, kTypeDeletion, "b", "");
  EncodeWalRecord(&rec, 3, kTypeValue, "c", "vc");

  Slice rest = rec;
  SequenceNumber seq;
  ValueType type;
  Slice key, value;
  ASSERT_TRUE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
  EXPECT_EQ(1u, seq);
  EXPECT_EQ("a", key.ToString());
  ASSERT_TRUE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
  EXPECT_EQ(kTypeDeletion, type);
  EXPECT_EQ("b", key.ToString());
  ASSERT_TRUE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
  EXPECT_EQ(3u, seq);
  EXPECT_EQ("vc", value.ToString());
  EXPECT_TRUE(rest.empty());

  // Decoding one op of a multi-op record leaves the others to decode.
  rest = rec;
  ASSERT_TRUE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
  EXPECT_EQ(1u, seq);
  EXPECT_FALSE(rest.empty());
}

TEST_F(WalTest, WalRecordEncodingRoundTrip) {
  std::string rec;
  EncodeWalRecord(&rec, 12345, kTypeValue, "the-key", "the-value");
  SequenceNumber seq;
  ValueType type;
  Slice key, value;
  Slice rest = rec;
  ASSERT_TRUE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(12345u, seq);
  EXPECT_EQ(kTypeValue, type);
  EXPECT_EQ("the-key", key.ToString());
  EXPECT_EQ("the-value", value.ToString());

  rec.clear();
  EncodeWalRecord(&rec, 1, kTypeDeletion, "k", "");
  rest = rec;
  ASSERT_TRUE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
  EXPECT_EQ(kTypeDeletion, type);
  EXPECT_TRUE(value.empty());

  // Malformed input is rejected, not misparsed: a lone byte, nothing, and
  // every truncation of a record.
  rest = Slice("x");
  EXPECT_FALSE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
  rest = Slice("");
  EXPECT_FALSE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
  for (size_t n = 0; n < rec.size(); n++) {
    rest = Slice(rec.data(), n);
    EXPECT_FALSE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value)) << n;
  }
  // Trailing garbage is left over after the op and fails as the next one.
  rec.push_back('z');
  rest = rec;
  ASSERT_TRUE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
  EXPECT_EQ("z", rest.ToString());
  EXPECT_FALSE(DecodeWalOpFrom(&rest, &seq, &type, &key, &value));
}

}  // namespace
}  // namespace clsm
