// Concurrency invariants of the full cLSM stack under memtable rolls,
// flushes and compactions: gets never lose committed data, pointers swap
// safely under readers (§3.1), and operations stay atomic end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "src/baselines/factory.h"
#include "src/core/clsm_db.h"
#include "src/core/write_batch.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() : dir_("conc") {
    // Tiny memtable: constant rolls/flushes while the test runs, maximizing
    // pointer-swap interleavings (the beforeMerge/afterMerge windows).
    options_.write_buffer_size = 128 * 1024;
    options_.target_file_size = 128 * 1024;
    DB* db = nullptr;
    Status s = ClsmDb::Open(options_, dir_.path() + "/db", &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  ScratchDir dir_;
  Options options_;
  std::unique_ptr<DB> db_;
};

// Read-your-writes across component boundaries: a reader that wrote key k
// must find it, no matter which component it has migrated to.
TEST_F(ConcurrencyTest, ReadYourWritesAcrossRolls) {
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 8000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      WriteOptions wo;
      ReadOptions ro;
      std::string value(200, static_cast<char>('a' + t));
      for (int i = 0; i < kKeysPerThread && !failed.load(); i++) {
        std::string key = "t" + std::to_string(t) + "-" + std::to_string(i);
        if (!db_->Put(wo, key, value).ok()) {
          failed = true;
          break;
        }
        std::string got;
        Status s = db_->Get(ro, key, &got);
        if (!s.ok() || got != value) {
          failed = true;
        }
        // Occasionally re-check a much older key (now likely on disk).
        if (i > 1000 && (i % 100) == 0) {
          std::string old_key = "t" + std::to_string(t) + "-" + std::to_string(i - 1000);
          s = db_->Get(ro, old_key, &got);
          if (!s.ok() || got != value) {
            failed = true;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load()) << "a committed write became unreadable during a roll";
}

// No committed write is ever lost: after a heavy concurrent write phase and
// full maintenance, every key is present with its final value.
TEST_F(ConcurrencyTest, NoLostUpdatesUnderRolls) {
  constexpr int kThreads = 8;
  constexpr int kKeys = 4000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      WriteOptions wo;
      for (int i = 0; i < kKeys; i++) {
        // All threads write all keys; last writer wins, any value of the
        // right shape is acceptable.
        db_->Put(wo, "shared-" + std::to_string(i),
                 "from-" + std::to_string(t) + "-" + std::to_string(i));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  db_->WaitForMaintenance();
  ReadOptions ro;
  for (int i = 0; i < kKeys; i++) {
    std::string v;
    ASSERT_TRUE(db_->Get(ro, "shared-" + std::to_string(i), &v).ok()) << i;
    EXPECT_EQ(0u, v.find("from-"));
    EXPECT_NE(std::string::npos, v.find("-" + std::to_string(i)));
  }
}

// Scans running concurrently with writers and rolls must always observe a
// consistent snapshot: for the invariant pair (x, y) maintained equal via
// batches, every scan sees x == y.
TEST_F(ConcurrencyTest, ScansDuringRollsStayConsistent) {
  WriteOptions wo;
  {
    WriteBatch init;
    init.Put("inv-x", "0");
    init.Put("inv-y", "0");
    ASSERT_TRUE(db_->Write(wo, &init).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::thread writer([&] {
    for (int i = 1; !stop.load(); i++) {
      WriteBatch batch;
      batch.Put("inv-x", std::to_string(i));
      batch.Put("inv-y", std::to_string(i));
      db_->Write(wo, &batch);
      // Interleave filler puts to force rolls mid-stream.
      db_->Put(wo, "filler-" + std::to_string(i % 5000), std::string(300, 'f'));
    }
  });

  for (int round = 0; round < 300 && !failed.load(); round++) {
    ReadOptions ro;
    std::unique_ptr<Iterator> iter(db_->NewIterator(ro));
    std::string x, y;
    for (iter->Seek("inv-"); iter->Valid() && iter->key().starts_with("inv-"); iter->Next()) {
      if (iter->key() == Slice("inv-x")) {
        x = iter->value().ToString();
      } else if (iter->key() == Slice("inv-y")) {
        y = iter->value().ToString();
      }
    }
    if (x != y) {
      failed = true;
    }
  }
  stop = true;
  writer.join();
  EXPECT_FALSE(failed.load()) << "scan observed a torn invariant pair";
}

// Gets must never block on the merge: while a flood of writes causes
// continuous rolls, a reader thread must keep completing operations.
TEST_F(ConcurrencyTest, GetsProgressDuringMerges) {
  WriteOptions wo;
  ASSERT_TRUE(db_->Put(wo, "probe", "value").ok());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> get_count{0};

  std::thread reader([&] {
    ReadOptions ro;
    std::string v;
    while (!stop.load()) {
      if (db_->Get(ro, "probe", &v).ok()) {
        get_count.fetch_add(1);
      }
    }
  });

  // Write enough to trigger dozens of rolls/flushes.
  for (int i = 0; i < 30000; i++) {
    ASSERT_TRUE(db_->Put(wo, "flood-" + std::to_string(i), std::string(128, 'w')).ok());
  }
  stop = true;
  reader.join();
  // On any functioning build this is hundreds of thousands; demand a floor
  // that a blocking implementation would miss by orders of magnitude.
  EXPECT_GT(get_count.load(), 1000u);
}

// Mixed full-API hammer: all operation types from all threads on a rolling
// store, checked only for crash/assert/corruption freedom plus basic sanity.
TEST_F(ConcurrencyTest, FullApiHammer) {
  constexpr int kThreads = 6;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      WriteOptions wo;
      ReadOptions ro;
      std::string v;
      for (int i = 0; i < 4000 && !stop.load(); i++) {
        std::string key = "h" + std::to_string((t * 7919 + i * 13) % 2000);
        switch (i % 5) {
          case 0:
            db_->Put(wo, key, "val-" + std::to_string(i));
            break;
          case 1:
            db_->Get(ro, key, &v);
            break;
          case 2: {
            std::unique_ptr<Iterator> iter(db_->NewIterator(ro));
            int n = 0;
            for (iter->Seek(key); iter->Valid() && n < 5; iter->Next()) {
              n++;
            }
            break;
          }
          case 3: {
            const Snapshot* snap = db_->GetSnapshot();
            ReadOptions rs;
            rs.snapshot = snap;
            db_->Get(rs, key, &v);
            db_->ReleaseSnapshot(snap);
            break;
          }
          case 4:
            db_->ReadModifyWrite(wo, key,
                                 [](const std::optional<Slice>& cur)
                                     -> std::optional<std::string> {
                                   return cur ? cur->ToString() + "+" : "base";
                                 });
            break;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_FALSE(failed.load());
  db_->WaitForMaintenance();
  std::string v;
  Status s = db_->Get(ReadOptions(), "h0", &v);
  EXPECT_TRUE(s.ok() || s.IsNotFound());
}

// Read-your-writes on every variant while batches run: one thread
// alternates Put("x", i) and Get("x") while others write two-key batches to
// other keys, and must read its own i every time. HyperLevelDB's concurrent
// Puts draw sequence numbers with an atomic increment while the writer
// queue's head publishes the batches; the two must never move the
// published sequence backward past a completed Put.
class VariantConcurrencyTest : public ::testing::TestWithParam<DbVariant> {
 protected:
  VariantConcurrencyTest() : dir_("conc-variant") {
    DB* db = nullptr;
    Status s = OpenDb(GetParam(), Options(), dir_.path() + "/db", &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  ScratchDir dir_;
  std::unique_ptr<DB> db_;
};

TEST_P(VariantConcurrencyTest, ReadOwnPutWhileBatchesRun) {
  constexpr int kBatchWriters = 3;
  constexpr int kRounds = 50000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kBatchWriters; t++) {
    writers.emplace_back([&, t] {
      WriteOptions wo;
      for (int i = 0; !stop.load(std::memory_order_relaxed); i++) {
        WriteBatch batch;
        const std::string suffix = std::to_string(t) + "-" + std::to_string(i % 1000);
        batch.Put("a" + suffix, "v");
        batch.Put("b" + suffix, "v");
        db_->Write(wo, &batch);
      }
    });
  }
  WriteOptions wo;
  ReadOptions ro;
  int stale = 0;
  std::string got;
  for (int i = 0; i < kRounds; i++) {
    const std::string mine = std::to_string(i);
    ASSERT_TRUE(db_->Put(wo, "x", mine).ok());
    if (!db_->Get(ro, "x", &got).ok() || got != mine) {
      stale++;
    }
  }
  stop = true;
  for (auto& th : writers) {
    th.join();
  }
  EXPECT_EQ(0, stale) << "reads that missed this thread's own last Put";
}

// Repeatable snapshots on every variant: while three threads Put k0-k2,
// two Gets of k0 under one snapshot read the same value. A variant that
// publishes a sequence number before the insert at that number is in the
// memtable lets the first read miss an entry the second one sees.
TEST_P(VariantConcurrencyTest, SnapshotReadsRepeat) {
  constexpr int kWriters = 3;
  constexpr int kSnapshots = 200000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; t++) {
    writers.emplace_back([&, t] {
      WriteOptions wo;
      for (int i = 0; !stop.load(std::memory_order_relaxed); i++) {
        db_->Put(wo, "k" + std::to_string(i % 3), std::to_string(t) + "-" + std::to_string(i));
      }
    });
  }
  int torn = 0;
  std::string first;
  std::string second;
  for (int i = 0; i < kSnapshots; i++) {
    const Snapshot* snap = db_->GetSnapshot();
    ReadOptions ro;
    ro.snapshot = snap;
    const Status s1 = db_->Get(ro, "k0", &first);
    const Status s2 = db_->Get(ro, "k0", &second);
    if (s1.ok() != s2.ok() || (s1.ok() && first != second)) {
      torn++;
    }
    db_->ReleaseSnapshot(snap);
  }
  stop = true;
  for (auto& th : writers) {
    th.join();
  }
  EXPECT_EQ(0, torn) << "snapshots whose two reads of k0 differed";
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantConcurrencyTest, ::testing::ValuesIn(AllVariants()),
                         [](const ::testing::TestParamInfo<DbVariant>& info) {
                           std::string name = VariantName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace clsm
