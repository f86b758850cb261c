// Tests of the Algorithm-2 snapshot protocol: the timeCounter / Active-set
// / snapTime machinery and the serializability guarantees it provides,
// including the Figure 3 and Figure 4 race scenarios.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/core/clsm_db.h"
#include "src/core/write_batch.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

// Remembers the WAL's records-written count at its latest fsync.
class WalSyncCounter : public EventListener {
 public:
  void OnWalSync(const WalSyncInfo& info) override { records_.store(info.records); }
  uint64_t records() const { return records_.load(); }

 private:
  std::atomic<uint64_t> records_{0};
};

class SnapshotTest : public ::testing::Test {
 protected:
  SnapshotTest() : dir_("snap"), fault_env_(Env::Default()) {
    options_.write_buffer_size = 1 << 20;
    Reopen(options_, "db");
  }

  // Replaces db_ with a fresh store at <dir>/name opened with options.
  void Reopen(const Options& options, const std::string& name) {
    db_.reset();
    DB* db = nullptr;
    Status s = ClsmDb::Open(options, dir_.path() + "/" + name, &db);
    EXPECT_TRUE(s.ok()) << s.ToString();
    db_.reset(db);
  }

  ClsmDb* clsm() { return static_cast<ClsmDb*>(db_.get()); }
  uint64_t LastTs() { return std::stoull(db_->GetProperty("clsm.last-ts")); }

  ScratchDir dir_;
  FaultInjectionEnv fault_env_;  // outlives db_, which may run on it
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(SnapshotTest, ScanTimestampExcludesActivePuts) {
  // With no concurrent activity, a fresh scan timestamp equals the time
  // counter; after k puts it is at least k.
  WriteOptions wo;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db_->Put(wo, "k" + std::to_string(i), "v").ok());
  }
  SequenceNumber ts = clsm()->AcquireScanTimestampForTest();
  EXPECT_GE(ts, 10u);
}

TEST_F(SnapshotTest, SnapTimeNeverMovesBackward) {
  WriteOptions wo;
  SequenceNumber prev = 0;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db_->Put(wo, "k", "v" + std::to_string(i)).ok());
    SequenceNumber ts = clsm()->AcquireScanTimestampForTest();
    EXPECT_GE(ts, prev);
    prev = ts;
  }
}

TEST_F(SnapshotTest, SnapshotSeesAllPriorPuts) {
  // Sequential consistency of the handle: everything written before
  // GetSnapshot must be visible through it (the Figure 3 guarantee in the
  // absence of in-flight puts).
  WriteOptions wo;
  ReadOptions ro;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(wo, "key" + std::to_string(i), "v" + std::to_string(i)).ok());
    const Snapshot* snap = db_->GetSnapshot();
    ro.snapshot = snap;
    std::string value;
    Status s = db_->Get(ro, "key" + std::to_string(i), &value);
    ASSERT_TRUE(s.ok()) << "snapshot missed a completed put";
    EXPECT_EQ("v" + std::to_string(i), value);
    db_->ReleaseSnapshot(snap);
  }
}

// The Figure 3/4 serializability property, stress-tested against every kind
// of writer at once. Each batch writer keeps its own key pair equal
// (pair<w>-a == pair<w>-b) through atomic batches, which commit under the
// shared lock like puts; blind puts and RMW increments hit other keys. Every
// installed snapshot and every anonymous scan must see each pair equal — a
// view holding half a batch would be non-serializable. Runs in both getSnap
// modes, and checks on the way that an empty batch is a true no-op.
TEST_F(SnapshotTest, ConcurrentSnapshotsAreSerializable) {
  constexpr int kBatchWriters = 2;
  auto key_a = [](int w) { return "pair" + std::to_string(w) + "-a"; };
  auto key_b = [](int w) { return "pair" + std::to_string(w) + "-b"; };
  const RmwFunction increment = [](const std::optional<Slice>& cur) {
    return std::optional<std::string>(
        std::to_string((cur.has_value() ? std::stoll(cur->ToString()) : 0) + 1));
  };

  for (const bool linearizable : {false, true}) {
    SCOPED_TRACE(linearizable ? "linearizable" : "serializable");
    auto wal = std::make_shared<WalSyncCounter>();
    Options options = options_;
    options.linearizable_snapshots = linearizable;
    options.listeners.push_back(wal);
    Reopen(options, linearizable ? "linearizable" : "serializable");

    WriteOptions wo;
    WriteOptions sync_wo;
    sync_wo.sync = true;
    for (int w = 0; w < kBatchWriters; w++) {
      WriteBatch batch;
      batch.Put(key_a(w), "0");
      batch.Put(key_b(w), "0");
      ASSERT_TRUE(db_->Write(sync_wo, &batch).ok());
    }

    // An empty batch returns OK, draws no timestamp and logs no record: the
    // next synced record is the very next one the WAL writes.
    const uint64_t ts_before = LastTs();
    const uint64_t records_before = wal->records();
    WriteBatch empty;
    ASSERT_TRUE(db_->Write(sync_wo, &empty).ok());
    EXPECT_EQ(ts_before, LastTs());
    ASSERT_TRUE(db_->Put(sync_wo, "sync-marker", "v").ok());
    EXPECT_EQ(records_before + 1, wal->records()) << "the empty batch logged a WAL record";

    std::atomic<bool> stop{false};
    std::atomic<int> torn{0};
    std::atomic<int> errors{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kBatchWriters; w++) {
      writers.emplace_back([&, w] {
        for (int i = 1; i < 100000 && !stop.load(); i++) {
          WriteBatch batch;
          batch.Put(key_a(w), std::to_string(i));
          batch.Put(key_b(w), std::to_string(i));
          WriteBatch none;
          if (!db_->Write(wo, &batch).ok() || !db_->Write(wo, &none).ok()) {
            errors++;
          }
        }
      });
    }
    writers.emplace_back([&] {
      for (int i = 0; i < 100000 && !stop.load(); i++) {
        if (!db_->Put(wo, "put" + std::to_string(i % 64), std::to_string(i)).ok() ||
            !db_->ReadModifyWrite(wo, "rmw-counter", increment, nullptr).ok()) {
          errors++;
        }
      }
    });

    std::vector<std::thread> readers;
    for (int t = 0; t < 2; t++) {
      readers.emplace_back([&] {  // installed snapshots, point reads
        for (int round = 0; round < 300; round++) {
          const Snapshot* snap = db_->GetSnapshot();
          ReadOptions ro;
          ro.snapshot = snap;
          for (int w = 0; w < kBatchWriters; w++) {
            std::string va, vb;
            Status sa = db_->Get(ro, key_a(w), &va);
            Status sb = db_->Get(ro, key_b(w), &vb);
            if (!sa.ok() || !sb.ok() || va != vb) {
              torn++;
            }
          }
          db_->ReleaseSnapshot(snap);
        }
      });
    }
    readers.emplace_back([&] {  // anonymous-snapshot scans over the pairs
      for (int round = 0; round < 100; round++) {
        std::unique_ptr<Iterator> it(db_->NewIterator(ReadOptions()));
        std::vector<std::string> values;
        for (it->Seek("pair"); it->Valid() && it->key().starts_with("pair"); it->Next()) {
          values.push_back(it->value().ToString());
        }
        // Key order: pair0-a, pair0-b, pair1-a, ...
        if (values.size() != 2 * kBatchWriters) {
          torn++;
          continue;
        }
        for (int w = 0; w < kBatchWriters; w++) {
          if (values[2 * w] != values[2 * w + 1]) {
            torn++;
          }
        }
      }
    });
    for (auto& th : readers) {
      th.join();
    }
    stop = true;
    for (auto& th : writers) {
      th.join();
    }
    EXPECT_EQ(0, torn.load()) << "a snapshot observed a torn batch (serializability violation)";
    EXPECT_EQ(0, errors.load());
  }
}

// A synchronous batch parked in a slow fsync holds only the shared lock and
// its Active-set entry, like a sync put: other writers and serializable
// snapshots go on meanwhile, and the snapshots exclude the whole batch.
// (Batches used to take the lock exclusively, fsync included.)
TEST_F(SnapshotTest, SyncBatchInFsyncBlocksNeitherPutsNorSnapshots) {
  Options options = options_;
  options.env = &fault_env_;
  Reopen(options, "slow-fsync");
  const uint64_t ts0 = LastTs();

  fault_env_.DelaySyncs(300 * 1000);
  std::atomic<bool> write_returned{false};
  std::thread batcher([&] {
    WriteBatch batch;
    batch.Put("x", "1");
    batch.Put("y", "1");
    WriteOptions sync_wo;
    sync_wo.sync = true;
    EXPECT_TRUE(db_->Write(sync_wo, &batch).ok());
    write_returned = true;
  });
  // Once the batch holds its timestamps it is inside the commit, bound for
  // the delayed fsync.
  while (LastTs() < ts0 + 2) {
    std::this_thread::yield();
  }

  ASSERT_TRUE(db_->Put(WriteOptions(), "other", "v").ok());
  const Snapshot* snap = db_->GetSnapshot();
  EXPECT_FALSE(write_returned.load()) << "the put or the snapshot waited out the batch's fsync";
  ReadOptions ro;
  ro.snapshot = snap;
  std::string v;
  EXPECT_TRUE(db_->Get(ro, "x", &v).IsNotFound());
  EXPECT_TRUE(db_->Get(ro, "y", &v).IsNotFound());
  db_->ReleaseSnapshot(snap);

  batcher.join();
  fault_env_.Heal();
  EXPECT_TRUE(db_->Get(ReadOptions(), "y", &v).ok());
}

// Concurrent single-key puts vs snapshots: a snapshot must never observe a
// value that a later snapshot does not (monotone prefix property of the
// version chain under one writer per key).
TEST_F(SnapshotTest, SnapshotsObserveMonotonePrefix) {
  WriteOptions wo;
  ASSERT_TRUE(db_->Put(wo, "counter", "0").ok());
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 1; i < 200000 && !stop.load(); i++) {
      db_->Put(wo, "counter", std::to_string(i));
    }
  });

  long long prev = -1;
  for (int i = 0; i < 2000; i++) {
    const Snapshot* snap = db_->GetSnapshot();
    ReadOptions ro;
    ro.snapshot = snap;
    std::string v;
    ASSERT_TRUE(db_->Get(ro, "counter", &v).ok());
    long long cur = std::stoll(v);
    ASSERT_GE(cur, prev) << "later snapshot observed an earlier state";
    prev = cur;
    db_->ReleaseSnapshot(snap);
  }
  stop = true;
  writer.join();
}

TEST_F(SnapshotTest, ReleaseUnblocksGc) {
  WriteOptions wo;
  const Snapshot* snap = db_->GetSnapshot();
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db_->Put(wo, "k" + std::to_string(i), "v").ok());
  }
  // Releasing must not crash GC bookkeeping and later scans still work.
  db_->ReleaseSnapshot(snap);
  db_->WaitForMaintenance();
  std::string v;
  EXPECT_TRUE(db_->Get(ReadOptions(), "k1", &v).ok());
}

}  // namespace
}  // namespace clsm
