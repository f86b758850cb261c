#include <gtest/gtest.h>

#include <memory>

#include "src/lsm/storage_engine.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : dir_("engine") {
    options_.write_buffer_size = 64 * 1024;
    options_.target_file_size = 64 * 1024;
    options_.level1_max_bytes = 256 * 1024;
  }

  void Open() {
    engine_ = std::make_unique<StorageEngine>(options_, dir_.path() + "/db");
    MemTable* recovered = nullptr;
    SequenceNumber max_seq = 0;
    ASSERT_TRUE(engine_->Open(&recovered, &max_seq).ok());
    if (recovered != nullptr) {
      recovered->Unref();
    }
  }

  // Builds a memtable with n entries starting at sequence base and flushes
  // it to level 0.
  void FlushBatch(int n, SequenceNumber base, const std::string& value_tag) {
    MemTable* mem = new MemTable(*engine_->icmp());
    for (int i = 0; i < n; i++) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%07d", i);
      mem->Add(base + i, kTypeValue, key, value_tag + std::to_string(i));
    }
    ASSERT_TRUE(engine_->FlushMemTable(mem, engine_->versions()->LogNumber()).ok());
    mem->Unref();
  }

  std::string Get(const std::string& key, SequenceNumber seq) {
    LookupKey lkey(key, seq);
    std::string value;
    ReadOptions ro;
    Status s = engine_->Get(ro, lkey, &value);
    return s.ok() ? value : "NOTFOUND";
  }

  ScratchDir dir_;
  Options options_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(EngineTest, FlushCreatesLevel0File) {
  Open();
  EXPECT_EQ(0, engine_->NumLevelFiles(0));
  FlushBatch(1000, 1, "v");
  EXPECT_EQ(1, engine_->NumLevelFiles(0));
  EXPECT_EQ("v42", Get("key0000042", kMaxSequenceNumber));
  EXPECT_EQ("NOTFOUND", Get("key9999999", kMaxSequenceNumber));
}

TEST_F(EngineTest, NewestVersionWinsAcrossFiles) {
  Open();
  FlushBatch(100, 1, "old");
  FlushBatch(100, 1000, "new");
  EXPECT_EQ(2, engine_->NumLevelFiles(0));
  EXPECT_EQ("new7", Get("key0000007", kMaxSequenceNumber));
  // Snapshot reads below the second batch see the first.
  EXPECT_EQ("old7", Get("key0000007", 500));
}

TEST_F(EngineTest, CompactionMergesToLevel1) {
  Open();
  for (int batch = 0; batch < 6; batch++) {
    FlushBatch(2000, 1 + batch * 10000, "b" + std::to_string(batch) + "-");
  }
  ASSERT_TRUE(engine_->NeedsCompaction());
  bool did_work = true;
  while (engine_->NeedsCompaction() && did_work) {
    ASSERT_TRUE(engine_->CompactOnce(kMaxSequenceNumber, &did_work).ok());
  }
  EXPECT_LT(engine_->NumLevelFiles(0), 4);
  int deeper_files = 0;
  for (int level = 1; level < kNumLevels; level++) {
    deeper_files += engine_->NumLevelFiles(level);
  }
  EXPECT_GT(deeper_files, 0);
  // Every key still readable with the newest value.
  EXPECT_EQ("b5-123", Get("key0000123", kMaxSequenceNumber));
}

TEST_F(EngineTest, CompactionDropsObsoleteVersions) {
  Open();
  // Two batches of the same keys; after compaction with no snapshots, the
  // old versions must be gone (observable via snapshot reads at low seq).
  FlushBatch(500, 1, "old");
  FlushBatch(500, 10000, "new");
  FlushBatch(500, 20000, "newer");
  FlushBatch(500, 30000, "newest");
  bool did_work = true;
  while (engine_->NeedsCompaction() && did_work) {
    ASSERT_TRUE(engine_->CompactOnce(kMaxSequenceNumber, &did_work).ok());
  }
  // Reading at a pre-"new" snapshot: the old version was GC'd during the
  // merge (smallest_snapshot = max), so the key is simply absent at seq 500.
  EXPECT_EQ("NOTFOUND", Get("key0000001", 500));
  EXPECT_EQ("newest1", Get("key0000001", kMaxSequenceNumber));
}

TEST_F(EngineTest, CompactionPreservesSnapshotVersions) {
  Open();
  FlushBatch(500, 1, "old");
  FlushBatch(500, 10000, "new");
  FlushBatch(500, 20000, "newer");
  FlushBatch(500, 30000, "newest");
  bool did_work = true;
  // smallest_snapshot = 5000: versions at seq <= 5000 that are the newest
  // at-or-below 5000 must survive (paper §3.2.1's GC rule).
  while (engine_->NeedsCompaction() && did_work) {
    ASSERT_TRUE(engine_->CompactOnce(5000, &did_work).ok());
  }
  EXPECT_EQ("old1", Get("key0000001", 5000));
  EXPECT_EQ("newest1", Get("key0000001", kMaxSequenceNumber));
}

// A flush applies the compactions' obsolete-version rule: a version goes
// only when the newer version of its key is at or below the oldest
// snapshot; the default bound keeps every version.
TEST_F(EngineTest, FlushDropsVersionsNoSnapshotCanSee) {
  Open();
  // Flushes key@1, key@5, key@9 with the given oldest-snapshot bound.
  auto flush = [&](const std::string& key, SequenceNumber smallest_snapshot) {
    MemTable* mem = new MemTable(*engine_->icmp());
    for (SequenceNumber seq : {1, 5, 9}) {
      mem->Add(seq, kTypeValue, key, key + std::to_string(seq));
    }
    ASSERT_TRUE(
        engine_->FlushMemTable(mem, engine_->versions()->LogNumber(), smallest_snapshot).ok());
    mem->Unref();
  };
  flush("a", 0);
  EXPECT_EQ("a1", Get("a", 1));
  flush("b", 6);
  EXPECT_EQ("NOTFOUND", Get("b", 1));  // b@5 <= 6 shadows it for every snapshot
  EXPECT_EQ("b5", Get("b", 6));        // the newest version at the snapshot stays
  EXPECT_EQ("b9", Get("b", 9));
}

TEST_F(EngineTest, DeletionMarkersDropOnlyAtBaseLevel) {
  Open();
  FlushBatch(200, 1, "v");
  // Delete half the keys in a second batch.
  MemTable* mem = new MemTable(*engine_->icmp());
  for (int i = 0; i < 200; i += 2) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%07d", i);
    mem->Add(1000 + i, kTypeDeletion, key, "");
  }
  ASSERT_TRUE(engine_->FlushMemTable(mem, engine_->versions()->LogNumber()).ok());
  mem->Unref();

  bool did_work = true;
  while (engine_->NeedsCompaction() && did_work) {
    ASSERT_TRUE(engine_->CompactOnce(kMaxSequenceNumber, &did_work).ok());
  }
  EXPECT_EQ("NOTFOUND", Get("key0000000", kMaxSequenceNumber));
  EXPECT_EQ("v1", Get("key0000001", kMaxSequenceNumber));
}

TEST_F(EngineTest, ManifestRecoveryRestoresLevels) {
  Open();
  for (int batch = 0; batch < 5; batch++) {
    FlushBatch(1000, 1 + batch * 10000, "b" + std::to_string(batch) + "-");
  }
  bool did_work = true;
  while (engine_->NeedsCompaction() && did_work) {
    ASSERT_TRUE(engine_->CompactOnce(kMaxSequenceNumber, &did_work).ok());
  }
  std::string summary_before = engine_->versions()->LevelSummary();
  SequenceNumber last_seq = engine_->versions()->LastSequence();

  engine_.reset();
  Open();
  EXPECT_EQ(summary_before, engine_->versions()->LevelSummary());
  EXPECT_EQ(last_seq, engine_->versions()->LastSequence());
  EXPECT_EQ("b4-77", Get("key0000077", kMaxSequenceNumber));
}

TEST_F(EngineTest, VersionIteratorsSeeMergedView) {
  Open();
  FlushBatch(100, 1, "old");
  FlushBatch(100, 1000, "new");
  ReadOptions ro;
  std::vector<Iterator*> iters;
  Version* v = engine_->AddVersionIterators(ro, &iters);
  EXPECT_GE(iters.size(), 2u);
  size_t total = 0;
  for (Iterator* it : iters) {
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      total++;
    }
    delete it;
  }
  v->Unref();
  EXPECT_EQ(200u, total);  // both versions of every key
}

TEST_F(EngineTest, CreateIfMissingFalseFails) {
  options_.create_if_missing = false;
  StorageEngine engine(options_, dir_.path() + "/absent");
  MemTable* recovered = nullptr;
  SequenceNumber max_seq = 0;
  Status s = engine.Open(&recovered, &max_seq);
  EXPECT_FALSE(s.ok());
}

TEST_F(EngineTest, ErrorIfExistsFails) {
  Open();
  engine_.reset();
  options_.error_if_exists = true;
  StorageEngine engine(options_, dir_.path() + "/db");
  MemTable* recovered = nullptr;
  SequenceNumber max_seq = 0;
  Status s = engine.Open(&recovered, &max_seq);
  EXPECT_FALSE(s.ok());
}

}  // namespace
}  // namespace clsm
