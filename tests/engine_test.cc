#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "src/core/clsm_db.h"
#include "src/lsm/storage_engine.h"
#include "src/obs/perf_context.h"
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

// Forwards to Env::Default() and counts the table files (.sst) open for
// reading: each live table owns one, from its first probe until the last
// version drops the file.
class OpenTableCountingEnv final : public Env {
 public:
  int open_tables() const { return open_tables_.load(); }

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override {
    Status s = base_->NewRandomAccessFile(fname, result);
    const std::string suffix = ".sst";
    if (s.ok() && fname.size() >= suffix.size() &&
        fname.compare(fname.size() - suffix.size(), suffix.size(), suffix) == 0) {
      result->reset(new CountedFile(std::move(*result), &open_tables_));
    }
    return s;
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    return base_->NewWritableFile(fname, result);
  }
  bool FileExists(const std::string& fname) override { return base_->FileExists(fname); }
  Status GetChildren(const std::string& dir, std::vector<std::string>* result) override {
    return base_->GetChildren(dir, result);
  }
  Status RemoveFile(const std::string& fname) override { return base_->RemoveFile(fname); }
  Status CreateDir(const std::string& dirname) override { return base_->CreateDir(dirname); }
  Status RemoveDir(const std::string& dirname) override { return base_->RemoveDir(dirname); }
  Status GetFileSize(const std::string& fname, uint64_t* file_size) override {
    return base_->GetFileSize(fname, file_size);
  }
  Status RenameFile(const std::string& src, const std::string& target) override {
    return base_->RenameFile(src, target);
  }
  uint64_t NowMicros() override { return base_->NowMicros(); }

 private:
  class CountedFile final : public RandomAccessFile {
   public:
    CountedFile(std::unique_ptr<RandomAccessFile> base, std::atomic<int>* count)
        : base_(std::move(base)), count_(count) {
      count_->fetch_add(1);
    }
    ~CountedFile() override { count_->fetch_sub(1); }
    Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
      return base_->Read(offset, n, result, scratch);
    }

   private:
    std::unique_ptr<RandomAccessFile> base_;
    std::atomic<int>* count_;
  };

  Env* base_ = Env::Default();
  std::atomic<int> open_tables_{0};
};

// Holds the first compaction at its begin event until Open() is called
// (or 30 s pass), and records whether any compaction merged its inputs.
class HoldFirstCompaction final : public EventListener {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void OnCompactionBegin(const CompactionJobInfo& info) override {
    if (!info.trivial_move) {
      merged_ = true;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::seconds(30), [this] { return open_; });
  }
  bool merged() const { return merged_.load(); }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<bool> merged_{false};
};

// Table lifetime without a table cache: a live file's Table opens on its
// first probe and closes when the last version referencing the file dies.
class TableLifetimeTest : public ::testing::Test {
 protected:
  static constexpr int kKeys = 20000;

  TableLifetimeTest() : dir_("table-lifetime") {
    options_.env = &env_;
    options_.write_buffer_size = 64 * 1024;
    options_.target_file_size = 64 * 1024;
    options_.level1_max_bytes = 256 * 1024;
  }

  std::unique_ptr<DB> Open() {
    DB* raw = nullptr;
    Status s = ClsmDb::Open(options_, dir_.path() + "/db", &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(raw);
  }

  static std::string Key(int i) { return "key" + std::to_string(i); }
  static std::string Value(int i) { return std::string(100, static_cast<char>('a' + i % 26)); }

  // Writes every key once, in a scrambled order, and waits for the merges.
  void Fill() {
    auto db = Open();
    WriteOptions wo;
    for (int i = 0; i < kKeys; i++) {
      const int k = static_cast<int>(static_cast<int64_t>(i) * 7919 % kKeys);
      ASSERT_TRUE(db->Put(wo, Key(k), Value(k)).ok());
    }
    db->WaitForMaintenance();
  }

  // Files per level from "clsm.levels".
  static std::vector<int> LevelFiles(DB* db) {
    std::istringstream in(db->GetProperty("clsm.levels").substr(std::strlen("files[")));
    std::vector<int> files;
    int n;
    while (in >> n) {
      files.push_back(n);
    }
    return files;
  }

  // Sum of levels[].files in clsm.stats.json.
  static int LiveTables(DB* db) {
    const std::string json = db->GetProperty("clsm.stats.json");
    size_t at = json.find("\"levels\":[");
    const size_t end = json.find(']', at);
    EXPECT_NE(std::string::npos, end) << json;
    int total = 0;
    const std::string field = "\"files\":";
    while ((at = json.find(field, at)) < end) {
      at += field.size();
      total += std::atoi(json.c_str() + at);
    }
    return total;
  }

  // Reads every key back through one iterator, which probes every table.
  static int ScanAll(DB* db) {
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      n++;
    }
    EXPECT_TRUE(it->status().ok()) << it->status().ToString();
    return n;
  }

  ScratchDir dir_;
  OpenTableCountingEnv env_;
  Options options_;
};

// (a) After a reopen no table is open; concurrent Gets race to open each
// one first. Every Get reads its value, and exactly one file stays open
// per live table (a losing open is closed, none is leaked).
TEST_F(TableLifetimeTest, ConcurrentFirstProbesOpenEachTableOnce) {
  Fill();
  options_.l0_compaction_trigger = 100;  // the reopened file set stays put
  auto db = Open();
  EXPECT_EQ(0, env_.open_tables());
  const std::string levels = db->GetProperty("clsm.levels");
  int populated = 0;
  for (int files : LevelFiles(db.get())) {
    populated += files > 0 ? 1 : 0;
  }
  ASSERT_GE(populated, 2) << levels;

  // The readers start together and walk the keys in key order, so they
  // reach each table's first key at about the same time, and a reader that
  // opens a table is caught up by the others meanwhile.
  std::vector<int> order(kKeys);
  for (int i = 0; i < kKeys; i++) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(), [](int a, int b) { return Key(a) < Key(b); });
  constexpr int kReaders = 4;
  std::atomic<int> ready{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; t++) {
    readers.emplace_back([&] {
      ready++;
      while (ready.load() < kReaders) {
      }
      ReadOptions ro;
      std::string v;
      for (int i : order) {
        if (!db->Get(ro, Key(i), &v).ok() || v != Value(i)) {
          wrong++;
        }
      }
    });
  }
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(0, wrong.load());
  EXPECT_EQ(LiveTables(db.get()), env_.open_tables()) << levels;
}

// (b) An iterator made before a merge reads every key after the merge has
// taken its input tables out of the current version. (c) Once it is gone
// and maintenance is done, the open files are exactly the live tables.
TEST_F(TableLifetimeTest, IteratorOutlivesCompactionOfItsTables) {
  options_.l0_compaction_trigger = 100;  // level 0 piles up
  Fill();
  auto hold = std::make_shared<HoldFirstCompaction>();
  options_.l0_compaction_trigger = 4;
  options_.listeners.push_back(hold);
  auto db = Open();
  ASSERT_GE(LevelFiles(db.get())[0], 4);

  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  hold->Open();
  db->WaitForMaintenance();
  EXPECT_TRUE(hold->merged());
  EXPECT_EQ(0, LevelFiles(db.get())[0]);

  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(Value(std::atoi(it->key().ToString().c_str() + 3)), it->value().ToString());
    n++;
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_EQ(kKeys, n);
  it.reset();
  db->WaitForMaintenance();

  EXPECT_EQ(kKeys, ScanAll(db.get()));
  EXPECT_EQ(LiveTables(db.get()), env_.open_tables());
}

// (d) An open table keeps no copy of the store's Options: opening every
// table leaves the use count of a listener's shared_ptr where it was.
TEST_F(TableLifetimeTest, OpenTablesHoldNoCopyOfOptions) {
  options_.l0_compaction_trigger = 100;  // level 0 piles up and stays put
  Fill();
  auto listener = std::make_shared<EventListener>();
  options_.listeners.push_back(listener);
  auto db = Open();
  ASSERT_GE(LiveTables(db.get()), 20);
  const long refs = listener.use_count();
  const int open_before = env_.open_tables();

  EXPECT_EQ(kKeys, ScanAll(db.get()));
  EXPECT_EQ(LiveTables(db.get()), env_.open_tables());
  EXPECT_EQ(refs, listener.use_count())
      << "after opening " << env_.open_tables() - open_before << " tables";
}

// tests/golden/per_block_filter_store/ is a store written by the release
// that kept one Bloom filter per 2 KiB of each table
// ("filter.clsm.BuiltinBloomFilter2"; see tests/golden/README.md): four
// level-0 tables over keys BigEndianKey(2 * i), i < 1000, and an empty
// log. Its
// tables have no filter this release reads, so they are read unfiltered
// (every value intact, no probe skipped) until a compaction rewrites them
// with one filter each.
TEST(PerBlockFilterUpgradeTest, CompactionRestoresFiltering) {
  ScratchDir dir("perblock-upgrade");
  Env* env = Env::Default();
  const std::string golden = GoldenPath("per_block_filter_store");
  const std::string dbname = dir.path() + "/db";
  ASSERT_TRUE(env->CreateDir(dbname).ok());
  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren(golden, &children).ok());
  for (const std::string& child : children) {
    std::string data;
    if (child == "." || child == ".." || !ReadFileToString(env, golden + "/" + child, &data).ok()) {
      continue;
    }
    ASSERT_TRUE(WriteStringToFileSync(env, data, dbname + "/" + child).ok()) << child;
  }

  constexpr uint64_t kKeys = 1000;
  Options options;
  options.perf_level = PerfLevel::kEnableCounts;
  options.l0_compaction_trigger = 100;
  // Reads every key and returns the bloom skips of the absent ones.
  auto read_all = [&](DB* db) {
    uint64_t useful = 0;
    std::string v;
    for (uint64_t i = 0; i < kKeys; i++) {
      EXPECT_TRUE(db->Get(ReadOptions(), BigEndianKey(2 * i), &v).ok()) << i;
      EXPECT_EQ(GoldenValue(i), v) << i;
      EXPECT_TRUE(db->Get(ReadOptions(), BigEndianKey(2 * i + 1), &v).IsNotFound()) << i;
      useful += GetPerfContext()->bloom_useful;
    }
    return useful;
  };
  {
    DB* raw = nullptr;
    ASSERT_TRUE(ClsmDb::Open(options, dbname, &raw).ok());
    std::unique_ptr<DB> db(raw);
    ASSERT_EQ("files[4 0 ", db->GetProperty("clsm.levels").substr(0, 10));
    EXPECT_EQ(0u, read_all(db.get()));
  }
  // A compaction of every level-0 table into level 1.
  options.l0_compaction_trigger = 2;
  DB* raw = nullptr;
  ASSERT_TRUE(ClsmDb::Open(options, dbname, &raw).ok());
  std::unique_ptr<DB> db(raw);
  db->WaitForMaintenance();
  EXPECT_EQ("files[0 ", db->GetProperty("clsm.levels").substr(0, 8));
  EXPECT_GT(read_all(db.get()), kKeys / 2);
}

}  // namespace
}  // namespace clsm
