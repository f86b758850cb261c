// Compaction-focused stress: drive the storage engine until data spreads
// across several levels, then verify (a) every visible version is correct,
// (b) obsolete-version GC honored live snapshots, (c) level invariants hold
// (disjoint ranges above level 0), (d) file-lifetime management never
// strands or prematurely deletes table files.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "src/core/clsm_db.h"
#include "src/lsm/filename.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

class CompactionStressTest : public ::testing::Test {
 protected:
  CompactionStressTest() : dir_("compstress") {
    options_.write_buffer_size = 24 * 1024;
    options_.target_file_size = 24 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    options_.l0_compaction_trigger = 2;
    Open();
  }

  void Open() {
    db_.reset();
    DB* raw = nullptr;
    ASSERT_TRUE(ClsmDb::Open(options_, dir_.path() + "/db", &raw).ok());
    db_.reset(raw);
  }

  int LevelFiles(int level) {
    std::string summary = db_->GetProperty("clsm.levels");  // "files[a b c ...]"
    size_t pos = summary.find('[');
    std::vector<int> counts;
    while (pos != std::string::npos && pos + 1 < summary.size()) {
      counts.push_back(atoi(summary.c_str() + pos + 1));
      pos = summary.find(' ', pos + 1);
    }
    return level < static_cast<int>(counts.size()) ? counts[level] : 0;
  }

  int DeepFiles() {
    int total = 0;
    for (int level = 1; level < kNumLevels; level++) {
      total += LevelFiles(level);
    }
    return total;
  }

  ScratchDir dir_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_F(CompactionStressTest, MultiLevelSpreadKeepsNewestVersions) {
  WriteOptions wo;
  ReadOptions ro;
  std::map<std::string, std::string> model;
  Random rnd(99);
  // Many overwrite rounds with small buffers => deep level spread.
  for (int round = 0; round < 12; round++) {
    for (int i = 0; i < 800; i++) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%05u", rnd.Uniform(2000));
      std::string value = "r" + std::to_string(round) + "-" + std::to_string(i);
      ASSERT_TRUE(db_->Put(wo, key, value).ok());
      model[key] = value;
    }
    db_->WaitForMaintenance();
  }
  EXPECT_GT(DeepFiles(), 0) << db_->GetProperty("clsm.levels");

  for (const auto& [k, v] : model) {
    std::string got;
    ASSERT_TRUE(db_->Get(ro, k, &got).ok()) << k;
    ASSERT_EQ(v, got) << k;
  }

  // Ordered scan sees exactly the model.
  std::unique_ptr<Iterator> it(db_->NewIterator(ro));
  it->SeekToFirst();
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(it->Valid());
    ASSERT_EQ(k, it->key().ToString());
    it->Next();
  }
  EXPECT_FALSE(it->Valid());
}

TEST_F(CompactionStressTest, SnapshotSurvivesDeepCompaction) {
  WriteOptions wo;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(wo, "snap-key" + std::to_string(i), "generation-0").ok());
  }
  db_->WaitForMaintenance();
  const Snapshot* snap = db_->GetSnapshot();

  // Bury generation-0 under many newer generations and compactions.
  for (int gen = 1; gen <= 8; gen++) {
    for (int i = 0; i < 500; i++) {
      ASSERT_TRUE(
          db_->Put(wo, "snap-key" + std::to_string(i), "generation-" + std::to_string(gen)).ok());
    }
    db_->WaitForMaintenance();
  }

  ReadOptions rs;
  rs.snapshot = snap;
  std::string v;
  for (int i = 0; i < 500; i += 13) {
    ASSERT_TRUE(db_->Get(rs, "snap-key" + std::to_string(i), &v).ok()) << i;
    EXPECT_EQ("generation-0", v) << "GC dropped a version a live snapshot needed";
  }
  ReadOptions ro;
  ASSERT_TRUE(db_->Get(ro, "snap-key13", &v).ok());
  EXPECT_EQ("generation-8", v);
  db_->ReleaseSnapshot(snap);

  // After release, further churn may GC generation-0; the store stays sane.
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db_->Put(wo, "snap-key" + std::to_string(i), "generation-9").ok());
  }
  db_->WaitForMaintenance();
  ASSERT_TRUE(db_->Get(ro, "snap-key13", &v).ok());
  EXPECT_EQ("generation-9", v);
}

TEST_F(CompactionStressTest, NoStrandedOrMissingTableFiles) {
  WriteOptions wo;
  Random rnd(7);
  for (int round = 0; round < 10; round++) {
    for (int i = 0; i < 600; i++) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%05u", rnd.Uniform(3000));
      ASSERT_TRUE(db_->Put(wo, key, std::string(40, 'a' + round)).ok());
    }
    db_->WaitForMaintenance();
  }
  // Close cleanly; reopen sweeps obsolete files and recovers the manifest.
  Open();
  db_->WaitForMaintenance();

  // Every table file on disk is either referenced (openable via a scan) or
  // would have been deleted; conversely the scan must not hit missing
  // files. A full scan exercising every level proves both.
  ReadOptions ro;
  std::unique_ptr<Iterator> it(db_->NewIterator(ro));
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    n++;
  }
  EXPECT_TRUE(it->status().ok()) << it->status().ToString();
  EXPECT_GT(n, 1000);

  // Directory hygiene: no temp files; exactly one CURRENT and it resolves.
  Env* env = Env::Default();
  std::vector<std::string> files;
  ASSERT_TRUE(env->GetChildren(dir_.path() + "/db", &files).ok());
  int temps = 0;
  for (const auto& f : files) {
    uint64_t number;
    FileType type;
    if (ParseFileName(f, &number, &type) && type == kTempFile) {
      temps++;
    }
  }
  EXPECT_EQ(0, temps);
  std::string current;
  ASSERT_TRUE(ReadFileToString(env, dir_.path() + "/db/CURRENT", &current).ok());
  current.pop_back();  // newline
  EXPECT_TRUE(env->FileExists(dir_.path() + "/db/" + current)) << current;
}

TEST_F(CompactionStressTest, DeleteHeavyWorkloadShrinks) {
  WriteOptions wo;
  ReadOptions ro;
  // Insert then delete everything, churn compactions, verify emptiness.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(wo, "victim" + std::to_string(i), std::string(64, 'v')).ok());
  }
  db_->WaitForMaintenance();
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Delete(wo, "victim" + std::to_string(i)).ok());
  }
  db_->WaitForMaintenance();
  // Push the tombstones down with more (disjoint) churn.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(wo, "zz-filler" + std::to_string(i), std::string(64, 'f')).ok());
  }
  db_->WaitForMaintenance();

  std::unique_ptr<Iterator> it(db_->NewIterator(ro));
  it->Seek("victim");
  if (it->Valid()) {
    EXPECT_FALSE(it->key().starts_with("victim")) << it->key().ToString();
  }
  std::string v;
  EXPECT_TRUE(db_->Get(ro, "victim1500", &v).IsNotFound());
}

// Parallel compaction: several writers race against a pool of compaction
// workers. Verifies (a) in-flight compactions never share an input file
// (the engine counts violations of its disjointness invariant), (b) reads
// and iterators stay consistent while compactions overlap, and (c) the
// final state matches a sequential model.
TEST_F(CompactionStressTest, ParallelCompactionsDisjointAndConsistent) {
  options_.compaction_threads = 4;
  options_.l0_safety_cap = 20;
  Open();

  constexpr int kWriters = 4;
  constexpr int kKeysPerWriter = 600;
  constexpr int kRounds = 6;
  WriteOptions wo;

  auto key_of = [](int w, int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "w%d-key%05d", w, i);
    return std::string(buf);
  };
  auto value_of = [&](int w, int i, int round) {
    return key_of(w, i) + "-r" + std::to_string(round) + std::string(30, 'p');
  };

  std::atomic<bool> writers_done{false};
  std::atomic<int> put_failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      for (int round = 0; round < kRounds; round++) {
        for (int i = 0; i < kKeysPerWriter; i++) {
          if (!db_->Put(wo, key_of(w, i), value_of(w, i, round)).ok()) {
            put_failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }

  // Readers: every value observed for a key must be one this key's writer
  // actually wrote (some round's value), never a torn or foreign value.
  std::atomic<int> read_violations{0};
  std::thread reader([&] {
    ReadOptions ro;
    Random rnd(301);
    while (!writers_done.load(std::memory_order_acquire)) {
      const int w = static_cast<int>(rnd.Uniform(kWriters));
      const int i = static_cast<int>(rnd.Uniform(kKeysPerWriter));
      const std::string k = key_of(w, i);
      std::string v;
      Status s = db_->Get(ro, k, &v);
      if (s.ok()) {
        if (v.compare(0, k.size(), k) != 0 || v.find("-r", k.size()) != k.size()) {
          read_violations.fetch_add(1);
        }
      } else if (!s.IsNotFound()) {
        read_violations.fetch_add(1);
      }
    }
  });

  // Iterator: a scan taken while compactions churn must stay sorted and
  // error-free.
  std::atomic<int> scan_violations{0};
  std::thread scanner([&] {
    ReadOptions ro;
    while (!writers_done.load(std::memory_order_acquire)) {
      std::unique_ptr<Iterator> it(db_->NewIterator(ro));
      std::string prev;
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        const std::string k = it->key().ToString();
        if (!prev.empty() && !(prev < k)) {
          scan_violations.fetch_add(1);
        }
        prev = k;
      }
      if (!it->status().ok()) {
        scan_violations.fetch_add(1);
      }
    }
  });

  for (auto& t : writers) {
    t.join();
  }
  writers_done.store(true, std::memory_order_release);
  reader.join();
  scanner.join();
  ASSERT_EQ(0, put_failures.load());
  EXPECT_EQ(0, read_violations.load());
  EXPECT_EQ(0, scan_violations.load());

  db_->WaitForMaintenance();
  // (a) Disjointness invariant never tripped.
  EXPECT_EQ("0", db_->GetProperty("clsm.compaction-overlaps"));

  // (c) Final state equals the sequential model: last round's value wins
  // for every key, and a full scan sees exactly the model's keys.
  ReadOptions ro;
  for (int w = 0; w < kWriters; w++) {
    for (int i = 0; i < kKeysPerWriter; i++) {
      std::string v;
      ASSERT_TRUE(db_->Get(ro, key_of(w, i), &v).ok()) << key_of(w, i);
      ASSERT_EQ(value_of(w, i, kRounds - 1), v) << key_of(w, i);
    }
  }
  std::unique_ptr<Iterator> it(db_->NewIterator(ro));
  int n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    n++;
  }
  ASSERT_TRUE(it->status().ok());
  EXPECT_EQ(kWriters * kKeysPerWriter, n);

  // The pool actually compacted in parallel-capable mode and the backpressure
  // accounting is wired: the property parses as a number.
  EXPECT_GT(DeepFiles(), 0) << db_->GetProperty("clsm.levels");
  const std::string stalls = db_->GetProperty("clsm.stall-micros");
  EXPECT_FALSE(stalls.empty());
  EXPECT_TRUE(stalls.find_first_not_of("0123456789") == std::string::npos) << stalls;
}

}  // namespace
}  // namespace clsm
