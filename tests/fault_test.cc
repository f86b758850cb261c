// Failure injection: disk errors during flush/compaction/logging must
// surface as status errors (or background errors halting maintenance), and
// must never corrupt data that was already durable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "src/baselines/factory.h"
#include "src/core/clsm_db.h"
#include "src/lsm/filename.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  FaultTest() : dir_("fault"), fault_env_(Env::Default()) {
    options_.env = &fault_env_;
    options_.write_buffer_size = 128 * 1024;
  }

  std::unique_ptr<DB> Open() {
    DB* raw = nullptr;
    Status s = ClsmDb::Open(options_, dir_.path() + "/db", &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(raw);
  }

  // Writes `keys` keys (100-byte values) as level-0 tables, with
  // compaction held off.
  void WriteLevel0(int keys) {
    options_.l0_compaction_trigger = 100;
    auto db = Open();
    WriteOptions wo;
    const std::string value(100, 'v');
    for (int i = 0; i < keys; i++) {
      ASSERT_TRUE(db->Put(wo, "key" + std::to_string(i * 7919 % keys), value).ok());
    }
    db->WaitForMaintenance();
  }

  // Files per level from "clsm.levels".
  static std::vector<int> LevelFiles(DB* db) {
    std::istringstream in(db->GetProperty("clsm.levels").substr(strlen("files[")));
    std::vector<int> files;
    int n;
    while (in >> n) {
      files.push_back(n);
    }
    return files;
  }

  int TableFilesOnDisk() {
    std::vector<std::string> children;
    EXPECT_TRUE(fault_env_.GetChildren(dir_.path() + "/db", &children).ok());
    int count = 0;
    for (const std::string& name : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(name, &number, &type) && type == kTableFile) {
        count++;
      }
    }
    return count;
  }

  // After the successful retry: level 0 drained, the disk holds exactly
  // the tables the current version references, and every key reads back.
  // A merge deletes the inputs it replaced before its end event, so the
  // count holds as soon as that event has fired.
  void ExpectCleanRetry(DB* db, int keys) {
    const std::vector<int> files = LevelFiles(db);
    ASSERT_FALSE(files.empty());
    EXPECT_EQ(0, files[0]);
    int live = 0;
    for (int n : files) {
      live += n;
    }
    EXPECT_GT(live, 0);
    EXPECT_EQ(live, TableFilesOnDisk()) << "compactions left table files behind";
    ReadOptions ro;
    std::string v;
    for (int i = 0; i < keys; i += 397) {
      EXPECT_TRUE(db->Get(ro, "key" + std::to_string(i), &v).ok()) << i;
    }
  }

  ScratchDir dir_;
  FaultInjectionEnv fault_env_;
  Options options_;
};

TEST_F(FaultTest, OpenFailsCleanlyWhenDirectoryUnwritable) {
  fault_env_.FailNewFiles(true);
  DB* raw = nullptr;
  Status s = ClsmDb::Open(options_, dir_.path() + "/db2", &raw);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(nullptr, raw);
  fault_env_.Heal();
}

TEST_F(FaultTest, DataSurvivesTransientFlushFailures) {
  auto db = Open();
  WriteOptions wo;
  ReadOptions ro;

  // Write some baseline data and make it durable before arming the faults:
  // a synchronous put is a durability barrier for everything before it
  // (asynchronously logged records still in flight are legitimately lost
  // when the disk starts failing — that is the async-logging contract).
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(wo, "safe" + std::to_string(i), "v").ok());
  }
  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db->Put(sync_wo, "safe-barrier", "1").ok());
  db->WaitForMaintenance();

  // Inject write failures, then produce churn that triggers flushes and
  // compactions in the background. The maintenance path may record a
  // background error; reads of already-written data must keep succeeding
  // and the process must not crash.
  fault_env_.FailAfterWrites(100);
  for (int i = 0; i < 20000; i++) {
    db->Put(wo, "churn" + std::to_string(i), std::string(32, 'c'));
  }
  // Give maintenance a chance to hit the fault.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GT(fault_env_.write_failures(), 0u) << "fault was never exercised";

  std::string v;
  for (int i = 0; i < 2000; i += 111) {
    EXPECT_TRUE(db->Get(ro, "safe" + std::to_string(i), &v).ok()) << i;
  }

  // Background errors latch (as in LevelDB): once maintenance has failed,
  // writers either succeed (if the pipeline still had room) or fail with
  // the latched error — they must never hang. Reads always keep working.
  fault_env_.Heal();
  Status put_status = db->Put(wo, "after-heal", "v");
  if (put_status.ok()) {
    EXPECT_TRUE(db->Get(ro, "after-heal", &v).ok());
  } else {
    EXPECT_TRUE(put_status.IsIOError()) << put_status.ToString();
  }

  // Reopening clears the latched error and fully restores service.
  db.reset();
  db = Open();
  EXPECT_TRUE(db->Put(wo, "fresh-after-reopen", "v").ok());
  EXPECT_TRUE(db->Get(ro, "fresh-after-reopen", &v).ok());
  for (int i = 0; i < 2000; i += 111) {
    EXPECT_TRUE(db->Get(ro, "safe" + std::to_string(i), &v).ok()) << i;
  }
}

TEST_F(FaultTest, SyncWriteReportsInjectedError) {
  auto db = Open();
  WriteOptions sync_wo;
  sync_wo.sync = true;
  ASSERT_TRUE(db->Put(sync_wo, "ok", "v").ok());

  fault_env_.FailAfterWrites(1);
  // The failing sync surfaces on some subsequent synchronous write (the
  // logger latches its first error).
  Status s;
  for (int i = 0; i < 10 && s.ok(); i++) {
    s = db->Put(sync_wo, "failing" + std::to_string(i), "v");
  }
  EXPECT_FALSE(s.ok()) << "injected WAL failure was swallowed";
  fault_env_.Heal();
}

// Injects a fault (`arm`) for the first `failures` merging compactions,
// from their start to their end, so each of those jobs fails part-way
// through writing its output. Nothing else writes while they run (the
// store takes no writes then), so only compactions fail. Signals the first
// level-0 merge that succeeds.
class FailFirstCompactions final : public EventListener {
 public:
  FailFirstCompactions(FaultInjectionEnv* env, int failures, std::function<void()> arm)
      : env_(env), to_fail_(failures), arm_(std::move(arm)) {}

  void OnCompactionBegin(const CompactionJobInfo& info) override {
    if (info.trivial_move) {
      return;
    }
    failed_at_begin_.store(failed_.load());
    if (to_fail_.fetch_sub(1) > 0) {
      arm_();
    }
  }
  void OnCompactionEnd(const CompactionJobInfo& info) override {
    env_->Heal();
    // The job's background error, if any, is reported before its end.
    if (info.level == 0 && !info.trivial_move && failed_.load() == failed_at_begin_.load()) {
      std::lock_guard<std::mutex> l(mu_);
      level0_merged_ = true;
      cv_.notify_all();
    }
  }
  void OnBackgroundError(const BackgroundErrorInfo& info) override {
    if (info.reason == BgErrorReason::kCompaction) {
      failed_.fetch_add(1);
    }
  }

  int failed() const { return failed_.load(); }

  // Waits for a level-0 merge to succeed; false on timeout.
  bool WaitForLevel0Merge(std::chrono::seconds timeout) {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, timeout, [this] { return level0_merged_; });
  }

 private:
  FaultInjectionEnv* env_;
  std::atomic<int> to_fail_;
  std::function<void()> arm_;
  std::atomic<int> failed_{0};
  std::atomic<int> failed_at_begin_{0};  // jobs run one at a time here
  std::mutex mu_;
  std::condition_variable cv_;
  bool level0_merged_ = false;
};

TEST_F(FaultTest, FailedCompactionsLeaveNoTableFiles) {
  // Overlapping level-0 tables (at least two; how many depends on when the
  // memtable rolls).
  WriteLevel0(16000);

  // Reopen with a low trigger: the level-0 merge starts on its own and its
  // first three attempts fail mid-output.
  options_.l0_compaction_trigger = 2;
  auto listener = std::make_shared<FailFirstCompactions>(
      &fault_env_, 3, [this] { fault_env_.FailAfterWrites(8); });
  options_.listeners.push_back(listener);
  auto db = Open();
  ASSERT_TRUE(listener->WaitForLevel0Merge(std::chrono::seconds(120)));
  EXPECT_EQ(3, listener->failed());
  ExpectCleanRetry(db.get(), 16000);
}

// One transient compaction failure latches a soft error; the retry that
// installs clears it, so the store reports no error once the retry's end
// event has fired.
TEST_F(FaultTest, CompactionRetryClearsSoftError) {
  WriteLevel0(16000);
  options_.l0_compaction_trigger = 2;
  auto listener = std::make_shared<FailFirstCompactions>(
      &fault_env_, 1, [this] { fault_env_.FailAfterWrites(8); });
  options_.listeners.push_back(listener);
  auto db = Open();
  ASSERT_TRUE(listener->WaitForLevel0Merge(std::chrono::seconds(120)));
  EXPECT_EQ(1, listener->failed());
  EXPECT_EQ("OK", db->GetProperty("clsm.background-error"));
  ExpectCleanRetry(db.get(), 16000);
}

// A level-0 merge split into three key ranges, one of which fails the sync
// of an output: the finished outputs of its sibling ranges must go too.
TEST_F(FaultTest, FailedSplitCompactionLeavesNoSiblingTables) {
  options_.compaction_threads = 3;
  options_.target_file_size = 128 * 1024;
  // Level 1 first: one unsplit merge of the first level-0 tables.
  WriteLevel0(16000);
  options_.l0_compaction_trigger = 2;
  int level1_files = 0;
  {
    auto db = Open();
    db->WaitForMaintenance();
    const std::vector<int> files = LevelFiles(db.get());
    ASSERT_GE(files.size(), 2u);
    ASSERT_EQ(0, files[0]);
    level1_files = files[1];
  }
  ASSERT_GE(level1_files, 6);
  // Then new level-0 tables over the same keys, so the next level-0 merge
  // takes every level-1 file as input and splits three ways, each range
  // writing fewer than half of the outputs. Let that many output syncs
  // through and fail the next: at least one sibling range has finished an
  // output by then.
  WriteLevel0(16000);
  options_.l0_compaction_trigger = 2;
  const int passed_syncs = level1_files / 2;
  auto listener = std::make_shared<FailFirstCompactions>(
      &fault_env_, 1, [this, passed_syncs] { fault_env_.FailSyncs(1, passed_syncs); });
  options_.listeners.push_back(listener);
  auto db = Open();
  ASSERT_TRUE(listener->WaitForLevel0Merge(std::chrono::seconds(120)));
  EXPECT_EQ(1, listener->failed());
  ExpectCleanRetry(db.get(), 16000);
  // Both attempts split three ways, and the retry wrote more outputs than
  // the failed attempt let through.
  const std::string json = db->GetProperty("clsm.stats.json");
  const size_t level0 = json.find("\"level\":0,");
  ASSERT_NE(std::string::npos, level0) << json;
  const size_t at = json.find("\"subcompactions\":", level0);
  ASSERT_NE(std::string::npos, at) << json;
  EXPECT_EQ(6, std::atoi(json.c_str() + at + strlen("\"subcompactions\":"))) << json;
  EXPECT_GT(LevelFiles(db.get())[1], passed_syncs);
}

// A table whose first open fails is opened again by the next probe: a
// failed open is not remembered, so a transient read error heals.
TEST_F(FaultTest, FailedTableOpenIsRetried) {
  WriteLevel0(3000);  // "key0" is written first, so a table holds it
  auto db = Open();
  ASSERT_GT(LevelFiles(db.get())[0], 0);
  ReadOptions ro;
  std::string v;
  fault_env_.FailReads(true);
  Status s = db->Get(ro, "key0", &v);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  fault_env_.FailReads(false);
  s = db->Get(ro, "key0", &v);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(std::string(100, 'v'), v);
}

TEST_F(FaultTest, RecoveryAfterFaultyRun) {
  {
    auto db = Open();
    WriteOptions wo;
    for (int i = 0; i < 5000; i++) {
      ASSERT_TRUE(db->Put(wo, "pre" + std::to_string(i), "v").ok());
    }
    WriteOptions sync_wo;
    sync_wo.sync = true;
    ASSERT_TRUE(db->Put(sync_wo, "pre-barrier", "1").ok());
    db->WaitForMaintenance();
    fault_env_.FailAfterWrites(50);
    for (int i = 0; i < 5000; i++) {
      db->Put(wo, "post" + std::to_string(i), "v");
    }
    fault_env_.Heal();
    // Clean close after healing.
  }
  auto db = Open();
  ReadOptions ro;
  std::string v;
  for (int i = 0; i < 5000; i += 501) {
    EXPECT_TRUE(db->Get(ro, "pre" + std::to_string(i), &v).ok()) << i;
  }
}

}  // namespace
}  // namespace clsm
