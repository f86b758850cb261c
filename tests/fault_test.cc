// Failure injection: disk errors during flush/compaction/logging must
// surface as status errors (or background errors halting maintenance), and
// must never corrupt data that was already durable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <thread>

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

// Arms write failures for the first `failures` merging compactions, from
// their start to their end, so each of those jobs fails part-way through
// writing its output. Nothing else writes while they run (the store takes
// no writes then), so only compactions fail.
class FailFirstCompactions final : public EventListener {
 public:
  FailFirstCompactions(FaultInjectionEnv* env, int failures) : env_(env), to_fail_(failures) {}

  void OnCompactionBegin(const CompactionJobInfo& info) override {
    if (!info.trivial_move && to_fail_.fetch_sub(1) > 0) {
      env_->FailAfterWrites(8);
    }
  }
  void OnCompactionEnd(const CompactionJobInfo&) override { env_->Heal(); }
  void OnBackgroundError(const BackgroundErrorInfo& info) override {
    if (info.reason == BgErrorReason::kCompaction) {
      failed_.fetch_add(1);
    }
  }

  int failed() const { return failed_.load(); }

 private:
  FaultInjectionEnv* env_;
  std::atomic<int> to_fail_;
  std::atomic<int> failed_{0};
};

TEST_F(FaultTest, FailedCompactionsLeaveNoTableFiles) {
  const std::string dbname = dir_.path() + "/db";
  // Overlapping level-0 tables (at least two; how many depends on when the
  // memtable rolls), with compaction held off.
  options_.l0_compaction_trigger = 100;
  {
    auto db = Open();
    WriteOptions wo;
    const std::string value(100, 'v');
    for (int i = 0; i < 16000; i++) {
      ASSERT_TRUE(db->Put(wo, "key" + std::to_string(i * 7919 % 16000), value).ok());
    }
    db->WaitForMaintenance();
  }

  // Reopen with a low trigger: the level-0 merge starts on its own and its
  // first three attempts fail mid-output.
  options_.l0_compaction_trigger = 2;
  auto listener = std::make_shared<FailFirstCompactions>(&fault_env_, 3);
  options_.listeners.push_back(listener);
  auto db = Open();
  db->WaitForMaintenance();

  auto level_files = [&](int* level0) {
    std::istringstream in(db->GetProperty("clsm.levels").substr(strlen("files[")));
    int total = 0;
    int n;
    for (int level = 0; in >> n; level++) {
      if (level == 0) {
        *level0 = n;
      }
      total += n;
    }
    return total;
  };
  auto table_files_on_disk = [&] {
    std::vector<std::string> children;
    EXPECT_TRUE(fault_env_.GetChildren(dbname, &children).ok());
    int count = 0;
    for (const std::string& name : children) {
      uint64_t number;
      FileType type;
      if (ParseFileName(name, &number, &type) && type == kTableFile) {
        count++;
      }
    }
    return count;
  };

  // Wait for the retry that succeeds (level 0 drained), then for the disk
  // to settle on exactly the tables the current version references.
  int live = 0;
  int on_disk = -1;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    int level0 = -1;
    live = level_files(&level0);
    on_disk = table_files_on_disk();
    if (listener->failed() >= 3 && level0 == 0 && on_disk == live) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(3, listener->failed());
  EXPECT_GT(live, 0);
  EXPECT_EQ(live, on_disk) << "failed compactions left table files behind";

  ReadOptions ro;
  std::string v;
  for (int i = 0; i < 16000; i += 397) {
    EXPECT_TRUE(db->Get(ro, "key" + std::to_string(i), &v).ok()) << i;
  }
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
