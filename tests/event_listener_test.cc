// Tests of the EventListener hook interface (Options::listeners): hook
// ordering (Begin strictly before End, roll before the flush it feeds),
// stall bracketing (every OnStallBegin matched by exactly one OnStallEnd on
// the same thread), and the bundled TraceEventListener's Chrome trace dump.
// Run under TSan in CI: listeners fire from maintenance threads, compaction
// workers, the WAL logger and stalled writers concurrently.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/factory.h"
#include "src/obs/event_listener.h"
#include "src/obs/trace_listener.h"
#include "src/util/env.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

// Records every hook invocation with a global order index; asserts the
// listener contract from the inside (each hook sees consistent info).
class CollectingListener : public EventListener {
 public:
  struct Event {
    std::string kind;
    std::thread::id tid;
    int level = -1;
    uint64_t arg = 0;
  };

  void OnMemtableRoll(uint64_t memtable_bytes) override {
    Push({"roll", std::this_thread::get_id(), -1, memtable_bytes});
  }
  void OnFlushBegin(const FlushJobInfo& info) override {
    Push({"flush_begin", std::this_thread::get_id(), -1, info.memtable_entries});
  }
  void OnFlushEnd(const FlushJobInfo& info) override {
    Push({"flush_end", std::this_thread::get_id(), -1, info.output_file_size});
  }
  void OnCompactionBegin(const CompactionJobInfo& info) override {
    Push({"compact_begin", std::this_thread::get_id(), info.level, info.bytes_read});
  }
  void OnCompactionEnd(const CompactionJobInfo& info) override {
    Push({"compact_end", std::this_thread::get_id(), info.level, info.bytes_written});
  }
  void OnStallBegin(StallReason reason) override {
    Push({"stall_begin", std::this_thread::get_id(), static_cast<int>(reason), 0});
  }
  void OnStallEnd(StallReason reason, uint64_t micros) override {
    Push({"stall_end", std::this_thread::get_id(), static_cast<int>(reason), micros});
  }
  void OnWalSync(const WalSyncInfo& info) override {
    Push({"wal_sync", std::this_thread::get_id(), -1, info.records});
  }

  std::vector<Event> Snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
  }

  uint64_t Count(const std::string& kind) const {
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t n = 0;
    for (const Event& e : events_) {
      n += e.kind == kind ? 1 : 0;
    }
    return n;
  }

 private:
  void Push(Event e) {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(e));
  }

  mutable std::mutex mutex_;
  std::vector<Event> events_;
};

// A latch that opens once and stays open. Waiters give up after `limit`
// so a store that never stalls fails the test's assertions instead of
// hanging it.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }
  void Wait(std::chrono::milliseconds limit) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, limit, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
};

// Forwards to Env::Default(), but creating a table file (.sst) waits for
// the gate: flushes cannot finish until the gate opens, so writers that
// fill the memtable behind a pending immutable one must stall.
class TableGateEnv final : public Env {
 public:
  explicit TableGateEnv(Gate* gate) : base_(Env::Default()), gate_(gate) {}

  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    return base_->NewSequentialFile(fname, result);
  }
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override {
    return base_->NewRandomAccessFile(fname, result);
  }
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    const std::string suffix = ".sst";
    if (fname.size() >= suffix.size() &&
        fname.compare(fname.size() - suffix.size(), suffix.size(), suffix) == 0) {
      gate_->Wait(std::chrono::seconds(30));
    }
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
  Env* base_;
  Gate* gate_;
};

// Opens `rolled` at the first memtable roll and `stalled` at the first
// stall.
class OpenGatesOnRollAndStall : public EventListener {
 public:
  OpenGatesOnRollAndStall(Gate* rolled, Gate* stalled) : rolled_(rolled), stalled_(stalled) {}
  void OnMemtableRoll(uint64_t) override { rolled_->Open(); }
  void OnStallBegin(StallReason) override { stalled_->Open(); }

 private:
  Gate* rolled_;
  Gate* stalled_;
};

class EventListenerTest : public ::testing::TestWithParam<DbVariant> {
 protected:
  EventListenerTest() : dir_("listener"), listener_(std::make_shared<CollectingListener>()) {}

  std::unique_ptr<DB> OpenFresh(Options options) {
    options.listeners.push_back(listener_);
    DB* raw = nullptr;
    Status s = OpenDb(GetParam(), options, dir_.path() + "/db", &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(raw);
  }

  ScratchDir dir_;
  std::shared_ptr<CollectingListener> listener_;
};

// Enough writes through a tiny buffer to force rolls, flushes and at least
// one compaction; then check pairing and ordering invariants.
TEST_P(EventListenerTest, FlushAndCompactionHooksPairAndOrder) {
  Options options;
  options.write_buffer_size = 64 * 1024;
  options.target_file_size = 64 * 1024;
  std::unique_ptr<DB> db = OpenFresh(options);

  WriteOptions wo;
  std::string value(512, 'v');
  char key[32];
  int next_key = 0;
  auto write_block = [&](int n) {
    for (int i = 0; i < n; i++) {
      snprintf(key, sizeof(key), "key-%06d", next_key++);
      ASSERT_TRUE(db->Put(wo, key, value).ok());
    }
  };
  write_block(4000);
  db->WaitForMaintenance();
  // Compaction scheduling is asynchronous; keep feeding L0 until one runs.
  for (int round = 0; round < 50 && listener_->Count("compact_begin") == 0; round++) {
    write_block(1000);
    db->WaitForMaintenance();
  }
  db.reset();  // all hooks quiesced

  std::vector<CollectingListener::Event> events = listener_->Snapshot();
  ASSERT_FALSE(events.empty());

  uint64_t rolls = 0, flush_begins = 0, flush_ends = 0;
  uint64_t compact_begins = 0, compact_ends = 0;
  int open_flushes = 0, open_compactions = 0;
  for (const auto& e : events) {
    if (e.kind == "roll") {
      rolls++;
    } else if (e.kind == "flush_begin") {
      flush_begins++;
      open_flushes++;
      // Only one immutable memtable exists at a time: flushes serialize.
      EXPECT_LE(open_flushes, 1);
    } else if (e.kind == "flush_end") {
      flush_ends++;
      open_flushes--;
      EXPECT_GE(open_flushes, 0) << "flush_end without flush_begin";
    } else if (e.kind == "compact_begin") {
      compact_begins++;
      open_compactions++;
      EXPECT_GE(e.level, 0);
    } else if (e.kind == "compact_end") {
      compact_ends++;
      open_compactions--;
      EXPECT_GE(open_compactions, 0) << "compact_end without compact_begin";
    }
  }
  // ~2MB through a 64KB buffer: rolls and flushes are guaranteed; every
  // begin got its end (WaitForMaintenance + close drained the pipeline).
  EXPECT_GE(rolls, 4u);
  EXPECT_GE(flush_begins, 4u);
  EXPECT_EQ(flush_begins, flush_ends);
  EXPECT_EQ(compact_begins, compact_ends);
  EXPECT_GE(compact_begins, 1u);  // 64KB L0 files past the trigger
  // Rolls feed flushes: the flush pipeline can't outrun the roll count.
  EXPECT_GE(rolls, flush_begins);
}

TEST_P(EventListenerTest, StallEventsBracketOnWriterThread) {
  Options options;
  // Aggressive backpressure: stall quickly and often.
  options.write_buffer_size = 32 * 1024;
  options.target_file_size = 32 * 1024;
  options.l0_safety_cap = 8;
  // Hold the first flush until some writer stalls, and hold the writers
  // halfway until the first roll. Racing the maintenance thread, writers
  // could otherwise finish before it rolls (cLSM puts overfill Cm while
  // the roll is pending) or after it flushed each immutable memtable, and
  // never find Cm full behind a pending C'm.
  Gate rolled;
  Gate stalled;
  TableGateEnv env(&stalled);
  options.env = &env;
  options.listeners.push_back(std::make_shared<OpenGatesOnRollAndStall>(&rolled, &stalled));
  std::unique_ptr<DB> db = OpenFresh(options);

  constexpr int kThreads = 4;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; t++) {
    writers.emplace_back([&db, &rolled, t] {
      WriteOptions wo;
      std::string value(512, 'w');
      char key[32];
      for (int i = 0; i < 1000; i++) {
        if (i == 500) {
          rolled.Wait(std::chrono::seconds(30));
        }
        snprintf(key, sizeof(key), "s%02d-%06d", t, i);
        ASSERT_TRUE(db->Put(wo, key, value).ok());
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  db->WaitForMaintenance();
  db.reset();

  // Per-thread bracketing: on any single thread, stall events strictly
  // alternate begin/end with matching reasons (stalls never nest).
  std::map<std::thread::id, std::vector<CollectingListener::Event>> by_thread;
  for (const auto& e : listener_->Snapshot()) {
    if (e.kind == "stall_begin" || e.kind == "stall_end") {
      by_thread[e.tid].push_back(e);
    }
  }
  uint64_t total_stalls = 0;
  for (const auto& [tid, seq] : by_thread) {
    for (size_t i = 0; i < seq.size(); i++) {
      if (i % 2 == 0) {
        EXPECT_EQ(seq[i].kind, "stall_begin");
      } else {
        EXPECT_EQ(seq[i].kind, "stall_end");
        EXPECT_EQ(seq[i].level, seq[i - 1].level) << "reason mismatch across a stall pair";
      }
    }
    EXPECT_EQ(seq.size() % 2, 0u) << "unterminated stall on a writer thread";
    total_stalls += seq.size() / 2;
  }
  // 1MB into a 32KB buffer behind an immutable memtable whose flush waits
  // for a stall.
  EXPECT_GE(total_stalls, 1u);
}

TEST_P(EventListenerTest, WalSyncHookFires) {
  Options options;
  std::unique_ptr<DB> db = OpenFresh(options);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put(sync_wo, "k" + std::to_string(i), "v").ok());
  }
  db.reset();
  EXPECT_GE(listener_->Count("wal_sync"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Variants, EventListenerTest,
                         ::testing::Values(DbVariant::kClsm, DbVariant::kLevelDb),
                         [](const ::testing::TestParamInfo<DbVariant>& info) {
                           return std::string(VariantName(info.param));
                         });

// ---------------------------------------------------------------------------
// TraceEventListener
// ---------------------------------------------------------------------------

TEST(TraceEventListenerTest, DumpsChromeTraceOfFlushCompactionCascade) {
  ScratchDir dir("trace");
  auto tracer = std::make_shared<TraceEventListener>();
  Options options;
  options.write_buffer_size = 64 * 1024;
  options.target_file_size = 64 * 1024;
  options.listeners.push_back(tracer);
  DB* raw = nullptr;
  ASSERT_TRUE(OpenDb(DbVariant::kClsm, options, dir.path() + "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  WriteOptions wo;
  std::string value(512, 't');
  char key[32];
  int next_key = 0;
  auto write_block = [&](int n) {
    for (int i = 0; i < n; i++) {
      snprintf(key, sizeof(key), "key-%06d", next_key++);
      ASSERT_TRUE(db->Put(wo, key, value).ok());
    }
  };
  write_block(4000);
  db->WaitForMaintenance();
  // Whether a compaction has run by now is a scheduling race; keep feeding
  // the tree until one lands (bounded: each round adds ~8 more 64KB L0
  // files, far past the trigger).
  for (int round = 0;
       round < 50 && tracer->DumpChromeTrace().find("\"compact") == std::string::npos;
       round++) {
    write_block(1000);
    db->WaitForMaintenance();
  }
  db.reset();

  EXPECT_GT(tracer->NumRecorded(), 0u);
  EXPECT_LE(tracer->NumRetained(), tracer->NumRecorded());

  std::string json = tracer->DumpChromeTrace();
  // Chrome trace_event envelope with paired duration events for the
  // flush -> compaction cascade the workload forced.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"flush\""), std::string::npos);
  EXPECT_NE(json.find("\"compact"), std::string::npos);
  // Every event names pid/tid/ts as the trace viewer requires.
  EXPECT_NE(json.find("\"pid\":"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
}

TEST(TraceEventListenerTest, RingBufferBoundsRetention) {
  TraceEventListener tracer(/*capacity=*/8);
  for (int i = 0; i < 100; i++) {
    tracer.OnMemtableRoll(static_cast<uint64_t>(i));
  }
  EXPECT_EQ(tracer.NumRecorded(), 100u);
  EXPECT_EQ(tracer.NumRetained(), 8u);
  std::string json = tracer.DumpChromeTrace();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
}

}  // namespace
}  // namespace clsm
