// Shared chassis for the competitor concurrency architectures the paper
// evaluates against (§5): LevelDB, HyperLevelDB, RocksDB and bLSM. All
// variants run on the same StorageEngine (disk component, caches, merge
// machinery) as cLSM, so benchmark differences isolate the in-memory
// synchronization design — the paper's variable under test.
//
// The base implements the original LevelDB architecture faithfully:
//  * a global mutex protects critical sections at the beginning and end of
//    each read and write;
//  * writes are funneled through a single-writer queue with group commit;
//  * snapshots are a bare sequence read under the mutex (no Active set —
//    safe because writes are serialized).
// Subclasses override hooks to model each competitor's deviation.
#ifndef CLSM_BASELINES_BASELINE_DB_H_
#define CLSM_BASELINES_BASELINE_DB_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/core/db.h"
#include "src/core/snapshot.h"
#include "src/core/stats.h"
#include "src/core/write_batch.h"
#include "src/lsm/storage_engine.h"
#include "src/lsm/write_controller.h"
#include "src/obs/metrics.h"
#include "src/obs/op_trace.h"
#include "src/obs/perf_context.h"
#include "src/obs/slow_op.h"
#include "src/obs/stats_export.h"
#include "src/obs/stats_reporter.h"
#include "src/server/admin_server.h"

namespace clsm {

class BaselineDbBase : public DB {
 public:
  ~BaselineDbBase() override;

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override;
  std::string GetProperty(const Slice& property) override;
  bool FillStatsSource(StatsJsonSource* out) override {
    *out = StatsSource();
    return true;
  }
  void ResetStats() override;
  void WaitForMaintenance() override;

 protected:
  BaselineDbBase(const Options& options, const std::string& dbname);

  Status Init();

  // --- variant hooks ---
  // True: readers take the global mutex briefly (LevelDB, HyperLevelDB).
  // False: readers use epoch-protected pointer loads (RocksDB's thread-
  // local metadata caching, which avoids locks on the read path).
  virtual bool ReadersTakeMutex() const { return true; }

  // --- shared machinery ---
  struct Writer {
    explicit Writer(WriteBatch* b, bool s) : batch(b), sync(s) {}
    WriteBatch* batch;
    bool sync;
    bool done = false;
    Status status;
    std::condition_variable cv;
  };

  // stalled_out (when non-null) is set to true if this writer, as queue
  // head, waited in MakeRoomForWrite. Followers in the group-commit queue
  // report false: their queue wait is ordinary contention, not backpressure.
  Status WriteLocked(const WriteOptions& options, WriteBatch* updates,
                     bool* stalled_out = nullptr);
  // Admission for one write of `bytes` payload through the shared
  // WriteThrottle gate (hard stalls, rate limiting, inline memtable
  // rolls). Group-commit followers are not gated — only queue heads pass
  // through, charging their own batch's bytes.
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock, uint64_t bytes,
                          bool* stalled_out = nullptr);
  virtual void RollMemTableLocked();  // requires mutex_
  void FlushImmutable();      // maintenance thread
  void MaintenanceLoop();
  SequenceNumber SmallestLiveSnapshot();
  void RefComponents(MemTable** mem, MemTable** imm);

  Status GetInternal(const ReadOptions& options, const Slice& key, std::string* value,
                     SequenceNumber seq, SequenceNumber* seq_found);

  // Per-op attribution epilogue — same contract as ClsmDb::FinishOp: closes
  // the PerfContext, emits rate-bounded slow-op records, appends trace
  // records. No-op when start_ticks is 0.
  void FinishOp(DbOpType op, const Slice& key, uint32_t value_size, OpOutcome outcome,
                uint64_t start_ticks, bool stalled);
  // Latest-version lookup with mutex_ already held (RMW read step).
  Status GetLatestLocked(const ReadOptions& options, const Slice& key, std::string* value,
                         SequenceNumber* seq_found);

  // Feeds both stats renderers (clsm.stats.json and the admin server's
  // /metrics); baselines have no Active set, so that field stays null.
  StatsJsonSource StatsSource();

  const std::string dbname_;
  // Admin-server internal listeners; declared before engine_ so they can
  // join the Options listener list the engine samples at open (see
  // ClsmDb). Null when Options::admin_port < 0.
  std::shared_ptr<SlowOpRingListener> admin_slow_ring_;
  std::shared_ptr<TraceController> admin_trace_;
  StorageEngine engine_;

  std::mutex mutex_;  // LevelDB's global lock
  std::atomic<SequenceNumber> last_sequence_{0};

  std::atomic<MemTable*> mem_{nullptr};
  std::atomic<MemTable*> imm_{nullptr};
  std::atomic<AsyncLogger*> logger_{nullptr};
  // Written by rollers under mutex_, read lock-free by the maintenance
  // thread when flushing/GCing.
  std::atomic<uint64_t> log_number_{0};
  std::unique_ptr<AsyncLogger> imm_logger_;
  std::atomic<bool> imm_exists_{false};

  std::deque<Writer*> writers_;  // guarded by mutex_

  SnapshotList snapshots_;

  std::condition_variable maintenance_cv_;
  std::condition_variable work_done_cv_;
  std::atomic<bool> shutting_down_{false};
  // Sticky background error: engine_.bg_error() (shared with the engine's
  // compaction path, checked lock-free at write entry).
  std::thread maintenance_thread_;

  // Observability: same counters/latency series as ClsmDb so every variant
  // exports the identical "clsm.stats.json" schema.
  DbStats stats_;
  StatsRegistry registry_;
  // Shared admission gate; LevelDB semantics (fail writers on any latched
  // background error, L0 hard stop only blocks the roll).
  std::unique_ptr<WriteThrottle> throttle_;
  bool metrics_on_ = true;  // cached Options::latency_metrics
  std::unique_ptr<StatsReporter> reporter_;
  std::unique_ptr<AdminServer> admin_;  // non-null iff Options::admin_port >= 0

  // --- per-op attribution, cached at open (see ClsmDb) ---
  PerfLevel perf_level_ = PerfLevel::kDisabled;
  uint64_t slow_op_threshold_nanos_ = 0;
  bool trace_ops_ = false;
  bool attributed_ops_ = false;
  SlowOpRateLimiter slow_op_limiter_;
};

}  // namespace clsm

#endif  // CLSM_BASELINES_BASELINE_DB_H_
