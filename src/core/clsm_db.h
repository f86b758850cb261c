// ClsmDb — the paper's contribution (§3): scalable concurrency for an
// LSM data store.
//
//  * Gets never block: component pointers (Pm, P'm, Pd) are read under
//    epoch protection with per-component refcounts (§3.1).
//  * Puts, deletes and atomic batches share one write path: they run
//    concurrently and lock-free against each other, holding the
//    shared-exclusive lock in shared mode only to exclude the brief
//    beforeMerge/afterMerge pointer swaps (Algorithm 1).
//  * Snapshot scans are serializable multi-version reads driven by the
//    timeCounter / Active-set / snapTime protocol (Algorithm 2).
//  * Read-modify-write is atomic and non-blocking via optimistic CAS
//    insertion into the skip-list bottom level (Algorithm 3).
#ifndef CLSM_CORE_CLSM_DB_H_
#define CLSM_CORE_CLSM_DB_H_

#include <atomic>
#include <condition_variable>
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
#include "src/sync/active_set.h"
#include "src/sync/shared_exclusive_lock.h"
#include "src/sync/time_counter.h"

namespace clsm {

class ClsmDb final : public DB {
 public:
  // Opens (creating or recovering) the store at dbname.
  static Status Open(const Options& options, const std::string& dbname, DB** dbptr);

  ClsmDb(const ClsmDb&) = delete;
  ClsmDb& operator=(const ClsmDb&) = delete;

  ~ClsmDb() override;

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override;
  const char* Name() const override { return "clsm"; }
  std::string GetProperty(const Slice& property) override;
  bool FillStatsSource(StatsJsonSource* out) override {
    *out = StatsSource();
    return true;
  }
  void ResetStats() override;
  void WaitForMaintenance() override;
  std::shared_ptr<SlowOpRingListener> AttachRpcObservability(
      std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace) override;

  // Exposed for tests: the timestamp a fresh serializable scan would use.
  SequenceNumber AcquireScanTimestampForTest() { return AcquireScanTimestamp(); }

 private:
  ClsmDb(const Options& options, const std::string& dbname);

  Status Init();

  // Algorithm 2, getTS, over a range: reserve n fresh timestamps
  // [first, first + n) with one counter increment, register first in the
  // Active set, and retry while the range would invalidate a concurrent
  // snapshot. Returns first.
  SequenceNumber GetTS(uint64_t n = 1);

  // Algorithm 2 lines 9-14 (without installing a handle): pick a
  // serializable snapshot timestamp. With Options::linearizable_snapshots
  // the Active-set adjustment is omitted (§3.2.1), so the returned time is
  // never in the past of the call.
  SequenceNumber AcquireScanTimestamp();

  // One write of Put, Delete or an RMW attempt. Commit and LogAndRelease
  // take these or a batch's WriteBatch::Op, which has the same fields.
  struct WriteOp {
    ValueType type;
    Slice key;
    Slice value;
  };

  // The write path (Algorithm 2, put, for n >= 1 ops): throttle, shared
  // lock, GetTS(n), insert op i at first + i, then LogAndRelease. op is
  // kPut, kDelete (n == 1) or kWrite; it names the latency histogram and
  // the trace record.
  template <typename Op>
  Status Commit(const WriteOptions& options, DbOpType op, const Op* ops, size_t n);

  // The tail of every write, shared by Commit and ReadModifyWrite: append
  // the n ops (at timestamps first, first + 1, ...) as one WAL record, sync
  // or async, then leave the Active set and release the shared lock.
  template <typename Op>
  Status LogAndRelease(const WriteOptions& options, SequenceNumber first, const Op* ops, size_t n);

  // Latest value/timestamp of key across Pm, P'm, Pd (RMW read step).
  // Returns true if some version exists; fills *value (valid only for
  // kTypeValue), *type and *seq.
  bool GetLatest(const Slice& key, std::string* value, ValueType* type, SequenceNumber* seq);

  // Backpressure, via the shared WriteThrottle gate: wait while Cm is full
  // but C'm has not finished merging (heavy-compaction mode, §5.3) or
  // while level 0 is at the safety cap, and meter `bytes` through the
  // write controller's token bucket, so L0 growth degrades writers
  // gradually instead of cliff-stalling them. All waiting time is recorded
  // in Stats. Returns the latched background error, if any, so writers
  // fail fast instead of stalling behind a maintenance pipeline that
  // cannot make progress. When stalled_out is non-null it is set to true
  // if this call waited at all (hard stall or admission delay) — the
  // per-op "stalled" bit of slow-op records.
  Status ThrottleIfNeeded(uint64_t bytes, bool* stalled_out = nullptr);

  // Per-op attribution epilogue, shared by every public op: closes the
  // PerfContext (total_nanos), emits a rate-bounded slow-op record when
  // the op crossed Options::slow_op_threshold_micros, and appends a trace
  // record when a listener opted into per-op records. start_ticks is 0
  // when no attribution sink needed timing (then this is a no-op).
  void FinishOp(DbOpType op, const Slice& key, uint32_t value_size, OpOutcome outcome,
                uint64_t start_ticks, bool stalled);

  // Maintenance thread: rolls memtables (beforeMerge), flushes (merge) and
  // swaps pointers (afterMerge). Compactions run on the storage engine's
  // worker pool (Options::compaction_threads workers picking disjoint
  // jobs), so rolls and flushes never queue behind long merges — the
  // reserved-flush-thread configuration of §5.3 is always in effect.
  void MaintenanceLoop();
  void RollMemTable();   // beforeMerge
  void FlushImmutable(); // merge + afterMerge
  SequenceNumber SmallestLiveSnapshot();

  // The one place that knows which observability state feeds the stats
  // exporters; both the clsm.stats.json property and the admin server's
  // /metrics render from it.
  StatsJsonSource StatsSource();

  const std::string dbname_;
  // Admin-server internal listeners (slow-op ring for GET /slowops, trace
  // controller for POST /control/trace/*). Declared before engine_: they
  // are appended to the Options listener list the engine is built with
  // (WantsOperationRecords is sampled once at open), so they must exist
  // first. Null when Options::admin_port < 0 — a disabled admin server
  // costs the op paths nothing.
  std::shared_ptr<SlowOpRingListener> admin_slow_ring_;
  std::shared_ptr<TraceController> admin_trace_;
  StorageEngine engine_;

  // --- cLSM synchronization state ---
  SharedExclusiveLock lock_;       // "Lock" of Algorithms 1-3
  TimeCounter time_counter_;       // global timestamp source
  ActiveTimestampSet active_;      // in-flight put timestamps
  std::atomic<uint64_t> snap_time_{0};  // latest chosen snapshot timestamp
  SnapshotList snapshots_;         // installed snapshot handles

  // Component pointers (Figure 2b). Swapped only under the exclusive lock;
  // read under epoch protection.
  std::atomic<MemTable*> mem_{nullptr};   // Pm
  std::atomic<MemTable*> imm_{nullptr};   // P'm

  // WAL: swapped together with the memtable under the exclusive lock.
  std::atomic<AsyncLogger*> logger_{nullptr};
  uint64_t log_number_ = 0;       // current WAL number (maintenance thread)
  uint64_t imm_log_number_ = 0;   // WAL number backing imm_
  std::unique_ptr<AsyncLogger> imm_logger_;  // retired logger draining to disk

  // Maintenance thread machinery.
  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;
  std::condition_variable work_done_cv_;
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> imm_exists_{false};  // fast-path view of imm_ != null
  // The sticky background error lives in engine_.bg_error(): shared with
  // the engine's own background threads and checked lock-free at every
  // write entry point (see src/lsm/bg_error.h).
  std::thread maintenance_thread_;

  DbStats stats_;
  StatsRegistry registry_;
  // Shared admission gate (hard stalls + rate limiting); constructed after
  // stats_ since it captures &stats_ and engine_.options().
  std::unique_ptr<WriteThrottle> throttle_;
  // Cached Options::latency_metrics: when false, op paths skip every clock
  // read (the <5%-overhead escape hatch).
  bool metrics_on_ = true;
  std::unique_ptr<StatsReporter> reporter_;
  std::unique_ptr<AdminServer> admin_;  // non-null iff Options::admin_port >= 0

  // --- per-op attribution (PR-4), all cached at open ---
  PerfLevel perf_level_ = PerfLevel::kDisabled;
  uint64_t slow_op_threshold_nanos_ = 0;  // 0 = slow-op logging off
  bool trace_ops_ = false;   // some listener wants per-op records
  // True when any attribution sink needs op entry/exit timestamps.
  bool attributed_ops_ = false;
  SlowOpRateLimiter slow_op_limiter_;

  // Serving-tier observability handles, attached late by a KvService
  // (the service starts after the DB and its admin server are up). Only
  // ever set, never cleared — a scrape mid-service-shutdown still renders.
  // Guarded by rpc_mu_; scrape/admin paths only, never op paths.
  std::mutex rpc_mu_;
  std::shared_ptr<RpcServerStats> rpc_stats_;       // guarded by rpc_mu_
  std::shared_ptr<TraceEventListener> rpc_trace_;   // guarded by rpc_mu_
};

}  // namespace clsm

#endif  // CLSM_CORE_CLSM_DB_H_
