// DbChassis — everything an engine variant needs around its concurrency
// control, written once. The paper's comparison (§5) runs every competitor
// on the same LSM substrate so that results isolate the in-memory
// synchronization design; this class is that substrate's DB-side half:
//
//  * lifecycle: recovery and WAL open, the maintenance thread's shutdown
//    flag and condition variables, the ordered StopBackground, the
//    teardown of the WAL and memory components;
//  * observability: the DbStats counters, the latency registry, the per-op attribution
//    prologue/epilogue (StartOp/FinishOp), the periodic reporter, the admin
//    server, the rpc attachment, GetProperty and the stats exporters;
//  * read plumbing: the Cm -> C'm -> Cd search, the latest-version read
//    of RMW and the pinned-component iterator;
//  * the wait for maintenance to drain (WaitForMaintenance).
//
// ClsmDb (the paper's contribution) and BaselineDbBase (the LevelDB-family
// competitors) derive from it and supply only their synchronization: the
// write path, how Get pins components, the scan timestamp, GetSnapshot,
// how RMW orders its read and write, the exclusion around the roll/flush
// pointer swaps, the maintenance loop and a WriteThrottle::Client. Variant
// hooks are virtual only on cold paths (open, stats, flush); no op path
// pays a virtual call here.
#ifndef CLSM_CORE_DB_CHASSIS_H_
#define CLSM_CORE_DB_CHASSIS_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/core/db.h"
#include "src/core/snapshot.h"
#include "src/core/stats.h"
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

class ActiveTimestampSet;

class DbChassis : public DB {
 public:
  ~DbChassis() override;

  void ReleaseSnapshot(const Snapshot* snapshot) override { snapshots_.Release(snapshot); }
  // Returns once no flush or compaction is pending or running (or a
  // background error wedged maintenance). A full Cm counts as pending only
  // where the maintenance thread rolls it; a baseline's next writer rolls
  // its own.
  void WaitForMaintenance() override;
  std::string GetProperty(const Slice& property) override;
  bool FillStatsSource(StatsJsonSource* out) override;
  void ResetStats() override;
  std::shared_ptr<SlowOpRingListener> AttachRpcObservability(
      std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace) override;

  // Opens db (recovery, fresh WAL, maintenance, reporter, admin server) and
  // hands it to *dbptr; on failure deletes it and returns the error. Every
  // variant's open function is this call on a freshly constructed db.
  static Status Open(std::unique_ptr<DbChassis> db, DB** dbptr);

 protected:
  // fail_on_any_bg_error / stop_only_when_mem_full configure the admission
  // gate (see WriteThrottle); stop_only_when_mem_full also says that
  // writers roll Cm inline, not the maintenance thread. flush_drops_shadowed:
  // a flush may drop versions shadowed at or below SmallestLiveSnapshot, as
  // compactions do (cLSM); false keeps every version, as LevelDB does.
  DbChassis(const Options& options, const std::string& dbname, bool fail_on_any_bg_error,
            bool stop_only_when_mem_full, bool flush_drops_shadowed);

  // --- variant hooks (cold paths only) ---
  // The variant's current write timestamp (clsm.last-ts, the GC bound).
  virtual SequenceNumber CurrentTimestamp() = 0;
  // Called once by Open after recovery, with Cm installed: adopt the
  // recovered last sequence and start the maintenance thread (plus any
  // other background machinery).
  virtual void StartMaintenance(SequenceNumber recovered_seq) = 0;
  // afterMerge: clear P'm (imm_ and imm_exists_) under the exclusion that
  // keeps readers from pinning it.
  virtual void ClearImmutable() = 0;

  // Stops, in order, the admin server and the reporter (both call the
  // virtual GetProperty), the maintenance thread and the compaction
  // workers. Every concrete variant's destructor calls it first, while its
  // own members are still alive.
  void StopBackground();

  // The WriteThrottle::Client answers every variant shares: the memory
  // components' state, read from their pointers, and the maintenance
  // wake-up. Each variant derives its client and adds how writers wait.
  class GateClient : public WriteThrottle::Client {
   public:
    explicit GateClient(DbChassis* db) : chassis_(db) {}
    bool MemFull() override {
      MemTable* m = chassis_->mem_.load(std::memory_order_acquire);
      return m->ApproximateMemoryUsage() >= chassis_->engine_.options().write_buffer_size;
    }
    double MemFillFraction() override {
      MemTable* m = chassis_->mem_.load(std::memory_order_acquire);
      return static_cast<double>(m->ApproximateMemoryUsage()) /
             static_cast<double>(
                 std::max<size_t>(1, chassis_->engine_.options().write_buffer_size));
    }
    bool ImmExists() override { return chassis_->imm_exists_.load(std::memory_order_acquire); }
    void KickMaintenance() override { chassis_->maintenance_cv_.notify_one(); }

   private:
    DbChassis* const chassis_;
  };

  // Per-op attribution prologue: publishes the perf level (resetting the
  // thread-local context) and returns the entry timestamp shared by every
  // sink — latency histograms, PerfContext timers, slow-op logging, op
  // tracing — or 0 when none of them needs it.
  uint64_t StartOp() {
    PerfContextStartOp(perf_level_);
    const bool timing = metrics_on_ || attributed_ops_ || tls_perf_context.timers_enabled();
    return timing ? LatencyClock::Ticks() : 0;
  }

  // Per-op attribution epilogue: closes the PerfContext (total_nanos),
  // records the op's latency sample (batches have no series), emits a
  // rate-bounded slow-op record when the op crossed
  // Options::slow_op_threshold_micros, and appends a trace record when a
  // listener opted into per-op records. No-op when start_ticks is 0.
  void FinishOp(DbOpType op, const Slice& key, uint32_t value_size, OpOutcome outcome,
                uint64_t start_ticks, bool stalled);

  // The read timestamp of options: its snapshot's, else `latest`.
  static SequenceNumber ReadTimestamp(const ReadOptions& options, SequenceNumber latest) {
    return options.snapshot != nullptr
               ? static_cast<const SnapshotImpl*>(options.snapshot)->timestamp()
               : latest;
  }

  // Loads and refs Pm and P'm (imm may come back null). The caller keeps
  // them from being retired meanwhile: an epoch guard, or a lock the
  // roll/flush swaps take.
  void RefMemTables(MemTable** mem, MemTable** imm) {
    *mem = mem_.load(std::memory_order_acquire);
    (*mem)->Ref();
    *imm = imm_.load(std::memory_order_acquire);
    if (*imm != nullptr) {
      (*imm)->Ref();
    }
  }

  // Algorithm 1, get, once the variant pinned Cm and C'm (refs this call
  // drops): search Cm, then C'm, then the disk component at timestamp seq,
  // and close the op that started at t0. Bumps the gets_from_* counter of
  // the component that answered; with PerfContext timers on, mem_search
  // covers the memtable probes and disk_search the table lookup.
  Status GetPinned(const ReadOptions& options, const Slice& key, SequenceNumber seq, MemTable* mem,
                   MemTable* imm, std::string* value, uint64_t t0);

  // RMW's read step: the latest version of key across mem, imm (may be
  // null) and Pd. The caller keeps mem and imm from being retired meanwhile
  // (refs, or a lock the roll and ClearImmutable take). Returns true if
  // some version exists; fills *value (valid only for kTypeValue), *type
  // and *seq.
  bool GetLatest(const Slice& key, MemTable* mem, MemTable* imm, std::string* value,
                 ValueType* type, SequenceNumber* seq);

  // Components pinned by a scan: released when its iterator is deleted.
  struct IterState {
    MemTable* mem = nullptr;
    MemTable* imm = nullptr;
    Version* version = nullptr;
  };
  static void CleanupIterState(void* arg1, void* arg2);
  // The user iterator over a pinned state (memtables and version all set)
  // at timestamp seq; takes ownership of state.
  Iterator* NewPinnedIterator(const ReadOptions& options, IterState* state, SequenceNumber seq);

  // Obsolete-version GC bound (§3.2.1): versions at or below the oldest
  // installed snapshot that are shadowed by newer ones may be discarded.
  SequenceNumber SmallestLiveSnapshot() {
    return snapshots_.OldestTimestamp(CurrentTimestamp());
  }

  // merge + afterMerge, run by the maintenance thread: writes C'm to level
  // 0 once its WAL is durable, then ClearImmutable, retires the component
  // after concurrent readers are done and sweeps the old WALs. With a hard
  // error latched it leaves C'm (and its WAL) in place: reads keep serving
  // it, and the next open replays the WAL.
  void FlushImmutable();

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

  // Component pointers (Figure 2b) and the WAL backing Cm, swapped
  // together by the variant's roll.
  std::atomic<MemTable*> mem_{nullptr};   // Pm
  std::atomic<MemTable*> imm_{nullptr};   // P'm
  std::atomic<bool> imm_exists_{false};   // fast-path view of imm_ != null
  std::atomic<AsyncLogger*> logger_{nullptr};
  std::atomic<uint64_t> log_number_{0};      // WAL number backing Cm
  std::unique_ptr<AsyncLogger> imm_logger_;  // retired logger draining to disk
  SnapshotList snapshots_;                   // installed snapshot handles

  // Maintenance thread machinery; the loop itself is the variant's. The
  // sticky background error lives in engine_.bg_error(), shared with the
  // engine's own background threads and checked lock-free at every write
  // entry point (see src/lsm/bg_error.h).
  std::mutex maintenance_mutex_;
  std::condition_variable maintenance_cv_;
  std::condition_variable work_done_cv_;
  std::atomic<bool> shutting_down_{false};
  std::thread maintenance_thread_;

  DbStats stats_;
  StatsRegistry registry_;
  // Shared admission gate (hard stalls + rate limiting); constructed after
  // stats_ since it captures &stats_ and engine_.options().
  std::unique_ptr<WriteThrottle> throttle_;
  // Cached Options::latency_metrics: when false, op paths skip every clock
  // read (the <5%-overhead escape hatch).
  const bool metrics_on_;
  // Per-op attribution, all cached at open.
  const PerfLevel perf_level_;
  const uint64_t slow_op_threshold_nanos_;  // 0 = slow-op logging off
  bool trace_ops_ = false;       // some listener wants per-op records
  bool attributed_ops_ = false;  // some attribution sink needs op timestamps
  SlowOpRateLimiter slow_op_limiter_;
  // Exported as the stats "active_set" block when the variant has one.
  const ActiveTimestampSet* active_set_ = nullptr;

 private:
  // The open sequence behind Open.
  Status Init();
  StatsJsonSource StatsSource();

  const bool flush_drops_shadowed_;
  const bool writers_roll_;  // stop_only_when_mem_full: Cm rolls in a writer
  std::unique_ptr<StatsReporter> reporter_;
  std::unique_ptr<AdminServer> admin_;  // non-null iff Options::admin_port >= 0
  RpcAttachment rpc_;
};

}  // namespace clsm

#endif  // CLSM_CORE_DB_CHASSIS_H_
