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
//
// Lifecycle, observability and the read plumbing are the shared DbChassis
// (src/core/db_chassis.h); this class holds only cLSM's synchronization.
#ifndef CLSM_CORE_CLSM_DB_H_
#define CLSM_CORE_CLSM_DB_H_

#include <atomic>
#include <string>

#include "src/core/db_chassis.h"
#include "src/core/write_batch.h"
#include "src/sync/active_set.h"
#include "src/sync/shared_exclusive_lock.h"
#include "src/sync/time_counter.h"

namespace clsm {

class ClsmDb final : public DbChassis {
 public:
  // Opens (creating or recovering) the store at dbname.
  static Status Open(const Options& options, const std::string& dbname, DB** dbptr);

  ~ClsmDb() override { StopBackground(); }

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override;
  const char* Name() const override { return "clsm"; }

  // Exposed for tests: the timestamp a fresh serializable scan would use.
  SequenceNumber AcquireScanTimestampForTest() { return AcquireScanTimestamp(); }

 private:
  ClsmDb(const Options& options, const std::string& dbname);

  SequenceNumber CurrentTimestamp() override { return time_counter_.Get(); }
  void StartMaintenance(SequenceNumber recovered_seq) override;
  void ClearImmutable() override;

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
  class GateClient;

  // Maintenance thread: rolls memtables (beforeMerge), flushes (merge) and
  // swaps pointers (afterMerge). Compactions run on the storage engine's
  // worker pool (Options::compaction_threads workers picking disjoint
  // jobs), so rolls and flushes never queue behind long merges — the
  // reserved-flush-thread configuration of §5.3 is always in effect.
  void MaintenanceLoop();
  void RollMemTable();  // beforeMerge

  // --- cLSM synchronization state ---
  SharedExclusiveLock lock_;       // "Lock" of Algorithms 1-3
  TimeCounter time_counter_;       // global timestamp source
  ActiveTimestampSet active_;      // in-flight put timestamps
  std::atomic<uint64_t> snap_time_{0};  // latest chosen snapshot timestamp
};

}  // namespace clsm

#endif  // CLSM_CORE_CLSM_DB_H_
