// Shared base for the competitor concurrency architectures the paper
// evaluates against (§5): LevelDB, HyperLevelDB, RocksDB and bLSM. Like
// ClsmDb it derives from the engine chassis (src/core/db_chassis.h) and
// runs on the same StorageEngine (disk component, caches, merge
// machinery), so benchmark differences isolate the in-memory
// synchronization design — the paper's variable under test.
//
// The base implements the original LevelDB synchronization faithfully:
//  * a global mutex protects critical sections at the beginning and end of
//    each read and write;
//  * every write (Put, Delete, batch Write, ReadModifyWrite) goes through
//    one single-writer queue with group commit. The queue head passes the
//    write gate, rolling the memtable inline when it is full, then applies
//    the group outside the mutex under the exclusive apply latch: read the
//    last sequence, insert, log, publish;
//  * an RMW is a queue writer that is never grouped behind another head. As
//    head it reads the key's latest value and runs its function under the
//    apply latch, so the read and its write are one step of the write order;
//  * snapshots are a bare sequence read under the mutex (no Active set —
//    safe because each group publishes its sequence once, after all its
//    inserts);
//  * one maintenance thread flushes and compacts, and flushes keep every
//    version, as LevelDB's do.
// Subclasses override hooks to model each competitor's deviation.
#ifndef CLSM_BASELINES_BASELINE_DB_H_
#define CLSM_BASELINES_BASELINE_DB_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <string>

#include "src/core/db_chassis.h"
#include "src/core/write_batch.h"

namespace clsm {

class BaselineDbBase : public DbChassis {
 public:
  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override;

 protected:
  BaselineDbBase(const Options& options, const std::string& dbname);

  SequenceNumber CurrentTimestamp() override {
    return last_sequence_.load(std::memory_order_acquire);
  }
  void StartMaintenance(SequenceNumber recovered_seq) override;
  void ClearImmutable() override;

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
    // Set for a read-modify-write: as queue head, the writer runs *rmw on
    // rmw_key and puts its result, if any, into batch.
    const RmwFunction* rmw = nullptr;
    Slice rmw_key;
    bool done = false;
    Status status;
    std::condition_variable cv;
  };

  // The one write path: enqueue w, and as queue head pass the gate, group
  // the writers queued behind it and apply, log and publish the group.
  // stalled_out (when non-null) is set to true if w, as queue head, waited
  // in MakeRoomForWrite. Followers in the group-commit queue report false:
  // their queue wait is ordinary contention, not backpressure.
  Status WriteLocked(Writer* w, bool* stalled_out);
  // Put, Delete and Write: batch through WriteLocked as one op of type op,
  // traced with trace_key and trace_bytes.
  Status Commit(const WriteOptions& options, DbOpType op, const Slice& trace_key,
                uint32_t trace_bytes, WriteBatch* batch);
  // Admission for one write of `bytes` payload through the shared
  // WriteThrottle gate (hard stalls, rate limiting, inline memtable
  // rolls). Group-commit followers are not gated — only queue heads pass
  // through, charging their own batch's bytes.
  Status MakeRoomForWrite(std::unique_lock<std::mutex>& lock, uint64_t bytes, bool* stalled_out);
  // ReadModifyWrite with the read either by the queue head (read_in_queue)
  // or here, before the write is queued (the lock-striping variant, whose
  // stripe lock already makes the read and the write atomic).
  Status Rmw(const WriteOptions& options, const Slice& key, const RmwFunction& f,
             bool* performed, bool read_in_queue);
  class GateClient;
  void RollMemTableLocked();  // requires mutex_
  void MaintenanceLoop();
  void RefComponents(MemTable** mem, MemTable** imm);
  // RMW's read and compute: f on key's latest value in mem, imm and Pd; its
  // result, if any, becomes a Put in batch.
  void ComputeRmw(const Slice& key, const RmwFunction& f, MemTable* mem, MemTable* imm,
                  WriteBatch* batch);

  std::mutex mutex_;  // LevelDB's global lock
  // Published sequence: every insert at or below it is in the memtable.
  std::atomic<SequenceNumber> last_sequence_{0};
  // Highest sequence number handed out. It runs ahead of last_sequence_
  // only while HyperLevelDB's concurrent inserts are in flight; the group
  // apply advances both under the exclusive apply latch.
  std::atomic<SequenceNumber> last_claimed_{0};
  std::deque<Writer*> writers_;  // guarded by mutex_
  // Taken exclusively by the queue head's group apply (sequence read,
  // inserts, log, publish), by the roll and by ClearImmutable, so none of
  // them overlaps another; HyperLevelDB's concurrent inserts take it
  // shared.
  std::shared_mutex apply_latch_;
};

}  // namespace clsm

#endif  // CLSM_BASELINES_BASELINE_DB_H_
