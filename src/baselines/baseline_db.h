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
//  * writes are funneled through a single-writer queue with group commit,
//    and the queue head rolls the memtable inline when it is full;
//  * snapshots are a bare sequence read under the mutex (no Active set —
//    safe because writes are serialized);
//  * one maintenance thread flushes and compacts, and flushes keep every
//    version, as LevelDB's do.
// Subclasses override hooks to model each competitor's deviation.
#ifndef CLSM_BASELINES_BASELINE_DB_H_
#define CLSM_BASELINES_BASELINE_DB_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
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
  void WaitForMaintenance() override;

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
  class GateClient;
  virtual void RollMemTableLocked();  // requires mutex_
  void MaintenanceLoop();
  void RefComponents(MemTable** mem, MemTable** imm);

  // Latest-version lookup with mutex_ already held (RMW read step).
  Status GetLatestLocked(const Slice& key, std::string* value);

  std::mutex mutex_;  // LevelDB's global lock
  std::atomic<SequenceNumber> last_sequence_{0};
  std::deque<Writer*> writers_;  // guarded by mutex_
};

}  // namespace clsm

#endif  // CLSM_BASELINES_BASELINE_DB_H_
