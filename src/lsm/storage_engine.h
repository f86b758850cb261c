// StorageEngine: the disk component and merge machinery shared by cLSM and
// every baseline DB variant. It owns the version set, the block cache,
// WAL files, compaction logic and the background compaction scheduler; the
// DB variants on top differ only in their in-memory concurrency control —
// exactly the variable the paper's evaluation isolates (§5: all systems
// inherit the same disk-side modules).
//
// Thread contract: Get/AddVersionIterators are safe from any thread and
// never block (epoch-protected version access). FlushMemTable/LogAndApply
// must be called from a single flush/maintenance thread. Compactions run
// either synchronously through CompactOnce (single maintenance thread, one
// merge range per job) or on the engine's own worker pool
// (StartCompactionScheduler), whose workers also merge the key ranges of
// each other's jobs — the two modes must not be mixed.
#ifndef CLSM_LSM_STORAGE_ENGINE_H_
#define CLSM_LSM_STORAGE_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/stats.h"
#include "src/lsm/bg_error.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/memtable.h"
#include "src/lsm/version_set.h"
#include "src/obs/event_listener.h"
#include "src/obs/metrics.h"
#include "src/sync/ref_guard.h"
#include "src/wal/async_logger.h"

namespace clsm {

// Serialization of operations into / out of WAL records. Each operation
// carries its cLSM timestamp so recovery can restore the correct order even
// though the asynchronous logger may write records out of order (paper §4).
// A WAL record holds ONE OR MORE operations: atomic batches append all
// their operations into a single record, making the batch all-or-nothing
// across crashes (a log record is the unit of torn-tail discard).
void EncodeWalRecord(std::string* dst, SequenceNumber seq, ValueType type, const Slice& key,
                     const Slice& value);
// Parses one operation from *input, advancing it. Returns false on
// malformed data.
bool DecodeWalOpFrom(Slice* input, SequenceNumber* seq, ValueType* type, Slice* key,
                     Slice* value);

class StorageEngine {
 public:
  StorageEngine(const Options& options, const std::string& dbname);

  StorageEngine(const StorageEngine&) = delete;
  StorageEngine& operator=(const StorageEngine&) = delete;

  ~StorageEngine();

  // Creates/recovers the store. On return *recovered_mem (Ref'd, may be
  // null if nothing to recover) holds WAL entries replayed in timestamp
  // order, and *max_seq the largest recovered timestamp.
  Status Open(MemTable** recovered_mem, SequenceNumber* max_seq);

  // Point lookup in the disk component as of the sequence in lookup_key.
  Status Get(const ReadOptions& options, const LookupKey& lookup_key, std::string* value,
             SequenceNumber* seq_found = nullptr);

  // Appends iterators over the current disk version to *iters and returns
  // the version with a reference the caller must Unref (after the iterators
  // are destroyed).
  Version* AddVersionIterators(const ReadOptions& options, std::vector<Iterator*>* iters);

  // --- Maintenance-thread-only operations ---

  // Writes the (immutable) memtable to a level-0 table and logs the edit.
  // log_number: WAL files strictly older than this become obsolete.
  // smallest_snapshot: as for CompactOnce; a version shadowed by a newer one
  // at or below it is left out of the table (0 keeps every version).
  Status FlushMemTable(MemTable* mem, uint64_t log_number, SequenceNumber smallest_snapshot = 0);

  // Persists a new current log number (empty version edit). Required after
  // opening a fresh WAL with nothing to flush: it rewrites the manifest so
  // RemoveObsoleteFiles never strands CURRENT pointing at a GC'd manifest.
  Status CommitLogRotation(uint64_t log_number);

  // Runs at most one compaction step. did_work reports whether anything ran.
  // smallest_snapshot: versions at or below this sequence that are shadowed
  // by newer ones can be discarded (paper §3.2.1's obsolete-version GC).
  // Single-maintenance-thread mode only (do not mix with the scheduler).
  Status CompactOnce(SequenceNumber smallest_snapshot, bool* did_work);

  // --- Parallel compaction scheduler (paper §5.3's multi-threaded
  // background compaction configuration) ---

  // Starts num_threads workers that repeatedly pick disjoint compactions
  // (VersionSet::PickCompaction excludes in-flight levels/files) and run
  // them concurrently; LogAndApply serializes the installs. Each merge is
  // split into at most num_threads key ranges (RunCompaction), and an idle
  // worker merges a range another worker's job offers before it picks new
  // work. smallest_snapshot is polled per job for the obsolete-version GC
  // bound; on_error (may be null) latches background failures. Idempotent
  // per engine lifetime.
  void StartCompactionScheduler(int num_threads,
                                std::function<SequenceNumber()> smallest_snapshot,
                                std::function<void(const Status&)> on_error);

  // Stops and joins the workers; in-flight jobs finish first. Safe to call
  // multiple times (the destructor also calls it).
  void StopCompactionScheduler();

  // Wakes the workers (e.g. after a flush created new level-0 files).
  void SignalCompaction();

  // Runs one already-picked compaction (trivial move or merge) and records
  // its per-level stats; CompactOnce and the workers both end here. A merge
  // is split into at most max_ranges key ranges (Compaction::RangeCuts)
  // whose outputs install with one edit. The calling thread merges the
  // first range; the others are offered to idle scheduler workers, and the
  // caller merges every range no worker has taken, then waits for the
  // rest. If any range fails, nothing is installed and the outputs of
  // every range are removed. A job that installs clears a soft background
  // error and releases its inputs (Compaction::ReleaseInputs) before its
  // end event, so the tables it replaced are gone by then.
  Status RunCompaction(Compaction* c, SequenceNumber smallest_snapshot, int max_ranges);

  // True when no compaction is running and none is needed. Advisory (racy);
  // used by WaitForMaintenance-style polling.
  bool CompactionsIdle() const {
    return versions_->NumInFlightCompactions() == 0 && !NeedsCompaction();
  }

  bool NeedsCompaction() const { return versions_->NeedsCompaction(); }
  int NumLevelFiles(int level) const { return versions_->NumLevelFiles(level); }

  // Per-level compaction accounting (bytes read/written, job counts, time).
  CompactionStats* compaction_stats() { return &compaction_stats_; }

  // Event-listener fan-out (built from Options::listeners). The owning DB
  // also dispatches its own events (rolls, stalls) through this set.
  const ListenerSet& listeners() const { return listeners_; }

  // Sticky background error shared by the engine and the owning DB. Write
  // entry points check bg_error()->writes_blocked(); background work calls
  // RecordBackgroundError on failure.
  BackgroundErrorState* bg_error() { return &bg_error_; }
  const BackgroundErrorState* bg_error() const { return &bg_error_; }

  // Latch s into the sticky state and notify listeners. No-op when s is OK.
  void RecordBackgroundError(BgErrorReason reason, const Status& s);

  // Best-effort file removal for error paths and obsolete-file sweeps:
  // failures bump the cleanup-failure gauge and notify listeners (kSoft)
  // but do NOT latch the sticky error — a leaked file loses no data.
  void RemoveFileTracked(const std::string& fname);

  uint64_t cleanup_failures() const {
    return cleanup_failures_.load(std::memory_order_relaxed);
  }
  // WAL records dropped as unreadable during recovery (torn/corrupt tails
  // tolerated when !paranoid_checks).
  uint64_t wal_recovery_drops() const {
    return wal_recovery_drops_.load(std::memory_order_relaxed);
  }

  // Attach the owning DB's latency registry so the engine records its
  // internal phases (flush, compaction) there. Must be set before
  // background work starts; null (default) disables phase recording.
  void SetStatsRegistry(StatsRegistry* registry) { registry_ = registry; }

  // Creates a fresh WAL (<number>.log) with an asynchronous group logger.
  Status NewLog(uint64_t* log_number, std::unique_ptr<AsyncLogger>* logger);

  // Deletes files no longer referenced by the current state (called after
  // recovery and after log rotation). Table files are swept only when
  // include_tables is true (safe at open time only: during runtime, retired
  // versions pinned by live iterators may still read files that are absent
  // from the current version — their deletion is owned by the FileRef
  // reference counts instead).
  void RemoveObsoleteFiles(uint64_t min_live_log_number, bool include_tables = false);

  VersionSet* versions() { return versions_.get(); }
  const InternalKeyComparator* icmp() const { return &icmp_; }
  EpochManager* epochs() { return &epochs_; }
  Env* env() { return env_; }
  const Options& options() const { return options_; }
  const std::string& dbname() const { return dbname_; }

 private:
  class TableOutput;
  struct MergeJob;
  struct MergeOutcome;

  Status NewDB();
  Status RecoverLogFile(uint64_t log_number, MemTable* mem, SequenceNumber* max_seq);
  Status BuildTable(Iterator* iter, FileMetaData* meta, SequenceNumber smallest_snapshot);
  // The merge of RunCompaction: runs the job's ranges, installs their
  // outputs with one edit (or removes them all on failure) and reports
  // what it did in *outcome.
  Status DoCompactionWork(Compaction* c, SequenceNumber smallest_snapshot, int max_ranges,
                          MergeOutcome* outcome);
  // Merges range i of *job into its own output tables.
  void MergeRange(MergeJob* job, size_t i);
  // Takes a queued range (of `job` only, when non-null), merges it and
  // marks it done; false when none is queued.
  bool RunQueuedRange(MergeJob* job);
  void CompactionWorkerLoop();

  Options options_;
  const std::string dbname_;
  Env* env_;
  InternalKeyComparator icmp_;
  std::unique_ptr<const FilterPolicy> user_filter_policy_;
  std::unique_ptr<InternalFilterPolicy> filter_policy_;
  BlockCache block_cache_;
  EpochManager epochs_;
  std::unique_ptr<VersionSet> versions_;

  // Observability: listener fan-out + (optional) owning DB's registry.
  ListenerSet listeners_;
  StatsRegistry* registry_ = nullptr;

  // Error handling (see src/lsm/bg_error.h and DESIGN.md "Error handling
  // & crash consistency").
  BackgroundErrorState bg_error_;
  std::atomic<uint64_t> cleanup_failures_{0};
  std::atomic<uint64_t> wal_recovery_drops_{0};

  // Compaction scheduler state.
  CompactionStats compaction_stats_;
  std::mutex sched_mutex_;
  std::condition_variable sched_cv_;
  std::atomic<bool> sched_shutdown_{false};
  std::function<SequenceNumber()> sched_smallest_snapshot_;
  std::function<void(const Status&)> sched_on_error_;
  int sched_max_ranges_ = 1;  // workers' range limit per job: the pool size
  std::vector<std::thread> compaction_workers_;
  // Ranges of running merges waiting for a worker: (job, range index).
  // Guarded by sched_mutex_.
  std::deque<std::pair<MergeJob*, size_t>> range_queue_;
};

}  // namespace clsm

#endif  // CLSM_LSM_STORAGE_ENGINE_H_
