#include "src/baselines/baseline_db.h"

#include <chrono>

namespace clsm {

// LevelDB semantics: fail writers on any latched background error, let L0
// pressure block only the inline roll, and keep every version in a flush.
BaselineDbBase::BaselineDbBase(const Options& options, const std::string& dbname)
    : DbChassis(options, dbname, /*fail_on_any_bg_error=*/true,
                /*stop_only_when_mem_full=*/true, /*flush_drops_shadowed=*/false) {}

void BaselineDbBase::StartMaintenance(SequenceNumber recovered_seq) {
  last_sequence_.store(recovered_seq);
  maintenance_thread_ = std::thread([this] { MaintenanceLoop(); });
}

Status BaselineDbBase::Put(const WriteOptions& options, const Slice& key, const Slice& value) {
  stats_.Add(DbCounter::kPutsTotal);
  const uint64_t t0 = StartOp();
  WriteBatch batch;
  batch.Put(key, value);
  bool op_stalled = false;
  Status s = WriteLocked(options, &batch, &op_stalled);
  if (metrics_on_) {
    registry_.Record(OpMetric::kPut, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  FinishOp(DbOpType::kPut, key, static_cast<uint32_t>(value.size()),
           s.ok() ? OpOutcome::kOk : OpOutcome::kError, t0, op_stalled);
  return s;
}

Status BaselineDbBase::Delete(const WriteOptions& options, const Slice& key) {
  stats_.Add(DbCounter::kDeletesTotal);
  const uint64_t t0 = StartOp();
  WriteBatch batch;
  batch.Delete(key);
  bool op_stalled = false;
  Status s = WriteLocked(options, &batch, &op_stalled);
  if (metrics_on_) {
    registry_.Record(OpMetric::kDelete, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  FinishOp(DbOpType::kDelete, key, 0, s.ok() ? OpOutcome::kOk : OpOutcome::kError, t0,
           op_stalled);
  return s;
}

Status BaselineDbBase::Write(const WriteOptions& options, WriteBatch* updates) {
  stats_.Add(DbCounter::kBatchesTotal);
  const uint64_t t0 = StartOp();
  uint32_t batch_bytes = 0;
  for (const WriteBatch::Op& op : updates->ops()) {
    batch_bytes += static_cast<uint32_t>(op.key.size() + op.value.size());
  }
  bool op_stalled = false;
  Status s = WriteLocked(options, updates, &op_stalled);
  FinishOp(DbOpType::kWrite, Slice(), batch_bytes, s.ok() ? OpOutcome::kOk : OpOutcome::kError,
           t0, op_stalled);
  return s;
}

// LevelDB's single-writer queue with group commit: every writer enqueues
// and blocks; the queue head makes room, claims sequence numbers, applies
// the batch (and any batches grouped behind it) outside the mutex, then
// wakes the group. This is the "single synchronization point" whose
// contention the paper measures (§5.1: throughput decreases as threads
// contend for the writers queue).
Status BaselineDbBase::WriteLocked(const WriteOptions& options, WriteBatch* updates,
                                   bool* stalled_out) {
  // Degraded read-only mode: fail writes at the door once a hard error is
  // latched (not only when MakeRoomForWrite happens to run).
  if (engine_.bg_error()->writes_blocked()) {
    return engine_.bg_error()->status();
  }
  Writer w(updates, options.sync || engine_.options().sync_logging);

  std::unique_lock<std::mutex> lock(mutex_);
  writers_.push_back(&w);
  while (!w.done && &w != writers_.front()) {
    w.cv.wait(lock);
  }
  if (w.done) {
    return w.status;
  }

  Status status = MakeRoomForWrite(lock, w.batch->ApproximateSize(), stalled_out);
  Writer* last_writer = &w;
  std::vector<Writer*> group;
  if (status.ok()) {
    // Group the queue's current contents into one logical write.
    size_t size = 0;
    for (Writer* candidate : writers_) {
      group.push_back(candidate);
      size += candidate->batch->ApproximateSize();
      last_writer = candidate;
      if (size > 1 << 20) {
        break;
      }
    }

    MemTable* mem = mem_.load(std::memory_order_acquire);
    AsyncLogger* logger = logger_.load(std::memory_order_acquire);
    const bool use_wal = !engine_.options().disable_wal;

    lock.unlock();
    // Single writer beyond this point (queue heads are serialized).
    bool any_sync = false;
    SequenceNumber seq = last_sequence_.load(std::memory_order_relaxed);
    for (Writer* member : group) {
      any_sync = any_sync || member->sync;
      // One WAL record per member batch: each user batch recovers
      // all-or-nothing. Phase latencies are per member batch: mem_insert
      // covers the memtable adds (plus record encoding), wal_append the
      // logger enqueue.
      const bool pt = tls_perf_context.timers_enabled();
      const uint64_t t0 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
      std::string record;
      for (const WriteBatch::Op& op : member->batch->ops()) {
        ++seq;
        mem->Add(seq, op.type, op.key, op.value);
        if (use_wal) {
          EncodeWalRecord(&record, seq, op.type, op.key, op.value);
        }
      }
      const uint64_t t1 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
      if (use_wal && !record.empty()) {
        logger->AddRecordAsync(std::move(record));
      }
      if (metrics_on_) {
        registry_.Record(OpMetric::kMemInsert, LatencyClock::ToNanos(t1 - t0));
        registry_.Record(OpMetric::kWalAppend,
                         LatencyClock::ToNanos(LatencyClock::Ticks() - t1));
      }
      if (pt && member == &w) {
        // PerfContext is thread-local: only the group head's own batch can
        // be attributed to it. Followers' batches applied here belong to
        // threads parked in the queue; their contexts only see total time.
        tls_perf_context.mem_insert_nanos += LatencyClock::ToNanos(t1 - t0);
        tls_perf_context.wal_append_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - t1);
      }
    }
    // Publish once, after every entry of every batch in the group is in the
    // memtable: a snapshot taken mid-group reads at the old sequence and can
    // never observe a torn batch.
    last_sequence_.store(seq, std::memory_order_release);
    if (use_wal && any_sync) {
      status = logger->AddRecordSync(std::string());
    }
    lock.lock();
  }

  // Wake the whole group.
  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) {
      break;
    }
  }
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();
  }
  return status;
}

// WriteThrottle adapter for the LevelDB-style variants: the caller is the
// single-writer queue head holding mutex_; sleeps release it (followers
// keep waiting on their queue CVs), and memtable rolls happen inline under
// the mutex.
class BaselineDbBase::GateClient final : public DbChassis::GateClient {
 public:
  GateClient(BaselineDbBase* db, std::unique_lock<std::mutex>& lock)
      : DbChassis::GateClient(db), db_(db), lock_(lock) {}

  void WaitForProgress() override {
    db_->maintenance_cv_.notify_one();
    db_->work_done_cv_.wait_for(lock_, std::chrono::milliseconds(1));
  }
  uint64_t DelaySleep(uint64_t nanos) override {
    const uint64_t t0 = MonotonicNanos();
    lock_.unlock();
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
    lock_.lock();
    return MonotonicNanos() - t0;
  }
  bool TryMakeRoom() override {
    db_->RollMemTableLocked();
    db_->maintenance_cv_.notify_one();
    return true;
  }

 private:
  BaselineDbBase* const db_;
  std::unique_lock<std::mutex>& lock_;
};

Status BaselineDbBase::MakeRoomForWrite(std::unique_lock<std::mutex>& lock, uint64_t bytes,
                                        bool* stalled_out) {
  GateClient client(this, lock);
  return throttle_->Gate(&client, bytes, stalled_out);
}

void BaselineDbBase::RollMemTableLocked() {
  std::unique_ptr<AsyncLogger> fresh_logger;
  uint64_t fresh_log = 0;
  if (!engine_.options().disable_wal) {
    Status s = engine_.NewLog(&fresh_log, &fresh_logger);
    if (!s.ok()) {
      engine_.RecordBackgroundError(BgErrorReason::kMemtableRoll, s);
      return;
    }
  } else {
    fresh_log = engine_.versions()->NewFileNumber();
  }

  MemTable* old_mem = mem_.load(std::memory_order_relaxed);
  imm_.store(old_mem, std::memory_order_release);
  mem_.store(new MemTable(*engine_.icmp()), std::memory_order_release);
  AsyncLogger* old_logger = logger_.exchange(fresh_logger.release(), std::memory_order_acq_rel);
  imm_logger_.reset(old_logger);
  log_number_ = fresh_log;
  imm_exists_.store(true, std::memory_order_release);
  stats_.Add(DbCounter::kMemtableRolls);
  engine_.listeners().NotifyMemtableRoll(old_mem->ApproximateMemoryUsage());
}

void BaselineDbBase::ClearImmutable() {
  // Under the global mutex: LevelDB readers pin the components under it.
  std::lock_guard<std::mutex> l(mutex_);
  imm_.store(nullptr, std::memory_order_release);
  imm_exists_.store(false, std::memory_order_release);
}

void BaselineDbBase::MaintenanceLoop() {
  while (!shutting_down_.load(std::memory_order_acquire)) {
    const bool blocked = engine_.bg_error()->writes_blocked();
    bool need_flush = !blocked && imm_exists_.load(std::memory_order_acquire);
    bool need_compact = !blocked && engine_.NeedsCompaction();
    if (!need_flush && !need_compact) {
      std::unique_lock<std::mutex> l(maintenance_mutex_);
      maintenance_cv_.wait_for(l, std::chrono::milliseconds(2));
      continue;
    }
    if (need_flush) {
      FlushImmutable();
    }
    if (need_compact && engine_.NeedsCompaction()) {
      bool did_work = false;
      // Failures latch inside RunCompaction (kCompaction/kManifestWrite).
      engine_.CompactOnce(SmallestLiveSnapshot(), &did_work);
    }
    work_done_cv_.notify_all();
  }
}

void BaselineDbBase::RefComponents(MemTable** mem, MemTable** imm) {
  if (ReadersTakeMutex()) {
    // Original LevelDB: the global mutex guards the pointer fetch — reads
    // block whenever a writer or the merge holds it.
    std::lock_guard<std::mutex> l(mutex_);
    RefMemTables(mem, imm);
  } else {
    // RocksDB-style: readers cache metadata without locks.
    EpochGuard guard(*engine_.epochs());
    RefMemTables(mem, imm);
  }
}

Status BaselineDbBase::GetLatestLocked(const Slice& key, std::string* value) {
  // Caller holds mutex_, so the component pointers are stable and the roll
  // cannot retire them mid-read; no reference counting needed.
  LookupKey lkey(key, kMaxSequenceNumber);
  MemTable* mem = mem_.load(std::memory_order_acquire);
  MemTable* imm = imm_.load(std::memory_order_acquire);
  Status s;
  if (mem->Get(lkey, value, &s)) {
    return s;
  }
  if (imm != nullptr && imm->Get(lkey, value, &s)) {
    return s;
  }
  return engine_.Get(ReadOptions(), lkey, value);
}

Status BaselineDbBase::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  stats_.Add(DbCounter::kGetsTotal);
  const uint64_t t0 = StartOp();
  const SequenceNumber seq = ReadTimestamp(options, last_sequence_.load(std::memory_order_acquire));
  MemTable* mem;
  MemTable* imm;
  RefComponents(&mem, &imm);
  return GetPinned(options, key, seq, mem, imm, value, t0);
}

Iterator* BaselineDbBase::NewIterator(const ReadOptions& options) {
  stats_.Add(DbCounter::kIteratorsCreated);
  const SequenceNumber seq = ReadTimestamp(options, last_sequence_.load(std::memory_order_acquire));
  IterState* state = new IterState;
  RefComponents(&state->mem, &state->imm);
  state->version = engine_.versions()->GetCurrent();
  return NewPinnedIterator(options, state, seq);
}

const Snapshot* BaselineDbBase::GetSnapshot() {
  // LevelDB-style: writes are serialized, so the published last sequence is
  // itself a consistent cut — no Active-set machinery needed.
  stats_.Add(DbCounter::kSnapshotsAcquired);
  std::lock_guard<std::mutex> l(mutex_);
  return snapshots_.New(last_sequence_.load(std::memory_order_acquire));
}

Status BaselineDbBase::ReadModifyWrite(const WriteOptions& options, const Slice& key,
                                       const RmwFunction& f, bool* performed) {
  // Coarse default: atomicity via the global mutex (writes are serialized
  // anyway). The lock-striping variant (Fig 9's baseline) overrides this.
  if (performed != nullptr) {
    *performed = false;
  }
  stats_.Add(DbCounter::kRmwTotal);
  if (engine_.bg_error()->writes_blocked()) {
    return engine_.bg_error()->status();
  }
  const uint64_t t0 = StartOp();
  bool did_write = false;
  uint32_t written_bytes = 0;
  {
    std::lock_guard<std::mutex> l(mutex_);
    std::string current;
    Status s = GetLatestLocked(key, &current);
    std::optional<Slice> cur;
    if (s.ok()) {
      cur = Slice(current);
    }
    std::optional<std::string> next = f(cur);
    if (next.has_value()) {
      MemTable* mem = mem_.load(std::memory_order_acquire);
      SequenceNumber seq = last_sequence_.load(std::memory_order_relaxed) + 1;
      mem->Add(seq, kTypeValue, key, *next);
      if (!engine_.options().disable_wal) {
        std::string record;
        EncodeWalRecord(&record, seq, kTypeValue, key, *next);
        logger_.load(std::memory_order_acquire)->AddRecordAsync(std::move(record));
      }
      last_sequence_.store(seq, std::memory_order_release);
      did_write = true;
      written_bytes = static_cast<uint32_t>(next->size());
      if (performed != nullptr) {
        *performed = true;
      }
    }
  }
  if (metrics_on_) {
    registry_.Record(OpMetric::kRmw, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  FinishOp(DbOpType::kRmw, key, written_bytes,
           did_write ? OpOutcome::kOk : OpOutcome::kNotFound, t0, /*stalled=*/false);
  return Status::OK();
}

void BaselineDbBase::WaitForMaintenance() {
  while (true) {
    if (!engine_.bg_error()->ok()) {
      return;  // maintenance is wedged; nothing further to wait for
    }
    MemTable* mem = mem_.load(std::memory_order_acquire);
    // CompactionsIdle, not NeedsCompaction: a job whose edit is installed
    // is still finishing (its input deletions and stats) until it ends.
    bool busy = imm_exists_.load(std::memory_order_acquire) || !engine_.CompactionsIdle() ||
                (mem != nullptr &&
                 mem->ApproximateMemoryUsage() >= engine_.options().write_buffer_size);
    if (!busy) {
      return;
    }
    maintenance_cv_.notify_one();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace clsm
