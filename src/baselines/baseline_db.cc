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
  last_claimed_.store(recovered_seq);
  maintenance_thread_ = std::thread([this] { MaintenanceLoop(); });
}

Status BaselineDbBase::Put(const WriteOptions& options, const Slice& key, const Slice& value) {
  stats_.Add(DbCounter::kPutsTotal);
  WriteBatch batch;
  batch.Put(key, value);
  return Commit(options, DbOpType::kPut, key, static_cast<uint32_t>(value.size()), &batch);
}

Status BaselineDbBase::Delete(const WriteOptions& options, const Slice& key) {
  stats_.Add(DbCounter::kDeletesTotal);
  WriteBatch batch;
  batch.Delete(key);
  return Commit(options, DbOpType::kDelete, key, 0, &batch);
}

Status BaselineDbBase::Write(const WriteOptions& options, WriteBatch* updates) {
  stats_.Add(DbCounter::kBatchesTotal);
  uint32_t batch_bytes = 0;
  for (const WriteBatch::Op& op : updates->ops()) {
    batch_bytes += static_cast<uint32_t>(op.key.size() + op.value.size());
  }
  return Commit(options, DbOpType::kWrite, Slice(), batch_bytes, updates);
}

Status BaselineDbBase::Commit(const WriteOptions& options, DbOpType op, const Slice& trace_key,
                              uint32_t trace_bytes, WriteBatch* batch) {
  const uint64_t t0 = StartOp();
  Writer w(batch, options.sync || engine_.options().sync_logging);
  bool op_stalled = false;
  Status s = WriteLocked(&w, &op_stalled);
  FinishOp(op, trace_key, trace_bytes, s.ok() ? OpOutcome::kOk : OpOutcome::kError, t0,
           op_stalled);
  return s;
}

// LevelDB's single-writer queue with group commit: every writer enqueues
// and blocks; the queue head makes room, then, outside the mutex and under
// the apply latch, runs its RMW function if it has one, claims sequence
// numbers, applies its batch and any batches grouped behind it, and
// publishes; then it wakes the group. This is the "single synchronization
// point" whose contention the paper measures (§5.1: throughput decreases
// as threads contend for the writers queue).
Status BaselineDbBase::WriteLocked(Writer* w, bool* stalled_out) {
  // Degraded read-only mode: fail writes at the door once a hard error is
  // latched (not only when MakeRoomForWrite happens to run).
  if (engine_.bg_error()->writes_blocked()) {
    return engine_.bg_error()->status();
  }

  std::unique_lock<std::mutex> lock(mutex_);
  writers_.push_back(w);
  while (!w->done && w != writers_.front()) {
    w->cv.wait(lock);
  }
  if (w->done) {
    return w->status;
  }

  // An RMW's write is unknown until its function runs below: the gate
  // charges its key, as cLSM's RMW does.
  Status status = MakeRoomForWrite(
      lock, w->rmw != nullptr ? w->rmw_key.size() : w->batch->ApproximateSize(), stalled_out);
  Writer* last_writer = w;
  std::vector<Writer*> group;
  if (status.ok()) {
    // Group the queue's current contents into one logical write. An RMW
    // is never a follower: it runs its function only as queue head.
    size_t size = 0;
    for (Writer* candidate : writers_) {
      if (candidate != w && candidate->rmw != nullptr) {
        break;
      }
      group.push_back(candidate);
      size += candidate->batch->ApproximateSize();
      last_writer = candidate;
      if (size > 1 << 20) {
        break;
      }
    }
    lock.unlock();

    // Single writer beyond this point: queue heads are serialized, and the
    // latch keeps out the roll, P'm's retirement and HyperLevelDB's
    // concurrent inserts.
    std::unique_lock<std::shared_mutex> apply(apply_latch_);
    MemTable* mem = mem_.load(std::memory_order_acquire);
    AsyncLogger* logger = logger_.load(std::memory_order_acquire);
    if (w->rmw != nullptr) {
      ComputeRmw(w->rmw_key, *w->rmw, mem, imm_.load(std::memory_order_acquire), w->batch);
    }
    const bool use_wal = !engine_.options().disable_wal;
    bool any_sync = false;
    SequenceNumber seq = last_sequence_.load(std::memory_order_relaxed);
    for (Writer* member : group) {
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
        any_sync = any_sync || member->sync;
        logger->AddRecordAsync(std::move(record));
      }
      if (metrics_on_) {
        registry_.Record(OpMetric::kMemInsert, LatencyClock::ToNanos(t1 - t0));
        registry_.Record(OpMetric::kWalAppend,
                         LatencyClock::ToNanos(LatencyClock::Ticks() - t1));
      }
      if (pt && member == w) {
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
    last_claimed_.store(seq, std::memory_order_relaxed);
    last_sequence_.store(seq, std::memory_order_release);
    // Still under the latch: no roll can retire the logger being synced.
    if (any_sync) {
      status = logger->AddRecordSync(std::string());
    }
    apply.unlock();
    lock.lock();
  }

  // Wake the whole group.
  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != w) {
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
  MemTable* fresh_mem = new MemTable(*engine_.icmp());

  // The latch excludes every insert in flight, so none lands in a retired
  // memtable after the flush has scanned past it.
  std::unique_lock<std::shared_mutex> apply(apply_latch_);
  MemTable* old_mem = mem_.load(std::memory_order_relaxed);
  imm_.store(old_mem, std::memory_order_release);
  mem_.store(fresh_mem, std::memory_order_release);
  imm_logger_.reset(logger_.exchange(fresh_logger.release(), std::memory_order_acq_rel));
  log_number_ = fresh_log;
  // Last: the maintenance thread reads imm_logger_ once it sees C'm.
  imm_exists_.store(true, std::memory_order_release);
  apply.unlock();

  stats_.Add(DbCounter::kMemtableRolls);
  engine_.listeners().NotifyMemtableRoll(old_mem->ApproximateMemoryUsage());
}

void BaselineDbBase::ClearImmutable() {
  // Under the global mutex, since LevelDB readers pin the components under
  // it, and under the apply latch, since the RMW queue head reads P'm
  // under it.
  std::lock_guard<std::mutex> l(mutex_);
  std::unique_lock<std::shared_mutex> apply(apply_latch_);
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

// The RMW is a queue writer like any other. As queue head, under the
// apply latch, it reads the key's latest value and runs f, so no write can
// land between its read and its write, and its write is gated, logged and
// published like a Put's.
Status BaselineDbBase::ReadModifyWrite(const WriteOptions& options, const Slice& key,
                                       const RmwFunction& f, bool* performed) {
  return Rmw(options, key, f, performed, /*read_in_queue=*/true);
}

Status BaselineDbBase::Rmw(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                           bool* performed, bool read_in_queue) {
  if (performed != nullptr) {
    *performed = false;
  }
  stats_.Add(DbCounter::kRmwTotal);
  if (engine_.bg_error()->writes_blocked()) {
    return engine_.bg_error()->status();
  }
  const uint64_t t0 = StartOp();
  WriteBatch batch;
  Writer w(&batch, options.sync || engine_.options().sync_logging);
  bool op_stalled = false;
  Status s;
  if (read_in_queue) {
    w.rmw = &f;
    w.rmw_key = key;
    s = WriteLocked(&w, &op_stalled);
  } else {
    MemTable* mem;
    MemTable* imm;
    RefComponents(&mem, &imm);
    ComputeRmw(key, f, mem, imm, &batch);
    mem->Unref();
    if (imm != nullptr) {
      imm->Unref();
    }
    if (batch.Count() > 0) {
      s = WriteLocked(&w, &op_stalled);
    }
  }
  // Trace outcome doubles as the replay decision: kOk means the function
  // wrote, kNotFound means it declined.
  const bool wrote = s.ok() && batch.Count() > 0;
  if (s.ok() && !wrote) {
    stats_.Add(DbCounter::kRmwNoop);
  }
  if (performed != nullptr) {
    *performed = wrote;
  }
  FinishOp(DbOpType::kRmw, key, wrote ? static_cast<uint32_t>(batch.ops()[0].value.size()) : 0,
           !s.ok() ? OpOutcome::kError : (wrote ? OpOutcome::kOk : OpOutcome::kNotFound), t0,
           op_stalled);
  return s;
}

void BaselineDbBase::ComputeRmw(const Slice& key, const RmwFunction& f, MemTable* mem,
                                MemTable* imm, WriteBatch* batch) {
  std::string current;
  ValueType type;
  SequenceNumber seq;
  std::optional<Slice> cur;
  if (GetLatest(key, mem, imm, &current, &type, &seq) && type == kTypeValue) {
    cur = Slice(current);
  }
  std::optional<std::string> next = f(cur);
  if (next.has_value()) {
    batch->Put(key, *next);
  }
}

}  // namespace clsm
