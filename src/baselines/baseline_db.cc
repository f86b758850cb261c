#include "src/baselines/baseline_db.h"

#include <chrono>

#include "src/core/db_iter.h"
#include "src/obs/instrumented_iter.h"
#include "src/obs/stats_export.h"
#include "src/table/merging_iterator.h"

namespace clsm {

BaselineDbBase::BaselineDbBase(const Options& options, const std::string& dbname)
    : dbname_(dbname),
      admin_slow_ring_(options.admin_port >= 0 ? std::make_shared<SlowOpRingListener>()
                                               : nullptr),
      admin_trace_(options.admin_port >= 0 ? std::make_shared<TraceController>() : nullptr),
      engine_(WithAdminListeners(options, admin_slow_ring_, admin_trace_), dbname),
      metrics_on_(options.latency_metrics),
      perf_level_(options.perf_level),
      slow_op_threshold_nanos_(options.slow_op_threshold_micros * 1000),
      slow_op_limiter_(options.slow_op_max_per_sec) {
  engine_.SetStatsRegistry(metrics_on_ ? &registry_ : nullptr);
  throttle_ = std::make_unique<WriteThrottle>(&engine_, &stats_,
                                              /*fail_on_any_bg_error=*/true,
                                              /*stop_only_when_mem_full=*/true);
  throttle_->SetRegistry(metrics_on_ ? &registry_ : nullptr);
  trace_ops_ = engine_.listeners().has_op_listeners();
  attributed_ops_ = trace_ops_ || slow_op_threshold_nanos_ != 0;
}

Status BaselineDbBase::Init() {
  MemTable* recovered = nullptr;
  SequenceNumber max_seq = 0;
  Status s = engine_.Open(&recovered, &max_seq);
  if (!s.ok()) {
    if (recovered != nullptr) {
      recovered->Unref();
    }
    return s;
  }
  last_sequence_.store(std::max(engine_.versions()->LastSequence(), max_seq));

  if (!engine_.options().disable_wal) {
    std::unique_ptr<AsyncLogger> logger;
    uint64_t log_number = 0;
    s = engine_.NewLog(&log_number, &logger);
    log_number_ = log_number;
    if (!s.ok()) {
      if (recovered != nullptr) {
        recovered->Unref();
      }
      return s;
    }
    logger_.store(logger.release(), std::memory_order_release);
  } else {
    log_number_ = engine_.versions()->NewFileNumber();
  }

  engine_.versions()->SetLastSequence(
      std::max(engine_.versions()->LastSequence(), last_sequence_.load()));
  if (recovered != nullptr && recovered->NumEntries() > 0) {
    s = engine_.FlushMemTable(recovered, log_number_);
  } else {
    s = engine_.CommitLogRotation(log_number_);
  }
  if (recovered != nullptr) {
    recovered->Unref();
  }
  if (!s.ok()) {
    return s;
  }
  engine_.RemoveObsoleteFiles(log_number_, /*include_tables=*/true);

  mem_.store(new MemTable(*engine_.icmp()), std::memory_order_release);
  maintenance_thread_ = std::thread([this] { MaintenanceLoop(); });
  if (engine_.options().stats_dump_period_sec > 0) {
    reporter_ = std::make_unique<StatsReporter>(
        Name(), engine_.options().stats_dump_period_sec,
        [this] {
          ReporterCounters c;
          c.writes = stats_.puts_total.load(std::memory_order_relaxed) +
                     stats_.deletes_total.load(std::memory_order_relaxed);
          c.gets = stats_.gets_total.load(std::memory_order_relaxed);
          c.flushes = stats_.flushes.load(std::memory_order_relaxed);
          c.compactions = engine_.compaction_stats()->TotalCompactions();
          c.stall_micros = stats_.TotalStallMicros();
          c.hard_stall_micros = stats_.stall_micros.load(std::memory_order_relaxed);
          c.rate_delay_micros = stats_.rate_limit_delay_micros.load(std::memory_order_relaxed);
          return c;
        },
        [this] { return GetProperty("clsm.stats.json"); },
        engine_.options().stats_dump_deltas ? std::function<void()>([this] { ResetStats(); })
                                            : std::function<void()>());
  }
  if (engine_.options().admin_port >= 0) {
    AdminHooks hooks;
    hooks.db_name = Name();
    hooks.stats_json = [this] { return GetProperty("clsm.stats.json"); };
    hooks.perf_json = [this] { return GetProperty("clsm.perf.json"); };
    hooks.metrics_text = [this] { return BuildStatsPrometheus(StatsSource()); };
    hooks.reset_stats = [this] { ResetStats(); };
    hooks.bg_error = engine_.bg_error();
    hooks.slow_ops = admin_slow_ring_.get();
    hooks.trace = admin_trace_.get();
    hooks.max_connections = engine_.options().admin_max_connections;
    admin_ = std::make_unique<AdminServer>(std::move(hooks));
    s = admin_->Start(engine_.options().admin_bind_address, engine_.options().admin_port);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

BaselineDbBase::~BaselineDbBase() {
  // Stop the admin server first (its handlers call GetProperty), then the
  // reporter: both walk stats_/engine_ state.
  admin_.reset();
  reporter_.reset();
  shutting_down_.store(true, std::memory_order_release);
  maintenance_cv_.notify_all();
  if (maintenance_thread_.joinable()) {
    maintenance_thread_.join();
  }
  AsyncLogger* logger = logger_.exchange(nullptr, std::memory_order_acq_rel);
  delete logger;
  imm_logger_.reset();
  MemTable* imm = imm_.exchange(nullptr, std::memory_order_acq_rel);
  if (imm != nullptr) {
    imm->Unref();
  }
  MemTable* mem = mem_.exchange(nullptr, std::memory_order_acq_rel);
  if (mem != nullptr) {
    mem->Unref();
  }
}

Status BaselineDbBase::Put(const WriteOptions& options, const Slice& key, const Slice& value) {
  stats_.Bump(stats_.puts_total);
  PerfContextStartOp(perf_level_);
  const bool timing = metrics_on_ || attributed_ops_ || tls_perf_context.timers_enabled();
  const uint64_t t0 = timing ? LatencyClock::Ticks() : 0;
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
  stats_.Bump(stats_.deletes_total);
  PerfContextStartOp(perf_level_);
  const bool timing = metrics_on_ || attributed_ops_ || tls_perf_context.timers_enabled();
  const uint64_t t0 = timing ? LatencyClock::Ticks() : 0;
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
  stats_.Bump(stats_.batches_total);
  PerfContextStartOp(perf_level_);
  const bool timing = metrics_on_ || attributed_ops_ || tls_perf_context.timers_enabled();
  const uint64_t t0 = timing ? LatencyClock::Ticks() : 0;
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

namespace {
// WriteThrottle adapter for the LevelDB-style chassis: the caller is the
// single-writer queue head holding mutex_; sleeps release it (followers
// keep waiting on their queue CVs), and memtable rolls happen inline under
// the mutex.
class BaselineGateClient final : public WriteThrottle::Client {
 public:
  BaselineGateClient(BaselineDbBase* db, StorageEngine* engine, std::unique_lock<std::mutex>& lock,
                     std::atomic<MemTable*>* mem, std::atomic<bool>* imm_exists,
                     std::condition_variable* maintenance_cv, std::condition_variable* work_done_cv,
                     void (BaselineDbBase::*roll)())
      : db_(db),
        engine_(engine),
        lock_(lock),
        mem_(mem),
        imm_exists_(imm_exists),
        maintenance_cv_(maintenance_cv),
        work_done_cv_(work_done_cv),
        roll_(roll) {}

  bool MemFull() override {
    MemTable* m = mem_->load(std::memory_order_acquire);
    return m->ApproximateMemoryUsage() >= engine_->options().write_buffer_size;
  }
  double MemFillFraction() override {
    MemTable* m = mem_->load(std::memory_order_acquire);
    return static_cast<double>(m->ApproximateMemoryUsage()) /
           static_cast<double>(std::max<size_t>(1, engine_->options().write_buffer_size));
  }
  bool ImmExists() override { return imm_exists_->load(std::memory_order_acquire); }
  void KickMaintenance() override { maintenance_cv_->notify_one(); }
  void WaitForProgress() override {
    maintenance_cv_->notify_one();
    work_done_cv_->wait_for(lock_, std::chrono::milliseconds(1));
  }
  uint64_t DelaySleep(uint64_t nanos) override {
    const uint64_t t0 = MonotonicNanos();
    lock_.unlock();
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
    lock_.lock();
    return MonotonicNanos() - t0;
  }
  bool TryMakeRoom() override {
    (db_->*roll_)();
    maintenance_cv_->notify_one();
    return true;
  }

 private:
  BaselineDbBase* db_;
  StorageEngine* engine_;
  std::unique_lock<std::mutex>& lock_;
  std::atomic<MemTable*>* mem_;
  std::atomic<bool>* imm_exists_;
  std::condition_variable* maintenance_cv_;
  std::condition_variable* work_done_cv_;
  void (BaselineDbBase::*roll_)();
};
}  // namespace

Status BaselineDbBase::MakeRoomForWrite(std::unique_lock<std::mutex>& lock, uint64_t bytes,
                                        bool* stalled_out) {
  BaselineGateClient client(this, &engine_, lock, &mem_, &imm_exists_, &maintenance_cv_,
                            &work_done_cv_, &BaselineDbBase::RollMemTableLocked);
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
  stats_.Bump(stats_.memtable_rolls);
  engine_.listeners().NotifyMemtableRoll(old_mem->ApproximateMemoryUsage());
}

void BaselineDbBase::FlushImmutable() {
  if (engine_.bg_error()->writes_blocked()) {
    return;  // degraded mode: keep C'm (and its WAL) for reads/recovery
  }
  MemTable* imm = imm_.load(std::memory_order_acquire);
  assert(imm != nullptr);

  // The retired WAL must be durable before the table build retires it; a
  // failed drain/sync/close aborts the flush (see ClsmDb::FlushImmutable).
  if (imm_logger_ != nullptr) {
    Status wal_status = imm_logger_->Close();
    imm_logger_.reset();
    if (!wal_status.ok()) {
      engine_.RecordBackgroundError(BgErrorReason::kWalSync, wal_status);
      return;
    }
  }
  stats_.Bump(stats_.flushes);

  // Persist the sequence counter with the flush edit (see ClsmDb note).
  engine_.versions()->SetLastSequence(
      std::max(engine_.versions()->LastSequence(), last_sequence_.load()));
  Status s = engine_.FlushMemTable(imm, log_number_);
  {
    std::lock_guard<std::mutex> l(mutex_);
    if (!s.ok()) {
      // FlushMemTable latched the background error.
      return;
    }
    imm_.store(nullptr, std::memory_order_release);
    imm_exists_.store(false, std::memory_order_release);
  }
  engine_.epochs()->Synchronize();
  imm->Unref();
  engine_.RemoveObsoleteFiles(log_number_);
}

void BaselineDbBase::MaintenanceLoop() {
  std::mutex loop_mutex;
  while (!shutting_down_.load(std::memory_order_acquire)) {
    const bool blocked = engine_.bg_error()->writes_blocked();
    bool need_flush = !blocked && imm_exists_.load(std::memory_order_acquire);
    bool need_compact = !blocked && engine_.NeedsCompaction();
    if (!need_flush && !need_compact) {
      std::unique_lock<std::mutex> l(loop_mutex);
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

SequenceNumber BaselineDbBase::SmallestLiveSnapshot() {
  return snapshots_.OldestTimestamp(last_sequence_.load(std::memory_order_acquire));
}

void BaselineDbBase::RefComponents(MemTable** mem, MemTable** imm) {
  if (ReadersTakeMutex()) {
    // Original LevelDB: the global mutex guards the pointer fetch — reads
    // block whenever a writer or the merge holds it.
    std::lock_guard<std::mutex> l(mutex_);
    *mem = mem_.load(std::memory_order_acquire);
    (*mem)->Ref();
    *imm = imm_.load(std::memory_order_acquire);
    if (*imm != nullptr) {
      (*imm)->Ref();
    }
  } else {
    // RocksDB-style: readers cache metadata without locks.
    EpochGuard guard(*engine_.epochs());
    *mem = mem_.load(std::memory_order_acquire);
    (*mem)->Ref();
    *imm = imm_.load(std::memory_order_acquire);
    if (*imm != nullptr) {
      (*imm)->Ref();
    }
  }
}

Status BaselineDbBase::GetInternal(const ReadOptions& options, const Slice& key,
                                   std::string* value, SequenceNumber seq,
                                   SequenceNumber* seq_found) {
  LookupKey lkey(key, seq);
  MemTable* mem;
  MemTable* imm;
  RefComponents(&mem, &imm);

  const bool pt = tls_perf_context.timers_enabled();
  const uint64_t search_t0 = pt ? LatencyClock::Ticks() : 0;
  Status s;
  if (mem->Get(lkey, value, &s, seq_found)) {
    stats_.Bump(stats_.gets_from_mem);
    if (pt) {
      tls_perf_context.mem_search_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - search_t0);
    }
  } else if (imm != nullptr && imm->Get(lkey, value, &s, seq_found)) {
    stats_.Bump(stats_.gets_from_imm);
    if (pt) {
      tls_perf_context.mem_search_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - search_t0);
    }
  } else {
    const uint64_t disk_t0 = pt ? LatencyClock::Ticks() : 0;
    if (pt) {
      tls_perf_context.mem_search_nanos += LatencyClock::ToNanos(disk_t0 - search_t0);
    }
    s = engine_.Get(options, lkey, value, seq_found);
    stats_.Bump(stats_.gets_from_disk);
    if (pt) {
      tls_perf_context.disk_search_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - disk_t0);
    }
  }
  mem->Unref();
  if (imm != nullptr) {
    imm->Unref();
  }
  return s;
}

Status BaselineDbBase::GetLatestLocked(const ReadOptions& options, const Slice& key,
                                       std::string* value, SequenceNumber* seq_found) {
  // Caller holds mutex_, so the component pointers are stable and the roll
  // cannot retire them mid-read; no reference counting needed.
  LookupKey lkey(key, kMaxSequenceNumber);
  MemTable* mem = mem_.load(std::memory_order_acquire);
  MemTable* imm = imm_.load(std::memory_order_acquire);
  Status s;
  if (mem->Get(lkey, value, &s, seq_found)) {
    return s;
  }
  if (imm != nullptr && imm->Get(lkey, value, &s, seq_found)) {
    return s;
  }
  return engine_.Get(options, lkey, value, seq_found);
}

Status BaselineDbBase::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  stats_.Bump(stats_.gets_total);
  PerfContextStartOp(perf_level_);
  const bool timing = metrics_on_ || attributed_ops_ || tls_perf_context.timers_enabled();
  const uint64_t t0 = timing ? LatencyClock::Ticks() : 0;
  SequenceNumber seq;
  if (options.snapshot != nullptr) {
    seq = static_cast<const SnapshotImpl*>(options.snapshot)->timestamp();
  } else {
    seq = last_sequence_.load(std::memory_order_acquire);
  }
  Status s = GetInternal(options, key, value, seq, nullptr);
  if (metrics_on_) {
    registry_.Record(OpMetric::kGet, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  FinishOp(DbOpType::kGet, key, s.ok() ? static_cast<uint32_t>(value->size()) : 0,
           s.ok() ? OpOutcome::kOk : (s.IsNotFound() ? OpOutcome::kNotFound : OpOutcome::kError),
           t0, /*stalled=*/false);
  return s;
}

namespace {
struct IterState {
  MemTable* mem;
  MemTable* imm;
  Version* version;
};

void CleanupIterState(void* arg1, void* arg2) {
  IterState* state = reinterpret_cast<IterState*>(arg1);
  state->mem->Unref();
  if (state->imm != nullptr) {
    state->imm->Unref();
  }
  if (state->version != nullptr) {
    state->version->Unref();
  }
  delete state;
}
}  // namespace

Iterator* BaselineDbBase::NewIterator(const ReadOptions& options) {
  stats_.Bump(stats_.iterators_created);
  SequenceNumber seq;
  if (options.snapshot != nullptr) {
    seq = static_cast<const SnapshotImpl*>(options.snapshot)->timestamp();
  } else {
    seq = last_sequence_.load(std::memory_order_acquire);
  }

  IterState* state = new IterState{nullptr, nullptr, nullptr};
  RefComponents(&state->mem, &state->imm);
  std::vector<Iterator*> children;
  children.push_back(state->mem->NewIterator());
  if (state->imm != nullptr) {
    children.push_back(state->imm->NewIterator());
  }
  state->version = engine_.AddVersionIterators(options, &children);

  Iterator* internal =
      NewMergingIterator(engine_.icmp(), children.data(), static_cast<int>(children.size()));
  internal->RegisterCleanup(&CleanupIterState, state, nullptr);
  return NewLatencyRecordingIterator(NewDBIterator(engine_.icmp()->user_comparator(), internal, seq),
                                     metrics_on_ ? &registry_ : nullptr);
}

const Snapshot* BaselineDbBase::GetSnapshot() {
  // LevelDB-style: writes are serialized, so the published last sequence is
  // itself a consistent cut — no Active-set machinery needed.
  stats_.Bump(stats_.snapshots_acquired);
  std::lock_guard<std::mutex> l(mutex_);
  return snapshots_.New(last_sequence_.load(std::memory_order_acquire));
}

void BaselineDbBase::ReleaseSnapshot(const Snapshot* snapshot) { snapshots_.Release(snapshot); }

Status BaselineDbBase::ReadModifyWrite(const WriteOptions& options, const Slice& key,
                                       const RmwFunction& f, bool* performed) {
  // Coarse default: atomicity via the global mutex (writes are serialized
  // anyway). The lock-striping variant (Fig 9's baseline) overrides this.
  if (performed != nullptr) {
    *performed = false;
  }
  stats_.Bump(stats_.rmw_total);
  if (engine_.bg_error()->writes_blocked()) {
    return engine_.bg_error()->status();
  }
  PerfContextStartOp(perf_level_);
  const bool timing = metrics_on_ || attributed_ops_ || tls_perf_context.timers_enabled();
  const uint64_t t0 = timing ? LatencyClock::Ticks() : 0;
  bool did_write = false;
  uint32_t written_bytes = 0;
  {
    std::lock_guard<std::mutex> l(mutex_);
    std::string current;
    SequenceNumber seq_found = 0;
    ReadOptions ro;
    Status s = GetLatestLocked(ro, key, &current, &seq_found);
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

StatsJsonSource BaselineDbBase::StatsSource() {
  // Compactions are counted by the engine's scheduler; mirror the total
  // into the legacy counter so every snapshot stays truthful.
  stats_.compactions.store(engine_.compaction_stats()->TotalCompactions(),
                           std::memory_order_relaxed);
  StatsJsonSource src;
  src.db = Name();
  src.counters = &stats_;
  src.registry = &registry_;
  src.engine = &engine_;
  src.throttle = throttle_.get();
  return src;
}

std::string BaselineDbBase::GetProperty(const Slice& property) {
  if (property == Slice("clsm.levels")) {
    return engine_.versions()->LevelSummary();
  }
  if (property == Slice("clsm.last-ts")) {
    return std::to_string(last_sequence_.load());
  }
  if (property == Slice("clsm.stats")) {
    stats_.compactions.store(engine_.compaction_stats()->TotalCompactions(),
                             std::memory_order_relaxed);
    return stats_.ToString() + engine_.compaction_stats()->ToString();
  }
  if (property == Slice("clsm.stats.json")) {
    return BuildStatsJson(StatsSource());
  }
  if (property == Slice("clsm.perf.json")) {
    return tls_perf_context.ToJson();
  }
  if (property == Slice("clsm.stall-micros")) {
    return std::to_string(stats_.TotalStallMicros());
  }
  if (property == Slice("clsm.l0-files")) {
    return std::to_string(engine_.NumLevelFiles(0));
  }
  if (property == Slice("clsm.write-rate")) {
    return std::to_string(throttle_->controller()->current_rate());
  }
  if (property == Slice("clsm.stats.reset")) {
    ResetStats();
    return "OK";
  }
  if (property == Slice("clsm.bg-error")) {
    return engine_.bg_error()->status().ToString();
  }
  if (property == Slice("clsm.background-error")) {
    return engine_.bg_error()->ToString();
  }
  if (property == Slice("clsm.admin-port")) {
    // The bound port (resolves Options::admin_port == 0); -1 if disabled.
    return std::to_string(admin_ != nullptr ? admin_->port() : -1);
  }
  return std::string();
}

void BaselineDbBase::ResetStats() {
  stats_.Reset();
  registry_.Reset();
  slow_op_limiter_.Reset();
}

void BaselineDbBase::FinishOp(DbOpType op, const Slice& key, uint32_t value_size,
                              OpOutcome outcome, uint64_t start_ticks, bool stalled) {
  if (start_ticks == 0) {
    return;
  }
  const uint64_t total_nanos = LatencyClock::ToNanos(LatencyClock::Ticks() - start_ticks);
  PerfContext& ctx = tls_perf_context;
  if (ctx.timers_enabled()) {
    ctx.total_nanos = total_nanos;
  }
  if (!attributed_ops_) {
    return;
  }
  const uint64_t latency_micros = total_nanos / 1000;
  if (trace_ops_) {
    OperationInfo info;
    info.op = op;
    info.key = key;
    info.value_size = value_size;
    info.outcome = outcome;
    info.latency_micros = latency_micros;
    engine_.listeners().NotifyOperation(info);
  }
  if (slow_op_threshold_nanos_ != 0 && total_nanos >= slow_op_threshold_nanos_) {
    stats_.Bump(stats_.slow_ops_total);
    if (slow_op_limiter_.Admit(engine_.env()->NowMicros())) {
      SlowOpInfo info;
      info.op = op;
      info.key_prefix_hash = SlowOpKeyPrefixHash(key);
      info.latency_micros = latency_micros;
      info.perf = ctx;
      info.l0_files = engine_.NumLevelFiles(0);
      info.stalled = stalled;
      info.suppressed = slow_op_limiter_.suppressed();
      engine_.listeners().NotifySlowOperation(info);
      stats_.Bump(stats_.slow_ops_reported);
    } else {
      stats_.Bump(stats_.slow_ops_dropped);
    }
  }
}

void BaselineDbBase::WaitForMaintenance() {
  while (true) {
    if (!engine_.bg_error()->ok()) {
      return;  // maintenance is wedged; nothing further to wait for
    }
    MemTable* mem = mem_.load(std::memory_order_acquire);
    bool busy = imm_exists_.load(std::memory_order_acquire) || engine_.NeedsCompaction() ||
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
