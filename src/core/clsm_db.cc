#include "src/core/clsm_db.h"

#include <algorithm>
#include <chrono>

#include "src/sync/backoff.h"

namespace clsm {

Status ClsmDb::Open(const Options& options, const std::string& dbname, DB** dbptr) {
  return DbChassis::Open(std::unique_ptr<DbChassis>(new ClsmDb(options, dbname)), dbptr);
}

// Flushes may drop shadowed versions: snapshots installed before a roll
// bound SmallestLiveSnapshot, and every later scan timestamp is at or above
// C'm's newest (all its writers finished before the roll), as NewIterator
// relies on too.
ClsmDb::ClsmDb(const Options& options, const std::string& dbname)
    : DbChassis(options, dbname, /*fail_on_any_bg_error=*/false,
                /*stop_only_when_mem_full=*/false, /*flush_drops_shadowed=*/true) {
  active_set_ = &active_;
}

void ClsmDb::StartMaintenance(SequenceNumber recovered_seq) {
  time_counter_.AdvanceTo(recovered_seq);
  maintenance_thread_ = std::thread([this] { MaintenanceLoop(); });
  // Compactions run on the engine's worker pool; the maintenance thread is
  // thereby a dedicated flush thread (§5.3's reserved-thread setup).
  engine_.StartCompactionScheduler(
      engine_.options().compaction_threads, [this] { return SmallestLiveSnapshot(); },
      [this](const Status&) {
        // The engine already latched the error; wake stalled writers so
        // they observe it instead of waiting out the 1ms poll.
        std::lock_guard<std::mutex> l(maintenance_mutex_);
        work_done_cv_.notify_all();
      });
}

SequenceNumber ClsmDb::GetTS(uint64_t n) {
  // Algorithm 2, getTS: the rollback closes the Figure-4 race — if a
  // concurrent getSnap already chose a snapshot time at or after our
  // timestamp, writing at this timestamp could make the snapshot
  // inconsistent, so discard it and draw a fresh (larger) one.
  //
  // A range [ts, ts + n) needs nothing more. One increment reserves it, so
  // the counter never reads inside it; Active holds only ts, and ranges are
  // disjoint, so FindMin - 1 never lands inside it either. Every snapshot
  // time is thus below ts or at least ts + n - 1, and getSnap excludes or
  // waits out the whole range exactly as it does a single put at ts.
  SpinBackoff backoff;
  while (true) {
    SequenceNumber ts = time_counter_.IncAndGet(n);
    active_.Add(ts);
    if (ts <= snap_time_.load(std::memory_order_seq_cst)) {
      active_.Remove(ts);
      stats_.Add(DbCounter::kGettsRollbacks);
      // Back off before redrawing: on few cores a hot rollback loop starves
      // the very scanner whose snapTime advance we are trying to clear.
      backoff.Pause();
    } else {
      return ts;
    }
  }
}

SequenceNumber ClsmDb::AcquireScanTimestamp() {
  // Algorithm 2, getSnap lines 9-14.
  SequenceNumber ts = time_counter_.Get();
  if (!engine_.options().linearizable_snapshots) {
    uint64_t tsa = active_.FindMin();
    if (tsa != ActiveTimestampSet::kNone) {
      // Exclude all in-flight puts: their writes may not be visible yet
      // (Figure 3), so the snapshot must predate them.
      ts = tsa - 1;
    }
  }
  // Linearizable mode omits the adjustment (§3.2.1): the snapshot time is
  // at least the counter value at the start of the call, and the wait loop
  // below rides out in-flight puts below it (they either complete or
  // roll back in getTS).
  // Atomically advance snapTime (never backward; concurrent getSnaps race).
  uint64_t cur = snap_time_.load(std::memory_order_seq_cst);
  while (cur < ts && !snap_time_.compare_exchange_weak(cur, ts, std::memory_order_seq_cst)) {
  }
  // Wait until every active put with a timestamp at or below snapTime
  // completes: after this loop all writes the snapshot includes (ts <=
  // snapTime) are visible. In serializable mode no active timestamp can
  // equal snapTime (it was chosen below the Active minimum), so this is the
  // paper's "findMin() < snapTime" wait; in linearizable mode the <= matters
  // — a put in flight at exactly snapTime is part of the snapshot.
  SpinBackoff backoff;
  while (true) {
    uint64_t min_active = active_.FindMin();
    if (min_active == ActiveTimestampSet::kNone ||
        min_active > snap_time_.load(std::memory_order_seq_cst)) {
      break;
    }
    // Back off between scans: the puts we are waiting on need CPU to
    // complete, and on the 1-core host a hot loop here burns the scanner's
    // whole quantum against them.
    backoff.Pause();
  }
  return snap_time_.load(std::memory_order_seq_cst);
}

// WriteThrottle adapter for cLSM: puts run lock-free, so the gate waits
// (when it must) on the maintenance machinery's 1ms-poll condition
// variable and sleeps without releasing anything.
class ClsmDb::GateClient final : public DbChassis::GateClient {
 public:
  explicit GateClient(ClsmDb* db) : DbChassis::GateClient(db), db_(db) {}

  bool ShuttingDown() override { return db_->shutting_down_.load(std::memory_order_acquire); }
  void WaitForProgress() override {
    std::unique_lock<std::mutex> l(db_->maintenance_mutex_);
    db_->maintenance_cv_.notify_one();
    db_->work_done_cv_.wait_for(l, std::chrono::milliseconds(1));
  }
  uint64_t DelaySleep(uint64_t nanos) override {
    const uint64_t t0 = MonotonicNanos();
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
    return MonotonicNanos() - t0;
  }

 private:
  ClsmDb* const db_;
};

Status ClsmDb::ThrottleIfNeeded(uint64_t bytes, bool* stalled_out) {
  // cLSM never blocks puts in normal operation; the waits live in the
  // shared WriteThrottle gate — Cm full while C'm is still merging
  // (heavy-compaction mode, §5.3), the L0 safety valve, and the admission
  // delay of the token bucket. See
  // src/lsm/write_controller.h.
  GateClient client(this);
  return throttle_->Gate(&client, bytes, stalled_out);
}

template <typename Op>
Status ClsmDb::Commit(const WriteOptions& options, DbOpType op, const Op* ops, size_t n) {
  // Degraded read-only mode: a latched hard error means new writes can no
  // longer be made durable — fail them at the door (one lock-free load on
  // the happy path) instead of only when the pipeline backs up.
  if (engine_.bg_error()->writes_blocked()) {
    return engine_.bg_error()->status();
  }
  const uint64_t t0 = StartOp();
  const bool pt = tls_perf_context.timers_enabled();
  // A batch's trace record carries no key and its total payload bytes in
  // value_size (replay skips kWrite records). Summed in 64 bits and clamped
  // only at the 32-bit trace-record boundary.
  const bool batch = op == DbOpType::kWrite;
  uint64_t bytes = 0;
  for (size_t i = 0; i < n; i++) {
    bytes += ops[i].key.size() + ops[i].value.size();
  }
  const Slice trace_key = batch ? Slice() : Slice(ops[0].key);
  const uint32_t trace_bytes =
      static_cast<uint32_t>(std::min<uint64_t>(batch ? bytes : ops[0].value.size(), UINT32_MAX));
  bool op_stalled = false;
  Status s = ThrottleIfNeeded(bytes, &op_stalled);
  if (!s.ok()) {
    FinishOp(op, trace_key, trace_bytes, OpOutcome::kError, t0, op_stalled);
    return s;
  }
  // Phase boundaries: [t0, pt_a) throttle, [pt_a, t1) lock + getTS,
  // [t1, t2) memtable insert, [t2, t3) WAL append. The four segments are
  // contiguous, so their PerfContext timers sum to total_nanos (within
  // clock-read overhead) — the attribution invariant perf_context_test
  // checks.
  const uint64_t pt_a = pt ? LatencyClock::Ticks() : 0;

  // Algorithm 2, put, with a batch's ops at consecutive timestamps.
  lock_.LockShared();
  const SequenceNumber first = GetTS(n);
  MemTable* mem = mem_.load(std::memory_order_acquire);
  const uint64_t t1 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
  for (size_t i = 0; i < n; i++) {
    mem->Add(first + i, ops[i].type, ops[i].key, ops[i].value);
  }
  const uint64_t t2 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
  s = LogAndRelease(options, first, ops, n);
  const uint64_t t3 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
  if (pt) {
    PerfContext& ctx = tls_perf_context;
    ctx.throttle_nanos += LatencyClock::ToNanos(pt_a - t0);
    ctx.lock_getts_nanos += LatencyClock::ToNanos(t1 - pt_a);
    ctx.mem_insert_nanos += LatencyClock::ToNanos(t2 - t1);
    ctx.wal_append_nanos += LatencyClock::ToNanos(t3 - t2);
  }
  // The op ends at t3, so total_nanos is exactly the four segments: a
  // preemption after t3 falls outside both. The phase histograms are
  // recorded after FinishOp so that their cost stays outside the op's
  // attributed total.
  FinishOp(op, trace_key, trace_bytes, s.ok() ? OpOutcome::kOk : OpOutcome::kError, t0,
           op_stalled, t3);
  if (metrics_on_) {
    registry_.Record(OpMetric::kMemInsert, LatencyClock::ToNanos(t2 - t1));
    registry_.Record(OpMetric::kWalAppend, LatencyClock::ToNanos(t3 - t2));
  }
  return s;
}

template <typename Op>
Status ClsmDb::LogAndRelease(const WriteOptions& options, SequenceNumber first, const Op* ops,
                             size_t n) {
  Status s;
  if (!engine_.options().disable_wal) {
    // All n ops become one record, so recovery replays a batch
    // all-or-nothing even if the crash tears the log tail.
    std::string record;
    for (size_t i = 0; i < n; i++) {
      EncodeWalRecord(&record, first + i, ops[i].type, ops[i].key, ops[i].value);
    }
    AsyncLogger* logger = logger_.load(std::memory_order_acquire);
    if (options.sync || engine_.options().sync_logging) {
      s = logger->AddRecordSync(std::move(record));
    } else {
      logger->AddRecordAsync(std::move(record));
    }
  }
  active_.Remove(first);
  lock_.UnlockShared();
  return s;
}

Status ClsmDb::Put(const WriteOptions& options, const Slice& key, const Slice& value) {
  stats_.Add(DbCounter::kPutsTotal);
  const WriteOp op{kTypeValue, key, value};
  return Commit(options, DbOpType::kPut, &op, 1);
}

Status ClsmDb::Delete(const WriteOptions& options, const Slice& key) {
  stats_.Add(DbCounter::kDeletesTotal);
  const WriteOp op{kTypeDeletion, key, Slice()};
  return Commit(options, DbOpType::kDelete, &op, 1);
}

Status ClsmDb::Write(const WriteOptions& options, WriteBatch* updates) {
  stats_.Add(DbCounter::kBatchesTotal);
  if (updates->Count() == 0) {
    return Status::OK();  // nothing to order or log
  }
  return Commit(options, DbOpType::kWrite, updates->ops().data(), updates->Count());
}

Status ClsmDb::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  const uint64_t t0 = StartOp();
  // Algorithm 1, get: read the component pointers without any blocking.
  // The epoch guard covers only the pointer loads + refcount bumps; the
  // (potentially disk-bound) searches run outside any critical section.
  MemTable* mem;
  MemTable* imm;
  {
    EpochGuard guard(*engine_.epochs());
    RefMemTables(&mem, &imm);
  }
  stats_.Add(DbCounter::kGetsTotal);
  return GetPinned(options, key, ReadTimestamp(options, kMaxSequenceNumber), mem, imm, value, t0);
}

Iterator* ClsmDb::NewIterator(const ReadOptions& options) {
  stats_.Add(DbCounter::kIteratorsCreated);
  while (true) {
    IterState* state = new IterState;
    {
      EpochGuard guard(*engine_.epochs());
      RefMemTables(&state->mem, &state->imm);
    }
    state->version = engine_.versions()->GetCurrent();
    if (options.snapshot != nullptr) {
      return NewPinnedIterator(options, state, ReadTimestamp(options, 0));
    }
    // Fresh serializable snapshot, not installed: the iterator protects its
    // own data by pinning the components (installation is only needed for
    // handles that outlive this call — see GetSnapshot). Taken after the
    // pin, it is at or above every timestamp in the pinned tables (their
    // memtables rolled with no write in flight), so no flush or compaction
    // dropped a version it needs. It stands if no roll moved Pm meanwhile:
    // then every write at or below it is in the pinned components.
    const SequenceNumber seq = AcquireScanTimestamp();
    if (mem_.load(std::memory_order_acquire) == state->mem) {
      return NewPinnedIterator(options, state, seq);
    }
    CleanupIterState(state, nullptr);
  }
}

const Snapshot* ClsmDb::GetSnapshot() {
  // Algorithm 2, getSnap. The shared lock excludes the beforeMerge hook, so
  // installing the handle cannot race with the merge observing the list.
  stats_.Add(DbCounter::kSnapshotsAcquired);
  lock_.LockShared();
  SequenceNumber ts = AcquireScanTimestamp();
  const Snapshot* s = snapshots_.New(ts);
  lock_.UnlockShared();
  return s;
}

Status ClsmDb::ReadModifyWrite(const WriteOptions& options, const Slice& key,
                               const RmwFunction& f, bool* performed) {
  if (performed != nullptr) {
    *performed = false;
  }
  stats_.Add(DbCounter::kRmwTotal);
  if (engine_.bg_error()->writes_blocked()) {
    return engine_.bg_error()->status();
  }
  const uint64_t t0 = StartOp();
  bool op_stalled = false;
  Status throttle_status = ThrottleIfNeeded(key.size(), &op_stalled);
  if (!throttle_status.ok()) {
    FinishOp(DbOpType::kRmw, key, 0, OpOutcome::kError, t0, op_stalled);
    return throttle_status;
  }

  // Algorithm 3: optimistic concurrency control. Holding the lock in shared
  // mode keeps the component pointers stable for the whole read-validate-
  // write attempt; conflicts with other writers are detected at the skip
  // list's bottom level and resolved by restarting with a fresh timestamp.
  // The attempt that ends the loop releases the lock: a write through
  // LogAndRelease, a no-op directly.
  lock_.LockShared();
  Status result;
  bool did_write = false;
  uint32_t written_bytes = 0;
  while (true) {
    std::string current;
    ValueType type = kTypeDeletion;
    SequenceNumber ts_read = 0;
    // The shared lock keeps Pm and P'm from being retired.
    const bool found = GetLatest(key, mem_.load(std::memory_order_acquire),
                                 imm_.load(std::memory_order_acquire), &current, &type, &ts_read);

    std::optional<Slice> current_opt;
    if (found && type == kTypeValue) {
      current_opt = Slice(current);
    }
    std::optional<std::string> next = f(current_opt);
    if (!next.has_value()) {
      // User chose not to write; linearizes at the read.
      stats_.Add(DbCounter::kRmwNoop);
      lock_.UnlockShared();
      break;
    }

    SequenceNumber tsn = GetTS();
    MemTable* mem = mem_.load(std::memory_order_acquire);
    if (mem->AddIfNoConflict(tsn, kTypeValue, key, *next, ts_read)) {
      const WriteOp op{kTypeValue, key, *next};
      result = LogAndRelease(options, tsn, &op, 1);
      did_write = true;
      written_bytes = static_cast<uint32_t>(next->size());
      if (performed != nullptr) {
        *performed = true;
      }
      break;
    }
    // Conflict (Algorithm 3 lines 6/8/12): some concurrent operation
    // interfered between our read and our update. Retry; each retry implies
    // another operation made progress, preserving lock-freedom.
    stats_.Add(DbCounter::kRmwConflicts);
    active_.Remove(tsn);
  }
  // Trace outcome doubles as the replay decision: kOk means the user
  // function wrote (replay re-applies it), kNotFound means it declined.
  FinishOp(DbOpType::kRmw, key, written_bytes,
           !result.ok() ? OpOutcome::kError : (did_write ? OpOutcome::kOk : OpOutcome::kNotFound),
           t0, op_stalled);
  return result;
}

void ClsmDb::RollMemTable() {
  // beforeMerge (Algorithm 1/2): prepare the new component and WAL outside
  // the exclusive section so puts are blocked only for the pointer swaps.
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

  stats_.Add(DbCounter::kMemtableRolls);
  lock_.LockExclusive();
  MemTable* old_mem = mem_.load(std::memory_order_relaxed);
  imm_.store(old_mem, std::memory_order_release);   // P'm <- Pm
  mem_.store(fresh_mem, std::memory_order_release); // Pm <- new component
  AsyncLogger* old_logger = logger_.exchange(fresh_logger.release(), std::memory_order_acq_rel);
  log_number_.store(fresh_log);
  imm_exists_.store(true, std::memory_order_release);
  lock_.UnlockExclusive();

  imm_logger_.reset(old_logger);
  engine_.listeners().NotifyMemtableRoll(old_mem->ApproximateMemoryUsage());
}

void ClsmDb::ClearImmutable() {
  lock_.LockExclusive();
  imm_.store(nullptr, std::memory_order_release);
  imm_exists_.store(false, std::memory_order_release);
  lock_.UnlockExclusive();
}

void ClsmDb::MaintenanceLoop() {
  // Rolls and flushes only — this thread is §5.3's reserved flush thread.
  // Compactions are picked and dispatched by the engine's worker pool
  // (StartCompactionScheduler), so a long merge never delays the
  // Cm -> C'm roll. Version-set mutation stays serialized because
  // LogAndApply itself is internally locked.
  while (true) {
    bool need_roll = false;
    bool need_flush = false;
    {
      std::unique_lock<std::mutex> l(maintenance_mutex_);
      while (!shutting_down_.load(std::memory_order_acquire)) {
        // With a hard error latched there is nothing useful to do: rolling
        // would orphan more WALs and flushing would retire a log whose
        // durability is unknown. Park until shutdown (or reopen).
        const bool blocked = engine_.bg_error()->writes_blocked();
        MemTable* mem = mem_.load(std::memory_order_acquire);
        need_flush = !blocked && imm_exists_.load(std::memory_order_acquire);
        need_roll = !blocked && !need_flush && mem != nullptr &&
                    mem->ApproximateMemoryUsage() >= engine_.options().write_buffer_size;
        if (need_roll || need_flush) {
          break;
        }
        maintenance_cv_.wait_for(l, std::chrono::milliseconds(2));
      }
    }
    if (shutting_down_.load(std::memory_order_acquire)) {
      // Final drain: flush nothing (WAL provides durability), just exit.
      return;
    }
    if (need_roll) {
      RollMemTable();
    }
    if (imm_exists_.load(std::memory_order_acquire) &&
        !engine_.bg_error()->writes_blocked()) {
      FlushImmutable();
    }
    work_done_cv_.notify_all();
  }
}

}  // namespace clsm
