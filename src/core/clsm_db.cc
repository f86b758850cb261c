#include "src/core/clsm_db.h"

#include <chrono>

#include <algorithm>

#include "src/core/db_iter.h"
#include "src/obs/instrumented_iter.h"
#include "src/obs/rpc_stats.h"
#include "src/obs/stats_export.h"
#include "src/obs/trace_listener.h"
#include "src/sync/backoff.h"
#include "src/table/merging_iterator.h"

namespace clsm {

Status ClsmDb::Open(const Options& options, const std::string& dbname, DB** dbptr) {
  *dbptr = nullptr;
  std::unique_ptr<ClsmDb> db(new ClsmDb(options, dbname));
  Status s = db->Init();
  if (!s.ok()) {
    return s;
  }
  *dbptr = db.release();
  return Status::OK();
}

ClsmDb::ClsmDb(const Options& options, const std::string& dbname)
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
                                              /*fail_on_any_bg_error=*/false,
                                              /*stop_only_when_mem_full=*/false);
  throttle_->SetRegistry(metrics_on_ ? &registry_ : nullptr);
  trace_ops_ = engine_.listeners().has_op_listeners();
  attributed_ops_ = trace_ops_ || slow_op_threshold_nanos_ != 0;
}

Status ClsmDb::Init() {
  MemTable* recovered = nullptr;
  SequenceNumber max_seq = 0;
  Status s = engine_.Open(&recovered, &max_seq);
  if (!s.ok()) {
    if (recovered != nullptr) {
      recovered->Unref();
    }
    return s;
  }
  time_counter_.AdvanceTo(max_seq);
  snap_time_.store(0, std::memory_order_relaxed);

  // Fresh WAL for the new mutable memtable.
  if (!engine_.options().disable_wal) {
    std::unique_ptr<AsyncLogger> logger;
    s = engine_.NewLog(&log_number_, &logger);
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

  // Publish the recovered timestamp before any manifest edit is written so
  // the edit records the true last sequence (scans after a future reopen
  // depend on it).
  engine_.versions()->SetLastSequence(std::max(engine_.versions()->LastSequence(), max_seq));

  // Flush recovered WAL contents straight to level 0, then retire old logs.
  if (recovered != nullptr && recovered->NumEntries() > 0) {
    s = engine_.FlushMemTable(recovered, log_number_, SmallestLiveSnapshot());
  } else {
    // Still record the fresh log in the manifest so the obsolete-file sweep
    // below cannot strand CURRENT pointing at a removed manifest.
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
          {
            std::lock_guard<std::mutex> l(rpc_mu_);
            if (rpc_stats_ != nullptr) {
              c.rpc_requests = rpc_stats_->TotalRequests();
            }
          }
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
    hooks.rpctrace_set = [this](uint32_t ppm) {
      std::lock_guard<std::mutex> l(rpc_mu_);
      if (rpc_stats_ == nullptr) {
        return false;  // no KV service has attached yet
      }
      rpc_stats_->SetTraceSamplePpm(ppm);
      return true;
    };
    hooks.rpctrace_dump = [this]() -> std::string {
      std::shared_ptr<TraceEventListener> t;
      {
        std::lock_guard<std::mutex> l(rpc_mu_);
        t = rpc_trace_;
      }
      return t != nullptr ? t->DumpChromeTrace() : std::string();
    };
    hooks.max_connections = engine_.options().admin_max_connections;
    admin_ = std::make_unique<AdminServer>(std::move(hooks));
    s = admin_->Start(engine_.options().admin_bind_address, engine_.options().admin_port);
    if (!s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

ClsmDb::~ClsmDb() {
  // Stop the admin server first (its handlers call GetProperty and walk
  // engine_ state), then the reporter (same reason).
  admin_.reset();
  reporter_.reset();
  shutting_down_.store(true, std::memory_order_release);
  maintenance_cv_.notify_all();
  if (maintenance_thread_.joinable()) {
    maintenance_thread_.join();
  }
  // Stop the compaction workers before any state their callbacks touch
  // (snapshots_, time_counter_, bg_error_) is torn down.
  engine_.StopCompactionScheduler();

  // Drain and close the WAL so everything enqueued is recoverable.
  AsyncLogger* logger = logger_.exchange(nullptr, std::memory_order_acq_rel);
  delete logger;  // dtor drains, syncs and closes
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
      stats_.Bump(stats_.getts_rollbacks);
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

namespace {
// WriteThrottle adapter for the cLSM chassis: puts run lock-free, so the
// gate observes the component pointers directly and waits (when it must)
// on the maintenance machinery's 1ms-poll condition variable.
class ClsmGateClient final : public WriteThrottle::Client {
 public:
  ClsmGateClient(StorageEngine* engine, std::atomic<MemTable*>* mem,
                 std::atomic<bool>* imm_exists, std::atomic<bool>* shutting_down,
                 std::mutex* maintenance_mutex, std::condition_variable* maintenance_cv,
                 std::condition_variable* work_done_cv)
      : engine_(engine),
        mem_(mem),
        imm_exists_(imm_exists),
        shutting_down_(shutting_down),
        maintenance_mutex_(maintenance_mutex),
        maintenance_cv_(maintenance_cv),
        work_done_cv_(work_done_cv) {}

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
  bool ShuttingDown() override { return shutting_down_->load(std::memory_order_acquire); }
  void KickMaintenance() override { maintenance_cv_->notify_one(); }
  void WaitForProgress() override {
    std::unique_lock<std::mutex> l(*maintenance_mutex_);
    maintenance_cv_->notify_one();
    work_done_cv_->wait_for(l, std::chrono::milliseconds(1));
  }
  uint64_t DelaySleep(uint64_t nanos) override {
    const uint64_t t0 = MonotonicNanos();
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos));
    return MonotonicNanos() - t0;
  }

 private:
  StorageEngine* engine_;
  std::atomic<MemTable*>* mem_;
  std::atomic<bool>* imm_exists_;
  std::atomic<bool>* shutting_down_;
  std::mutex* maintenance_mutex_;
  std::condition_variable* maintenance_cv_;
  std::condition_variable* work_done_cv_;
};
}  // namespace

Status ClsmDb::ThrottleIfNeeded(uint64_t bytes, bool* stalled_out) {
  // cLSM never blocks puts in normal operation; the waits live in the
  // shared WriteThrottle gate — Cm full while C'm is still merging
  // (heavy-compaction mode, §5.3), the L0 safety valve, and the admission
  // delay of the token bucket. See
  // src/lsm/write_controller.h.
  ClsmGateClient client(&engine_, &mem_, &imm_exists_, &shutting_down_, &maintenance_mutex_,
                        &maintenance_cv_, &work_done_cv_);
  return throttle_->Gate(&client, bytes, stalled_out);
}

void ClsmDb::FinishOp(DbOpType op, const Slice& key, uint32_t value_size, OpOutcome outcome,
                      uint64_t start_ticks, bool stalled) {
  // start_ticks == 0 means no attribution sink asked for timing at op
  // entry; there is nothing coherent to report.
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
      // The record carries the PerfContext snapshot as-is; its `level`
      // field tells consumers whether the counters/timers were populated
      // for this op (at "off" they are not meaningful).
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

template <typename Op>
Status ClsmDb::Commit(const WriteOptions& options, DbOpType op, const Op* ops, size_t n) {
  // Degraded read-only mode: a latched hard error means new writes can no
  // longer be made durable — fail them at the door (one lock-free load on
  // the happy path) instead of only when the pipeline backs up.
  if (engine_.bg_error()->writes_blocked()) {
    return engine_.bg_error()->status();
  }
  // Per-op attribution prologue: publish the perf level (resetting the
  // thread-local context) and take the entry timestamp once for all sinks
  // — latency histograms, PerfContext timers, slow-op logging, op tracing.
  PerfContextStartOp(perf_level_);
  const bool pt = tls_perf_context.timers_enabled();
  const bool timing = metrics_on_ || attributed_ops_ || pt;
  const uint64_t t0 = timing ? LatencyClock::Ticks() : 0;
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
  if (metrics_on_ || pt) {
    const uint64_t t3 = LatencyClock::Ticks();
    if (metrics_on_) {
      registry_.Record(OpMetric::kMemInsert, LatencyClock::ToNanos(t2 - t1));
      registry_.Record(OpMetric::kWalAppend, LatencyClock::ToNanos(t3 - t2));
      if (!batch) {
        registry_.Record(op == DbOpType::kPut ? OpMetric::kPut : OpMetric::kDelete,
                         LatencyClock::ToNanos(t3 - t0));
      }
    }
    if (pt) {
      PerfContext& ctx = tls_perf_context;
      ctx.throttle_nanos += LatencyClock::ToNanos(pt_a - t0);
      ctx.lock_getts_nanos += LatencyClock::ToNanos(t1 - pt_a);
      ctx.mem_insert_nanos += LatencyClock::ToNanos(t2 - t1);
      ctx.wal_append_nanos += LatencyClock::ToNanos(t3 - t2);
    }
  }
  FinishOp(op, trace_key, trace_bytes, s.ok() ? OpOutcome::kOk : OpOutcome::kError, t0,
           op_stalled);
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
  stats_.Bump(stats_.puts_total);
  const WriteOp op{kTypeValue, key, value};
  return Commit(options, DbOpType::kPut, &op, 1);
}

Status ClsmDb::Delete(const WriteOptions& options, const Slice& key) {
  stats_.Bump(stats_.deletes_total);
  const WriteOp op{kTypeDeletion, key, Slice()};
  return Commit(options, DbOpType::kDelete, &op, 1);
}

Status ClsmDb::Write(const WriteOptions& options, WriteBatch* updates) {
  stats_.Bump(stats_.batches_total);
  if (updates->Count() == 0) {
    return Status::OK();  // nothing to order or log
  }
  return Commit(options, DbOpType::kWrite, updates->ops().data(), updates->Count());
}

Status ClsmDb::Get(const ReadOptions& options, const Slice& key, std::string* value) {
  PerfContextStartOp(perf_level_);
  const bool pt = tls_perf_context.timers_enabled();
  const bool timing = metrics_on_ || attributed_ops_ || pt;
  const uint64_t t0 = timing ? LatencyClock::Ticks() : 0;
  SequenceNumber seq = kMaxSequenceNumber;
  if (options.snapshot != nullptr) {
    seq = static_cast<const SnapshotImpl*>(options.snapshot)->timestamp();
  }
  LookupKey lkey(key, seq);

  // Algorithm 1, get: read the component pointers without any blocking.
  // The epoch guard covers only the pointer loads + refcount bumps; the
  // (potentially disk-bound) searches run outside any critical section.
  MemTable* mem;
  MemTable* imm;
  {
    EpochGuard guard(*engine_.epochs());
    mem = mem_.load(std::memory_order_acquire);
    mem->Ref();
    imm = imm_.load(std::memory_order_acquire);
    if (imm != nullptr) {
      imm->Ref();
    }
  }

  stats_.Bump(stats_.gets_total);
  // Attribution split: mem_search covers the Cm/C'm probes, disk_search the
  // engine (table) lookup; for memtable hits the whole search is mem_search.
  const uint64_t search_t0 = pt ? LatencyClock::Ticks() : 0;
  Status s;
  if (mem->Get(lkey, value, &s)) {
    stats_.Bump(stats_.gets_from_mem);
    if (pt) {
      tls_perf_context.mem_search_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - search_t0);
    }
  } else if (imm != nullptr && imm->Get(lkey, value, &s)) {
    stats_.Bump(stats_.gets_from_imm);
    if (pt) {
      tls_perf_context.mem_search_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - search_t0);
    }
  } else {
    const uint64_t disk_t0 = pt ? LatencyClock::Ticks() : 0;
    if (pt) {
      tls_perf_context.mem_search_nanos += LatencyClock::ToNanos(disk_t0 - search_t0);
    }
    s = engine_.Get(options, lkey, value);
    stats_.Bump(stats_.gets_from_disk);
    if (pt) {
      tls_perf_context.disk_search_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - disk_t0);
    }
  }

  mem->Unref();
  if (imm != nullptr) {
    imm->Unref();
  }
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

Iterator* ClsmDb::NewIterator(const ReadOptions& options) {
  stats_.Bump(stats_.iterators_created);
  IterState* state = nullptr;
  SequenceNumber seq = 0;
  while (true) {
    state = new IterState{nullptr, nullptr, nullptr};
    {
      EpochGuard guard(*engine_.epochs());
      state->mem = mem_.load(std::memory_order_acquire);
      state->mem->Ref();
      state->imm = imm_.load(std::memory_order_acquire);
      if (state->imm != nullptr) {
        state->imm->Ref();
      }
    }
    state->version = engine_.versions()->GetCurrent();
    if (options.snapshot != nullptr) {
      seq = static_cast<const SnapshotImpl*>(options.snapshot)->timestamp();
      break;
    }
    // Fresh serializable snapshot, not installed: the iterator protects its
    // own data by pinning the components (installation is only needed for
    // handles that outlive this call — see GetSnapshot). Taken after the
    // pin, it is at or above every timestamp in the pinned tables (their
    // memtables rolled with no write in flight), so no flush or compaction
    // dropped a version it needs. It stands if no roll moved Pm meanwhile:
    // then every write at or below it is in the pinned components.
    seq = AcquireScanTimestamp();
    if (mem_.load(std::memory_order_acquire) == state->mem) {
      break;
    }
    CleanupIterState(state, nullptr);
  }
  std::vector<Iterator*> children;
  children.push_back(state->mem->NewIterator());
  if (state->imm != nullptr) {
    children.push_back(state->imm->NewIterator());
  }
  state->version->AddIterators(options, &children);

  Iterator* internal =
      NewMergingIterator(engine_.icmp(), children.data(), static_cast<int>(children.size()));
  internal->RegisterCleanup(&CleanupIterState, state, nullptr);
  return NewLatencyRecordingIterator(NewDBIterator(engine_.icmp()->user_comparator(), internal, seq),
                                     metrics_on_ ? &registry_ : nullptr);
}

const Snapshot* ClsmDb::GetSnapshot() {
  // Algorithm 2, getSnap. The shared lock excludes the beforeMerge hook, so
  // installing the handle cannot race with the merge observing the list.
  stats_.Bump(stats_.snapshots_acquired);
  lock_.LockShared();
  SequenceNumber ts = AcquireScanTimestamp();
  const Snapshot* s = snapshots_.New(ts);
  lock_.UnlockShared();
  return s;
}

void ClsmDb::ReleaseSnapshot(const Snapshot* snapshot) { snapshots_.Release(snapshot); }

bool ClsmDb::GetLatest(const Slice& key, std::string* value, ValueType* type,
                       SequenceNumber* seq) {
  // Caller holds the shared lock, so Pm/P'm are stable — no epoch needed.
  LookupKey lkey(key, kMaxSequenceNumber);
  Status s;
  *seq = 0;
  MemTable* mem = mem_.load(std::memory_order_acquire);
  if (mem->Get(lkey, value, &s, seq)) {
    *type = s.ok() ? kTypeValue : kTypeDeletion;
    return true;
  }
  MemTable* imm = imm_.load(std::memory_order_acquire);
  if (imm != nullptr && imm->Get(lkey, value, &s, seq)) {
    *type = s.ok() ? kTypeValue : kTypeDeletion;
    return true;
  }
  ReadOptions ro;
  s = engine_.Get(ro, lkey, value, seq);
  if (s.ok()) {
    *type = kTypeValue;
    return true;
  }
  if (s.IsNotFound() && *seq != 0) {
    *type = kTypeDeletion;
    return true;
  }
  return false;
}

Status ClsmDb::ReadModifyWrite(const WriteOptions& options, const Slice& key,
                               const RmwFunction& f, bool* performed) {
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
    const bool found = GetLatest(key, &current, &type, &ts_read);

    std::optional<Slice> current_opt;
    if (found && type == kTypeValue) {
      current_opt = Slice(current);
    }
    std::optional<std::string> next = f(current_opt);
    if (!next.has_value()) {
      // User chose not to write; linearizes at the read.
      stats_.Bump(stats_.rmw_noop);
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
    stats_.Bump(stats_.rmw_conflicts);
    active_.Remove(tsn);
  }
  if (metrics_on_) {
    registry_.Record(OpMetric::kRmw, LatencyClock::ToNanos(LatencyClock::Ticks() - t0));
  }
  // Trace outcome doubles as the replay decision: kOk means the user
  // function wrote (replay re-applies it), kNotFound means it declined.
  FinishOp(DbOpType::kRmw, key, written_bytes,
           !result.ok() ? OpOutcome::kError : (did_write ? OpOutcome::kOk : OpOutcome::kNotFound),
           t0, op_stalled);
  return result;
}

SequenceNumber ClsmDb::SmallestLiveSnapshot() {
  // Obsolete-version GC bound (§3.2.1): versions at or below the oldest
  // installed snapshot that are shadowed by newer ones may be discarded.
  return snapshots_.OldestTimestamp(time_counter_.Get());
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

  stats_.Bump(stats_.memtable_rolls);
  lock_.LockExclusive();
  MemTable* old_mem = mem_.load(std::memory_order_relaxed);
  imm_.store(old_mem, std::memory_order_release);   // P'm <- Pm
  mem_.store(fresh_mem, std::memory_order_release); // Pm <- new component
  AsyncLogger* old_logger = logger_.exchange(fresh_logger.release(), std::memory_order_acq_rel);
  imm_log_number_ = log_number_;
  log_number_ = fresh_log;
  imm_exists_.store(true, std::memory_order_release);
  lock_.UnlockExclusive();

  imm_logger_.reset(old_logger);
  engine_.listeners().NotifyMemtableRoll(old_mem->ApproximateMemoryUsage());
}

void ClsmDb::FlushImmutable() {
  // Once a hard error is latched the WAL/flush pipeline can no longer be
  // trusted: leave C'm (and its WAL) in place — reads keep serving it, and
  // the next open replays the WAL.
  if (engine_.bg_error()->writes_blocked()) {
    return;
  }
  MemTable* imm = imm_.load(std::memory_order_acquire);
  assert(imm != nullptr);

  // The flush edit persists the current timestamp counter: recovery
  // restores it as max(manifest last-sequence, replayed WAL timestamps).
  engine_.versions()->SetLastSequence(
      std::max(engine_.versions()->LastSequence(), time_counter_.Get()));

  // Every record of the immutable component must be durably in its WAL
  // before the table build starts: Close() drains the queue, syncs and
  // closes the file — and REPORTS failure. A failed final sync means acked
  // synchronous writes may exist only in this WAL, so the flush must abort
  // before the table build can retire the log (the pre-PR code reset the
  // logger blind and went on to delete the WAL: fsyncgate-style data loss).
  if (imm_logger_ != nullptr) {
    Status wal_status = imm_logger_->Close();
    imm_logger_.reset();
    if (!wal_status.ok()) {
      engine_.RecordBackgroundError(BgErrorReason::kWalSync, wal_status);
      return;
    }
  }
  stats_.Bump(stats_.flushes);

  // Dropping shadowed versions here is safe for every reader of the new
  // table: snapshots installed before the roll bound SmallestLiveSnapshot,
  // and every later scan timestamp is at or above C'm's newest (all its
  // writers finished before the roll), as NewIterator relies on too.
  Status s = engine_.FlushMemTable(imm, log_number_, SmallestLiveSnapshot());
  if (!s.ok()) {
    // FlushMemTable latched the error; C'm stays resident for reads.
    return;
  }

  // afterMerge: Pd was already switched by the version install inside
  // FlushMemTable; now clear P'm and retire the old component once all
  // concurrent readers are done with it.
  lock_.LockExclusive();
  imm_.store(nullptr, std::memory_order_release);
  imm_exists_.store(false, std::memory_order_release);
  lock_.UnlockExclusive();

  engine_.epochs()->Synchronize();
  imm->Unref();

  engine_.RemoveObsoleteFiles(log_number_);
  // The new level-0 file may have made a compaction pickable.
  engine_.SignalCompaction();
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

void ClsmDb::WaitForMaintenance() {
  while (true) {
    bool busy = imm_exists_.load(std::memory_order_acquire) || !engine_.CompactionsIdle();
    if (!busy) {
      // Pin the memtable while probing its size: the maintenance thread
      // frees rolled memtables only after an epoch Synchronize.
      EpochGuard guard(*engine_.epochs());
      MemTable* mem = mem_.load(std::memory_order_acquire);
      busy = mem != nullptr && mem->ApproximateMemoryUsage() >= engine_.options().write_buffer_size;
    }
    if (!busy) {
      return;
    }
    std::unique_lock<std::mutex> l(maintenance_mutex_);
    if (!engine_.bg_error()->ok()) {
      return;  // maintenance is wedged; nothing further to wait for
    }
    maintenance_cv_.notify_one();
    engine_.SignalCompaction();
    work_done_cv_.wait_for(l, std::chrono::milliseconds(1));
  }
}

std::string ClsmDb::GetProperty(const Slice& property) {
  if (property == Slice("clsm.levels")) {
    return engine_.versions()->LevelSummary();
  }
  if (property == Slice("clsm.mem-usage")) {
    MemTable* mem = mem_.load(std::memory_order_acquire);
    return std::to_string(mem != nullptr ? mem->ApproximateMemoryUsage() : 0);
  }
  if (property == Slice("clsm.last-ts")) {
    return std::to_string(time_counter_.Get());
  }
  if (property == Slice("clsm.stats")) {
    // Compactions are counted by the engine's scheduler; mirror the total
    // into the legacy counter so the "maintenance:" line stays truthful.
    stats_.compactions.store(engine_.compaction_stats()->TotalCompactions(),
                             std::memory_order_relaxed);
    return stats_.ToString() + engine_.compaction_stats()->ToString();
  }
  if (property == Slice("clsm.stats.json")) {
    return BuildStatsJson(StatsSource());
  }
  if (property == Slice("clsm.perf.json")) {
    // The calling thread's per-op attribution context: the last operation
    // this thread ran against any DB with perf_level enabled.
    return tls_perf_context.ToJson();
  }
  if (property == Slice("clsm.stats.reset")) {
    ResetStats();
    return "OK";
  }
  if (property == Slice("clsm.stall-micros")) {
    return std::to_string(stats_.TotalStallMicros());
  }
  if (property == Slice("clsm.l0-files")) {
    return std::to_string(engine_.NumLevelFiles(0));
  }
  if (property == Slice("clsm.write-rate")) {
    // Current admitted rate in bytes/sec (max_rate when unthrottled).
    return std::to_string(throttle_->controller()->current_rate());
  }
  if (property == Slice("clsm.compaction-overlaps")) {
    return std::to_string(engine_.versions()->InFlightOverlapViolations());
  }
  if (property == Slice("clsm.compactions-inflight")) {
    return std::to_string(engine_.versions()->NumInFlightCompactions());
  }
  if (property == Slice("clsm.background-error")) {
    return engine_.bg_error()->ToString();
  }
  if (property == Slice("clsm.bg-error")) {
    // Baseline-compatible spelling: just the status string.
    return engine_.bg_error()->status().ToString();
  }
  if (property == Slice("clsm.admin-port")) {
    // The bound port (resolves Options::admin_port == 0); -1 if disabled.
    return std::to_string(admin_ != nullptr ? admin_->port() : -1);
  }
  return std::string();
}

StatsJsonSource ClsmDb::StatsSource() {
  // Compactions are counted by the engine's scheduler; mirror the total
  // into the legacy counter so every snapshot stays truthful.
  stats_.compactions.store(engine_.compaction_stats()->TotalCompactions(),
                           std::memory_order_relaxed);
  StatsJsonSource src;
  src.db = Name();
  src.counters = &stats_;
  src.registry = &registry_;
  src.engine = &engine_;
  src.active_set = &active_;
  src.throttle = throttle_.get();
  {
    // Raw pointer is safe: rpc_stats_ is set-once and held until the dtor,
    // and the source is consumed synchronously by the exporter.
    std::lock_guard<std::mutex> l(rpc_mu_);
    src.rpc = rpc_stats_.get();
  }
  return src;
}

void ClsmDb::ResetStats() {
  stats_.Reset();
  registry_.Reset();
  slow_op_limiter_.Reset();
  std::lock_guard<std::mutex> l(rpc_mu_);
  if (rpc_stats_ != nullptr) {
    rpc_stats_->Reset();
  }
}

std::shared_ptr<SlowOpRingListener> ClsmDb::AttachRpcObservability(
    std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace) {
  std::lock_guard<std::mutex> l(rpc_mu_);
  rpc_stats_ = std::move(stats);
  rpc_trace_ = std::move(trace);
  // Slow RPC records land in the same ring GET /slowops serves, next to
  // the engine's own slow-op records (null when the admin server is off).
  return admin_slow_ring_;
}

}  // namespace clsm
