#include "src/core/db_chassis.h"

#include <algorithm>
#include <chrono>

#include "src/core/db_iter.h"
#include "src/obs/instrumented_iter.h"
#include "src/obs/rpc_stats.h"
#include "src/table/merging_iterator.h"

namespace clsm {

DbChassis::DbChassis(const Options& options, const std::string& dbname,
                     bool fail_on_any_bg_error, bool stop_only_when_mem_full,
                     bool flush_drops_shadowed)
    : dbname_(dbname),
      admin_slow_ring_(options.admin_port >= 0 ? std::make_shared<SlowOpRingListener>()
                                               : nullptr),
      admin_trace_(options.admin_port >= 0 ? std::make_shared<TraceController>() : nullptr),
      engine_(WithAdminListeners(options, admin_slow_ring_, admin_trace_), dbname),
      throttle_(std::make_unique<WriteThrottle>(&engine_, &stats_, fail_on_any_bg_error,
                                                stop_only_when_mem_full)),
      metrics_on_(options.latency_metrics),
      perf_level_(options.perf_level),
      slow_op_threshold_nanos_(options.slow_op_threshold_micros * 1000),
      slow_op_limiter_(options.slow_op_max_per_sec),
      flush_drops_shadowed_(flush_drops_shadowed),
      writers_roll_(stop_only_when_mem_full) {
  engine_.SetStatsRegistry(metrics_on_ ? &registry_ : nullptr);
  throttle_->SetRegistry(metrics_on_ ? &registry_ : nullptr);
  trace_ops_ = engine_.listeners().has_op_listeners();
  attributed_ops_ = trace_ops_ || slow_op_threshold_nanos_ != 0;
}

Status DbChassis::Open(std::unique_ptr<DbChassis> db, DB** dbptr) {
  *dbptr = nullptr;
  Status s = db->Init();
  if (s.ok()) {
    *dbptr = db.release();
  }
  return s;
}

Status DbChassis::Init() {
  MemTable* recovered = nullptr;
  SequenceNumber max_seq = 0;
  Status s = engine_.Open(&recovered, &max_seq);
  if (s.ok()) {
    // Fresh WAL for the new mutable memtable.
    uint64_t log_number = 0;
    if (engine_.options().disable_wal) {
      log_number = engine_.versions()->NewFileNumber();
    } else {
      std::unique_ptr<AsyncLogger> logger;
      s = engine_.NewLog(&log_number, &logger);
      logger_.store(logger.release(), std::memory_order_release);
    }
    log_number_.store(log_number);
  }
  if (s.ok()) {
    // Publish the recovered timestamp before any manifest edit is written
    // so the edit records the true last sequence (scans after a future
    // reopen depend on it).
    engine_.versions()->SetLastSequence(std::max(engine_.versions()->LastSequence(), max_seq));
    // Flush recovered WAL contents straight to level 0 (no snapshot exists
    // yet, so the GC bound is the recovered timestamp), then retire old
    // logs. With nothing recovered, still record the fresh log in the
    // manifest so the obsolete-file sweep cannot strand CURRENT pointing at
    // a removed manifest.
    s = recovered != nullptr && recovered->NumEntries() > 0
            ? engine_.FlushMemTable(recovered, log_number_, flush_drops_shadowed_ ? max_seq : 0)
            : engine_.CommitLogRotation(log_number_);
  }
  if (recovered != nullptr) {
    recovered->Unref();
  }
  if (!s.ok()) {
    return s;
  }
  engine_.RemoveObsoleteFiles(log_number_, /*include_tables=*/true);

  mem_.store(new MemTable(*engine_.icmp()), std::memory_order_release);
  StartMaintenance(max_seq);
  if (engine_.options().stats_dump_period_sec > 0) {
    reporter_ = std::make_unique<StatsReporter>(Name(), engine_.options().stats_dump_period_sec,
                                                [this] { return GetProperty("clsm.stats.json"); });
  }
  if (engine_.options().admin_port >= 0) {
    AdminHooks hooks;
    hooks.db_name = Name();
    hooks.stats_json = [this] { return GetProperty("clsm.stats.json"); };
    hooks.perf_json = [this] { return GetProperty("clsm.perf.json"); };
    hooks.metrics_text = [this] { return BuildStatsPrometheus(StatsSource()); };
    hooks.reset_stats = [this] { ResetStats(); };
    hooks.bg_error = [this] { return engine_.bg_error(); };
    hooks.slow_ops = admin_slow_ring_.get();
    hooks.trace = admin_trace_.get();
    rpc_.AddAdminHooks(&hooks);
    hooks.max_connections = engine_.options().admin_max_connections;
    admin_ = std::make_unique<AdminServer>(std::move(hooks));
    return admin_->Start(engine_.options().admin_bind_address, engine_.options().admin_port);
  }
  return Status::OK();
}

void DbChassis::StopBackground() {
  admin_.reset();
  reporter_.reset();
  shutting_down_.store(true, std::memory_order_release);
  maintenance_cv_.notify_all();
  if (maintenance_thread_.joinable()) {
    maintenance_thread_.join();
  }
  // Last, since the compaction workers' callbacks read snapshots_ and the
  // variant's timestamp (a no-op for variants that compact inline).
  engine_.StopCompactionScheduler();
}

DbChassis::~DbChassis() {
  assert(!maintenance_thread_.joinable());  // the variant called StopBackground
  // Drain and close the WAL so everything enqueued is recoverable.
  delete logger_.exchange(nullptr, std::memory_order_acq_rel);  // drains, syncs, closes
  imm_logger_.reset();
  for (std::atomic<MemTable*>* component : {&imm_, &mem_}) {
    MemTable* m = component->exchange(nullptr, std::memory_order_acq_rel);
    if (m != nullptr) {
      m->Unref();
    }
  }
}

void DbChassis::FinishOp(DbOpType op, const Slice& key, uint32_t value_size, OpOutcome outcome,
                         uint64_t start_ticks, bool stalled, uint64_t end_ticks) {
  // start_ticks == 0 means no attribution sink asked for timing at op
  // entry; there is nothing coherent to report.
  if (start_ticks == 0) {
    return;
  }
  if (end_ticks == 0) {
    end_ticks = LatencyClock::Ticks();
  }
  const uint64_t total_nanos = LatencyClock::ToNanos(end_ticks - start_ticks);
  PerfContext& ctx = tls_perf_context;
  if (ctx.timers_enabled()) {
    ctx.total_nanos = total_nanos;
  }
  if (metrics_on_ && op != DbOpType::kWrite) {
    // Indexed by DbOpType; batches have no series, so the kWrite slot is
    // never read.
    static constexpr OpMetric kSeries[] = {OpMetric::kPut, OpMetric::kDelete, OpMetric::kGet,
                                           OpMetric::kPut, OpMetric::kRmw};
    registry_.Record(kSeries[static_cast<int>(op)], total_nanos);
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
    stats_.Add(DbCounter::kSlowOpsTotal);
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
      stats_.Add(DbCounter::kSlowOpsReported);
    } else {
      stats_.Add(DbCounter::kSlowOpsDropped);
    }
  }
}

Status DbChassis::GetPinned(const ReadOptions& options, const Slice& key, SequenceNumber seq,
                            MemTable* mem, MemTable* imm, std::string* value, uint64_t t0) {
  LookupKey lkey(key, seq);
  const bool pt = tls_perf_context.timers_enabled();
  const uint64_t search_t0 = pt ? LatencyClock::Ticks() : 0;
  Status s;
  if (mem->Get(lkey, value, &s)) {
    stats_.Add(DbCounter::kGetsFromMem);
    if (pt) {
      tls_perf_context.mem_search_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - search_t0);
    }
  } else if (imm != nullptr && imm->Get(lkey, value, &s)) {
    stats_.Add(DbCounter::kGetsFromImm);
    if (pt) {
      tls_perf_context.mem_search_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - search_t0);
    }
  } else {
    const uint64_t disk_t0 = pt ? LatencyClock::Ticks() : 0;
    if (pt) {
      tls_perf_context.mem_search_nanos += LatencyClock::ToNanos(disk_t0 - search_t0);
    }
    s = engine_.Get(options, lkey, value);
    stats_.Add(DbCounter::kGetsFromDisk);
    if (pt) {
      tls_perf_context.disk_search_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - disk_t0);
    }
  }
  mem->Unref();
  if (imm != nullptr) {
    imm->Unref();
  }
  FinishOp(DbOpType::kGet, key, s.ok() ? static_cast<uint32_t>(value->size()) : 0,
           s.ok() ? OpOutcome::kOk : (s.IsNotFound() ? OpOutcome::kNotFound : OpOutcome::kError),
           t0, /*stalled=*/false);
  return s;
}

bool DbChassis::GetLatest(const Slice& key, MemTable* mem, MemTable* imm, std::string* value,
                          ValueType* type, SequenceNumber* seq) {
  LookupKey lkey(key, kMaxSequenceNumber);
  Status s;
  *seq = 0;
  if (mem->Get(lkey, value, &s, seq) || (imm != nullptr && imm->Get(lkey, value, &s, seq))) {
    *type = s.ok() ? kTypeValue : kTypeDeletion;
    return true;
  }
  s = engine_.Get(ReadOptions(), lkey, value, seq);
  *type = s.ok() ? kTypeValue : kTypeDeletion;
  // A deletion found on disk comes back NotFound with its timestamp set.
  return s.ok() || (s.IsNotFound() && *seq != 0);
}

void DbChassis::CleanupIterState(void* arg1, void* /*arg2*/) {
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

Iterator* DbChassis::NewPinnedIterator(const ReadOptions& options, IterState* state,
                                       SequenceNumber seq) {
  std::vector<Iterator*> children;
  children.push_back(state->mem->NewIterator());
  if (state->imm != nullptr) {
    children.push_back(state->imm->NewIterator());
  }
  state->version->AddIterators(options, &children);
  Iterator* internal =
      NewMergingIterator(engine_.icmp(), children.data(), static_cast<int>(children.size()));
  internal->RegisterCleanup(&CleanupIterState, state, nullptr);
  Iterator* user = NewDBIterator(engine_.icmp()->user_comparator(), internal, seq);
  return NewLatencyRecordingIterator(user, metrics_on_ ? &registry_ : nullptr);
}

void DbChassis::FlushImmutable() {
  if (engine_.bg_error()->writes_blocked()) {
    return;
  }
  MemTable* imm = imm_.load(std::memory_order_acquire);
  assert(imm != nullptr);
  // The WAL backing Cm: the flush retires every older one. Read once, so a
  // roll right after ClearImmutable cannot retire the WAL of the next C'm.
  const uint64_t log_number = log_number_.load();

  // Every record of the immutable component must be durably in its WAL
  // before the table build starts: Close() drains the queue, syncs and
  // closes the file — and REPORTS failure. A failed final sync means acked
  // synchronous writes may exist only in this WAL, so the flush must abort
  // before the table build can retire the log.
  if (imm_logger_ != nullptr) {
    Status wal_status = imm_logger_->Close();
    imm_logger_.reset();
    if (!wal_status.ok()) {
      engine_.RecordBackgroundError(BgErrorReason::kWalSync, wal_status);
      return;
    }
  }
  stats_.Add(DbCounter::kFlushes);

  // The flush edit persists the current timestamp: recovery restores it as
  // max(manifest last-sequence, replayed WAL timestamps).
  engine_.versions()->SetLastSequence(
      std::max(engine_.versions()->LastSequence(), CurrentTimestamp()));
  Status s = engine_.FlushMemTable(imm, log_number,
                                   flush_drops_shadowed_ ? SmallestLiveSnapshot() : 0);
  if (!s.ok()) {
    return;  // FlushMemTable latched the error; C'm stays resident for reads
  }

  // afterMerge: Pd was already switched by the version install inside
  // FlushMemTable; now clear P'm and retire the old component once all
  // concurrent readers are done with it.
  ClearImmutable();
  engine_.epochs()->Synchronize();
  imm->Unref();
  engine_.RemoveObsoleteFiles(log_number);
  // The new level-0 file may have made a compaction pickable.
  engine_.SignalCompaction();
}

void DbChassis::WaitForMaintenance() {
  while (true) {
    // CompactionsIdle, not NeedsCompaction: a job whose edit is installed
    // is still finishing (its input deletions and stats) until it ends.
    bool busy = imm_exists_.load(std::memory_order_acquire) || !engine_.CompactionsIdle();
    if (!busy && !writers_roll_) {
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

std::string DbChassis::GetProperty(const Slice& property) {
  if (property == Slice("clsm.levels")) {
    return engine_.versions()->LevelSummary();
  }
  if (property == Slice("clsm.mem-usage")) {
    // Pinned: a flushed memtable is freed only after an epoch Synchronize.
    EpochGuard guard(*engine_.epochs());
    MemTable* mem = mem_.load(std::memory_order_acquire);
    return std::to_string(mem != nullptr ? mem->ApproximateMemoryUsage() : 0);
  }
  if (property == Slice("clsm.last-ts")) {
    return std::to_string(CurrentTimestamp());
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
    return std::to_string(stats_.Get(DbCounter::kStallMicros) +
                          stats_.Get(DbCounter::kRateLimitDelayMicros));
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
  if (property == Slice("clsm.admin-port")) {
    // The bound port (resolves Options::admin_port == 0); -1 if disabled.
    return std::to_string(admin_ != nullptr ? admin_->port() : -1);
  }
  return std::string();
}

bool DbChassis::FillStatsSource(StatsJsonSource* out) {
  *out = StatsSource();
  return true;
}

StatsJsonSource DbChassis::StatsSource() {
  // The one place that knows which observability state feeds the stats
  // exporters; clsm.stats.json and the admin server's /metrics render from it.
  StatsJsonSource src;
  src.db = Name();
  src.counters = &stats_;
  src.registry = &registry_;
  src.engine = &engine_;
  src.active_set = active_set_;
  src.throttle = throttle_.get();
  src.rpc = rpc_.stats();
  return src;
}

void DbChassis::ResetStats() {
  stats_.Reset();
  registry_.Reset();
  slow_op_limiter_.Reset();
  if (RpcServerStats* rpc = rpc_.stats()) {
    rpc->Reset();
  }
}

std::shared_ptr<SlowOpRingListener> DbChassis::AttachRpcObservability(
    std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace) {
  rpc_.Attach(std::move(stats), std::move(trace));
  // Slow RPC records land in the same ring GET /slowops serves, next to
  // the engine's own slow-op records (null when the admin server is off).
  return admin_slow_ring_;
}

}  // namespace clsm
