#include <shared_mutex>

#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"
#include "src/sync/backoff.h"
#include "src/util/hash.h"

namespace clsm {

namespace {

// HyperLevelDB's key improvement over LevelDB (paper §6): fine-grained
// locking lets multiple writers insert into the memtable concurrently.
// Puts and deletes claim sequence numbers atomically, serialize only per
// key stripe and publish in claim order, holding the base's apply latch
// shared, so the roll and the writer queue's group apply (batches, RMW)
// exclude them. The read path stays LevelDB's (brief global mutex), which
// is why this variant stops scaling on read-heavy loads.
class HyperStyleDb final : public BaselineDbBase {
 public:
  HyperStyleDb(const Options& options, const std::string& dbname)
      : BaselineDbBase(options, dbname) {}
  ~HyperStyleDb() override { StopBackground(); }

  const char* Name() const override { return "hyperleveldb"; }

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override {
    stats_.Add(DbCounter::kPutsTotal);
    return ConcurrentWrite(options, DbOpType::kPut, kTypeValue, key, value);
  }

  Status Delete(const WriteOptions& options, const Slice& key) override {
    stats_.Add(DbCounter::kDeletesTotal);
    return ConcurrentWrite(options, DbOpType::kDelete, kTypeDeletion, key, Slice());
  }

 private:
  static constexpr int kStripes = 16;

  Status ConcurrentWrite(const WriteOptions& options, DbOpType op, ValueType type,
                         const Slice& key, const Slice& value) {
    const uint64_t t0 = StartOp();
    bool op_stalled = false;
    Status s = engine_.bg_error()->writes_blocked() ? engine_.bg_error()->status() : Status::OK();
    // Slow path only when backpressure may apply: take the global mutex and
    // run the shared admission gate (including the roll). GateLikelyNeeded
    // is true while the controller is throttled or due a refresh.
    if (s.ok() && (mem_.load(std::memory_order_acquire)->ApproximateMemoryUsage() >=
                       engine_.options().write_buffer_size ||
                   throttle_->GateLikelyNeeded())) {
      std::unique_lock<std::mutex> l(mutex_);
      s = MakeRoomForWrite(l, key.size() + value.size(), &op_stalled);
    }
    if (s.ok()) {
      // Fast path: concurrent insert under the shared apply latch + key
      // stripe. The latch is held through the WAL append (and sync), so no
      // roll retires this memtable or logger meanwhile.
      std::shared_lock<std::shared_mutex> apply(apply_latch_);
      MemTable* mem = mem_.load(std::memory_order_acquire);
      const SequenceNumber seq = last_claimed_.fetch_add(1, std::memory_order_relaxed) + 1;
      const bool pt = tls_perf_context.timers_enabled();
      const uint64_t t1 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
      {
        std::lock_guard<std::mutex> stripe(stripes_[Hash(key) % kStripes]);
        mem->Add(seq, type, key, value);
      }
      // Publish in claim order, as HyperLevelDB does: seq becomes visible
      // only once every insert claimed before it is in the memtable, so a
      // snapshot at seq reads the same values every time.
      SpinBackoff backoff;
      while (last_sequence_.load(std::memory_order_acquire) != seq - 1) {
        backoff.Pause();
      }
      last_sequence_.store(seq, std::memory_order_release);
      const uint64_t t2 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
      if (!engine_.options().disable_wal) {
        std::string record;
        EncodeWalRecord(&record, seq, type, key, value);
        AsyncLogger* logger = logger_.load(std::memory_order_acquire);
        if (options.sync || engine_.options().sync_logging) {
          s = logger->AddRecordSync(std::move(record));
        } else {
          logger->AddRecordAsync(std::move(record));
        }
      }
      const uint64_t t3 = (metrics_on_ || pt) ? LatencyClock::Ticks() : 0;
      if (pt) {
        tls_perf_context.mem_insert_nanos += LatencyClock::ToNanos(t2 - t1);
        tls_perf_context.wal_append_nanos += LatencyClock::ToNanos(t3 - t2);
      }
      if (metrics_on_) {
        registry_.Record(OpMetric::kMemInsert, LatencyClock::ToNanos(t2 - t1));
        registry_.Record(OpMetric::kWalAppend, LatencyClock::ToNanos(t3 - t2));
      }
    }
    FinishOp(op, key, static_cast<uint32_t>(value.size()),
             s.ok() ? OpOutcome::kOk : OpOutcome::kError, t0, op_stalled);
    return s;
  }

  std::mutex stripes_[kStripes];
};

}  // namespace

Status OpenHyperStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return DbChassis::Open(std::make_unique<HyperStyleDb>(options, dbname), dbptr);
}

}  // namespace clsm
