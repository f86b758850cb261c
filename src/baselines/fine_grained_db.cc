#include <shared_mutex>

#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"
#include "src/util/hash.h"

namespace clsm {

namespace {

// HyperLevelDB's key improvement over LevelDB (paper §6): fine-grained
// locking lets multiple writers insert into the memtable concurrently.
// Writers assign sequence numbers atomically and serialize only per key
// stripe; the memtable roll excludes in-flight inserts with a
// shared-exclusive latch. The read path stays LevelDB's (brief global
// mutex), which is why this variant stops scaling on read-heavy loads.
class HyperStyleDb final : public BaselineDbBase {
 public:
  HyperStyleDb(const Options& options, const std::string& dbname)
      : BaselineDbBase(options, dbname) {}
  ~HyperStyleDb() override { StopBackground(); }

  const char* Name() const override { return "hyperleveldb"; }

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override {
    return ConcurrentWrite(options, kTypeValue, key, value);
  }

  Status Delete(const WriteOptions& options, const Slice& key) override {
    return ConcurrentWrite(options, kTypeDeletion, key, Slice());
  }

 private:
  static constexpr int kStripes = 16;

  Status ConcurrentWrite(const WriteOptions& options, ValueType type, const Slice& key,
                         const Slice& value) {
    // This fast path bypasses BaselineDbBase::Put/WriteLocked, so it keeps
    // its own books: the same op counters and latency series every other
    // variant records.
    stats_.Add(type == kTypeValue ? DbCounter::kPutsTotal : DbCounter::kDeletesTotal);
    ScopedLatency probe(metrics_on_ ? &registry_ : nullptr,
                        type == kTypeValue ? OpMetric::kPut : OpMetric::kDelete);
    // Slow path only when backpressure may apply: take the global mutex and
    // run the shared admission gate (including the roll). GateLikelyNeeded
    // is true while the controller is throttled or due a refresh.
    MemTable* mem_probe = mem_.load(std::memory_order_acquire);
    if (mem_probe->ApproximateMemoryUsage() >= engine_.options().write_buffer_size ||
        throttle_->GateLikelyNeeded()) {
      std::unique_lock<std::mutex> l(mutex_);
      Status s = MakeRoomForWrite(l, key.size() + value.size());
      if (!s.ok()) {
        return s;
      }
    }

    // Fast path: concurrent insert under the roll latch + key stripe.
    std::shared_lock<std::shared_mutex> roll_guard(roll_latch_);
    MemTable* mem = mem_.load(std::memory_order_acquire);
    SequenceNumber seq = last_sequence_.fetch_add(1, std::memory_order_acq_rel) + 1;
    const uint64_t t0 = metrics_on_ ? LatencyClock::Ticks() : 0;
    {
      std::lock_guard<std::mutex> stripe(stripes_[Hash(key) % kStripes]);
      mem->Add(seq, type, key, value);
    }
    const uint64_t t1 = metrics_on_ ? LatencyClock::Ticks() : 0;
    if (metrics_on_) {
      registry_.Record(OpMetric::kMemInsert, LatencyClock::ToNanos(t1 - t0));
    }
    if (!engine_.options().disable_wal) {
      std::string record;
      EncodeWalRecord(&record, seq, type, key, value);
      AsyncLogger* logger = logger_.load(std::memory_order_acquire);
      Status s;
      if (options.sync || engine_.options().sync_logging) {
        s = logger->AddRecordSync(std::move(record));
      } else {
        logger->AddRecordAsync(std::move(record));
      }
      if (metrics_on_) {
        registry_.Record(OpMetric::kWalAppend,
                         LatencyClock::ToNanos(LatencyClock::Ticks() - t1));
      }
      return s;
    }
    return Status::OK();
  }

  void RollMemTableLocked() override {
    // Exclude in-flight fast-path inserts so none lands in a retired
    // memtable after the flush has scanned past it.
    std::unique_lock<std::shared_mutex> ex(roll_latch_);
    BaselineDbBase::RollMemTableLocked();
  }

  std::shared_mutex roll_latch_;
  std::mutex stripes_[kStripes];
};

}  // namespace

Status OpenHyperStyleDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return DbChassis::Open(std::make_unique<HyperStyleDb>(options, dbname), dbptr);
}

}  // namespace clsm
