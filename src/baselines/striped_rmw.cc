#include <mutex>

#include "src/baselines/baseline_db.h"
#include "src/baselines/variants.h"
#include "src/util/hash.h"

namespace clsm {

namespace {

// The Fig 9 baseline: LevelDB augmented with a textbook read-modify-write
// built on lock striping (Gray & Reuter). Every write and RMW holds an
// exclusive granular lock for its key's stripe; reads are unchanged. The
// paper measures cLSM's optimistic RMW at ~2.5x this design.
class StripedRmwDb final : public BaselineDbBase {
 public:
  StripedRmwDb(const Options& options, const std::string& dbname)
      : BaselineDbBase(options, dbname) {}
  ~StripedRmwDb() override { StopBackground(); }

  const char* Name() const override { return "leveldb-striped-rmw"; }

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override {
    std::lock_guard<std::mutex> stripe(stripes_[StripeFor(key)]);
    return BaselineDbBase::Put(options, key, value);
  }

  Status Delete(const WriteOptions& options, const Slice& key) override {
    std::lock_guard<std::mutex> stripe(stripes_[StripeFor(key)]);
    return BaselineDbBase::Delete(options, key);
  }

  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override {
    if (performed != nullptr) {
      *performed = false;
    }
    stats_.Add(DbCounter::kRmwTotal);
    ScopedLatency probe(metrics_on_ ? &registry_ : nullptr, OpMetric::kRmw);
    // Read-compute-write is atomic for this key because every writer of the
    // key serializes on the same stripe.
    std::lock_guard<std::mutex> stripe(stripes_[StripeFor(key)]);
    std::string current;
    ReadOptions ro;
    Status s = Get(ro, key, &current);
    std::optional<Slice> cur;
    if (s.ok()) {
      cur = Slice(current);
    } else if (!s.IsNotFound()) {
      return s;
    }
    std::optional<std::string> next = f(cur);
    if (!next.has_value()) {
      return Status::OK();
    }
    s = BaselineDbBase::Put(options, key, *next);
    if (s.ok() && performed != nullptr) {
      *performed = true;
    }
    return s;
  }

 private:
  static constexpr int kStripes = 256;

  size_t StripeFor(const Slice& key) const { return Hash(key) % kStripes; }

  std::mutex stripes_[kStripes];
};

}  // namespace

Status OpenStripedRmwDb(const Options& options, const std::string& dbname, DB** dbptr) {
  return DbChassis::Open(std::make_unique<StripedRmwDb>(options, dbname), dbptr);
}

}  // namespace clsm
