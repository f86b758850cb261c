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

  // Fig 9's cost model: the stripe lock, a read outside the writer queue
  // (as Get reads), then the write through the queue. Read-compute-write
  // is atomic for this key because every writer of the key serializes on
  // the same stripe.
  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override {
    std::lock_guard<std::mutex> stripe(stripes_[StripeFor(key)]);
    return Rmw(options, key, f, performed, /*read_in_queue=*/false);
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
