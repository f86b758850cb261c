#include "src/obs/metrics.h"

#include <functional>
#include <thread>

namespace clsm {

const char* OpMetricName(OpMetric m) {
  switch (m) {
    case OpMetric::kPut:
      return "put";
    case OpMetric::kGet:
      return "get";
    case OpMetric::kDelete:
      return "delete";
    case OpMetric::kRmw:
      return "rmw";
    case OpMetric::kIterNext:
      return "iter_next";
    case OpMetric::kWalAppend:
      return "wal_append";
    case OpMetric::kMemInsert:
      return "mem_insert";
    case OpMetric::kRollWait:
      return "roll_wait";
    case OpMetric::kFlush:
      return "flush";
    case OpMetric::kCompaction:
      return "compaction";
  }
  return "unknown";
}

int ThisThreadStatsShard() {
  thread_local const int shard =
      static_cast<int>(std::hash<std::thread::id>()(std::this_thread::get_id()) % kNumStatsShards);
  return shard;
}

void HistogramCell::MergeInto(Histogram* out) const {
  const uint64_t num = count.load(std::memory_order_relaxed);
  if (num == 0) {
    return;
  }
  uint64_t counts[Histogram::kNumBuckets];
  int lo = -1, hi = -1;
  for (int b = 0; b < Histogram::kNumBuckets; b++) {
    counts[b] = buckets[b].load(std::memory_order_relaxed);
    if (counts[b] != 0) {
      if (lo < 0) {
        lo = b;
      }
      hi = b;
    }
  }
  if (lo < 0) {
    return;  // counts raced to zero; nothing to merge
  }
  const double min = lo > 0 ? Histogram::BucketLimit(lo - 1) : 0.0;
  const double max = Histogram::BucketLimit(hi);
  out->MergeBucketCounts(counts, num, static_cast<double>(sum_nanos.load(std::memory_order_relaxed)),
                         min, max);
}

void HistogramCell::Reset() {
  count.store(0, std::memory_order_relaxed);
  sum_nanos.store(0, std::memory_order_relaxed);
  for (auto& b : buckets) {
    b.store(0, std::memory_order_relaxed);
  }
}

}  // namespace clsm
