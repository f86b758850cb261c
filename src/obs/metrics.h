// Lock-free, per-thread-sharded metrics (the observability substrate):
// latency histograms and plain counters. Hot paths pay relaxed adds on a
// shard owned (statistically) by the calling thread; aggregation merges
// every shard — into a util/histogram for the percentile series the
// paper's figures plot (p50/p95/p99/p999), or into one sum per counter.
//
// Units: all recorded latencies are wall-clock NANOSECONDS; exporters
// divide by 1000 when presenting microseconds.
#ifndef CLSM_OBS_METRICS_H_
#define CLSM_OBS_METRICS_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define CLSM_HAVE_RDTSC 1
#elif defined(__aarch64__)
// The generic timer's virtual counter: constant-rate, monotonic across
// cores, readable from EL0 in a few cycles — the aarch64 analogue of the
// invariant TSC.
#define CLSM_HAVE_CNTVCT 1
#endif

#include "src/util/histogram.h"

namespace clsm {

// One latency series per public operation and per internal write-path
// phase. Keep OpMetricName() in sync.
enum class OpMetric : int {
  // public ops
  kPut = 0,
  kGet,
  kDelete,
  kRmw,
  kIterNext,
  // internal phases
  kWalAppend,   // serializing + enqueueing the log record
  kMemInsert,   // skip-list insertion into Cm
  kRollWait,    // put blocked on backpressure (Cm full / L0 stop)
  kFlush,       // C'm -> level-0 merge
  kCompaction,  // one background compaction job (any level)
};
constexpr int kNumOpMetrics = static_cast<int>(OpMetric::kCompaction) + 1;

// Stable machine-readable name ("put", "wal_append", ...).
const char* OpMetricName(OpMetric m);

inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Tick source for the hot-path latency probes. clock_gettime costs
// ~25-40ns per read even through the vDSO — two reads per Get is most of
// the instrumentation overhead budget (<5%) on a sub-microsecond memtable
// hit. On x86-64 the TSC is invariant/constant-rate on every CPU this
// targets, reads in ~8ns, and is converted to nanoseconds with a scale
// calibrated once against steady_clock. On aarch64 the generic timer's
// virtual counter (cntvct_el0) plays the same role, scaled by the
// architecturally reported frequency (cntfrq_el0). Every other target
// falls back to steady_clock behind the same interface — slower probes,
// identical semantics — so the build and the probe-overhead story hold on
// any architecture. Long-interval timing (flushes, compactions, stalls)
// stays on MonotonicNanos: the clock cost is noise there and wall-clock
// semantics are simpler.
class LatencyClock {
 public:
  static uint64_t Ticks() {
#if defined(CLSM_HAVE_RDTSC)
    return __rdtsc();
#elif defined(CLSM_HAVE_CNTVCT)
    uint64_t v;
    asm volatile("mrs %0, cntvct_el0" : "=r"(v));
    return v;
#else
    return MonotonicNanos();
#endif
  }

  static uint64_t ToNanos(uint64_t ticks) {
#if defined(CLSM_HAVE_RDTSC) || defined(CLSM_HAVE_CNTVCT)
    return static_cast<uint64_t>(static_cast<double>(ticks) * NanosPerTick());
#else
    return ticks;
#endif
  }

 private:
  static double NanosPerTick();  // calibrated / read once on first use
};

// Defined here rather than in metrics.cc so that layers below clsm_obs (the
// table reader's phase timers) can convert ticks without linking it.
#if defined(CLSM_HAVE_CNTVCT)
inline double LatencyClock::NanosPerTick() {
  // The generic timer's frequency is architecturally discoverable — no
  // calibration spin needed.
  static const double scale = [] {
    uint64_t freq_hz;
    asm volatile("mrs %0, cntfrq_el0" : "=r"(freq_hz));
    return freq_hz != 0 ? 1e9 / static_cast<double>(freq_hz) : 1.0;
  }();
  return scale;
}
#elif defined(CLSM_HAVE_RDTSC)
inline double LatencyClock::NanosPerTick() {
  // Calibrated once per process against steady_clock over a ~200us spin
  // (sub-0.1% error; the TSC is invariant on x86-64). Thread-safe magic
  // static; the winner pays the spin, everyone else a guard-acquire load.
  static const double scale = [] {
    const uint64_t t0 = __rdtsc();
    const auto c0 = std::chrono::steady_clock::now();
    std::chrono::steady_clock::time_point c1;
    do {
      c1 = std::chrono::steady_clock::now();
    } while (c1 - c0 < std::chrono::microseconds(200));
    const uint64_t t1 = __rdtsc();
    const double nanos =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(c1 - c0).count());
    return t1 > t0 ? nanos / static_cast<double>(t1 - t0) : 1.0;
  }();
  return scale;
}
#endif

// Shard of the calling thread in [0, kNumStatsShards): a hash of the
// thread id, computed once per thread. Distinct threads may collide on a
// shard; the counters stay correct, only contention rises.
constexpr int kNumStatsShards = 16;
int ThisThreadStatsShard();

// One shard's copy of one latency series: relaxed atomic counts in the
// util/histogram bucket domain.
struct HistogramCell {
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum_nanos{0};
  std::atomic<uint64_t> buckets[Histogram::kNumBuckets] = {};

  void Record(uint64_t nanos) {
    count.fetch_add(1, std::memory_order_relaxed);
    sum_nanos.fetch_add(nanos, std::memory_order_relaxed);
    buckets[Histogram::BucketIndex(static_cast<double>(nanos))].fetch_add(
        1, std::memory_order_relaxed);
  }
  // Folds this cell into *out. No per-sample min/max is kept on the hot
  // path: the extremes are recovered from the occupied bucket range, exact
  // to bucket width.
  void MergeInto(Histogram* out) const;
  void Reset();
};

// The sharded latency-histogram primitive: kSeries series (indexed by the
// enum Series), each kept once per shard so recording threads rarely share
// a cache line. Record is wait-free (three relaxed adds); reads merge every
// shard and are racy-by-design monitoring snapshots, like ShardedCounters
// below. StatsRegistry (engine ops and write-path phases) and
// RpcServerStats (per-opcode request latency) are both instances.
template <typename Series, int kSeries>
class ShardedHistograms {
 public:
  ShardedHistograms() = default;
  ShardedHistograms(const ShardedHistograms&) = delete;
  ShardedHistograms& operator=(const ShardedHistograms&) = delete;

  // Record one sample of `nanos` for series s.
  void Record(Series s, uint64_t nanos) {
    shards_[ThisThreadStatsShard()].cells[static_cast<int>(s)].Record(nanos);
  }

  // Total samples recorded for s across all shards.
  uint64_t Count(Series s) const {
    uint64_t n = 0;
    for (const Shard& shard : shards_) {
      n += shard.cells[static_cast<int>(s)].count.load(std::memory_order_relaxed);
    }
    return n;
  }

  // Merge every shard's buckets for s into *out (values in nanoseconds).
  void AggregateInto(Series s, Histogram* out) const {
    for (const Shard& shard : shards_) {
      shard.cells[static_cast<int>(s)].MergeInto(out);
    }
  }

  void Reset() {
    for (Shard& shard : shards_) {
      for (HistogramCell& cell : shard.cells) {
        cell.Reset();
      }
    }
  }

 private:
  struct alignas(64) Shard {
    HistogramCell cells[kSeries];
  };

  Shard shards_[kNumStatsShards];
};

// Latency of every public op and internal write-path phase.
using StatsRegistry = ShardedHistograms<OpMetric, kNumOpMetrics>;

// The sharded counter primitive: kCounters monotone counters (indexed by
// the enum Counter), each kept once per shard so counting threads rarely
// share a cache line. Add is one relaxed add on the calling thread's
// shard; Get sums every shard at scrape time (a racy-by-design monitoring
// snapshot, like the histograms). Always on: unlike the histograms it does
// not depend on Options::latency_metrics. DbStats (engine counters) and
// RpcServerStats (per-opcode bytes and responses) are both instances.
template <typename Counter, int kCounters>
class ShardedCounters {
 public:
  ShardedCounters() = default;
  ShardedCounters(const ShardedCounters&) = delete;
  ShardedCounters& operator=(const ShardedCounters&) = delete;

  void Add(Counter c, uint64_t delta = 1) {
    shards_[ThisThreadStatsShard()].v[static_cast<int>(c)].fetch_add(delta,
                                                                     std::memory_order_relaxed);
  }

  uint64_t Get(Counter c) const {
    uint64_t n = 0;
    for (const Shard& shard : shards_) {
      n += shard.v[static_cast<int>(c)].load(std::memory_order_relaxed);
    }
    return n;
  }

  // Relaxed stores; an Add racing the sweep may survive it, which is
  // acceptable for monitoring data.
  void Reset() {
    for (Shard& shard : shards_) {
      for (std::atomic<uint64_t>& c : shard.v) {
        c.store(0, std::memory_order_relaxed);
      }
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> v[kCounters] = {};
  };

  Shard shards_[kNumStatsShards];
};

}  // namespace clsm

#endif  // CLSM_OBS_METRICS_H_
