// Engine counters: the per-thread-sharded operation counters every DB
// variant keeps (DbStats) and the storage engine's per-level compaction and
// flush accounting (CompactionStats). Reads are racy-by-design monitoring
// snapshots. Exported through VisitStats (src/obs/stats_export.h) as
// clsm.stats.json and the admin server's /metrics.
#ifndef CLSM_CORE_STATS_H_
#define CLSM_CORE_STATS_H_

#include <atomic>
#include <cassert>
#include <cstdint>

#include "src/obs/metrics.h"

namespace clsm {

// Per-level compaction accounting kept by the storage engine's compaction
// scheduler. Sized for the deepest supported tree (kNumLevels <= kMaxLevels
// is static_asserted where the two meet).
class CompactionStats {
 public:
  static constexpr int kMaxLevels = 8;

  struct LevelStats {
    std::atomic<uint64_t> compactions{0};    // jobs whose inputs start here
    std::atomic<uint64_t> trivial_moves{0};  // of which: pure file moves
    std::atomic<uint64_t> bytes_read{0};     // input bytes (both levels)
    std::atomic<uint64_t> bytes_written{0};  // output bytes
    std::atomic<uint64_t> micros{0};          // merge-thread time, summed over ranges
    std::atomic<uint64_t> sync_micros{0};     // of which: output fdatasync
    std::atomic<uint64_t> subcompactions{0};  // key ranges merged (1 per unsplit merge)
  };

  LevelStats& level(int l) { return levels_[CheckLevel(l)]; }
  const LevelStats& level(int l) const { return levels_[CheckLevel(l)]; }

  uint64_t TotalCompactions() const {
    uint64_t n = 0;
    for (const LevelStats& ls : levels_) {
      n += ls.compactions.load(std::memory_order_relaxed);
    }
    return n;
  }

  uint64_t TotalBytesWritten() const {
    uint64_t n = 0;
    for (const LevelStats& ls : levels_) {
      n += ls.bytes_written.load(std::memory_order_relaxed);
    }
    return n;
  }

  // --- flush (C'm -> level 0) accounting, kept here so write-amplification
  // (flush + compaction writes vs flushed user bytes) derives from one
  // struct ---
  std::atomic<uint64_t> flush_count{0};
  std::atomic<uint64_t> flush_bytes_written{0};  // level-0 output bytes
  std::atomic<uint64_t> flush_micros{0};
  std::atomic<uint64_t> flush_sync_micros{0};  // of which: output fdatasync

  // (flush + compaction bytes written) / flushed bytes; 0 until the first
  // flush lands. The classic estimate of how many times the store rewrites
  // each ingested byte.
  double EstimatedWriteAmp() const {
    const uint64_t flushed = flush_bytes_written.load(std::memory_order_relaxed);
    if (flushed == 0) {
      return 0.0;
    }
    return static_cast<double>(flushed + TotalBytesWritten()) / static_cast<double>(flushed);
  }

 private:
  // An out-of-range level would silently corrupt the adjacent counters;
  // assert in debug builds and clamp to the deepest slot in release so the
  // damage is at worst a misattributed count.
  static int CheckLevel(int l) {
    assert(l >= 0 && l < kMaxLevels);
    return l < 0 ? 0 : (l >= kMaxLevels ? kMaxLevels - 1 : l);
  }

  LevelStats levels_[kMaxLevels];
};

// The engine's operation counters, one ShardedCounters slot each. The
// order is the export order; the counters from kFirstStallCounter on form
// the "stall" group, the rest the "counters" group. Keep DbCounterName()
// in sync.
enum class DbCounter : int {
  // read path
  kGetsTotal = 0,
  kGetsFromMem,   // served by Cm
  kGetsFromImm,   // served by C'm
  kGetsFromDisk,  // served by Cd
  // write path
  kPutsTotal,
  kDeletesTotal,
  kBatchesTotal,
  // RMW (Algorithm 3)
  kRmwTotal,
  kRmwConflicts,  // retries due to detected conflicts
  kRmwNoop,       // user function returned nullopt
  // snapshots / scans
  kSnapshotsAcquired,
  kIteratorsCreated,
  kGettsRollbacks,  // getTS retried (ts <= snapTime)
  // maintenance
  kMemtableRolls,
  kFlushes,
  kThrottleWaits,  // put stalled by backpressure
  // slow-op structured logging (Options::slow_op_threshold_micros)
  kSlowOpsTotal,     // ops over the threshold
  kSlowOpsReported,  // of which dispatched to listeners
  kSlowOpsDropped,   // of which discarded by the rate limiter
  // write stalls (backpressure in the put path)
  kStallMicros,           // time spent in hard stop waits
  kRateLimitWaits,        // write-controller admission delays
  kRateLimitDelayMicros,  // time spent in those delays
};
constexpr int kNumDbCounters = static_cast<int>(DbCounter::kRateLimitDelayMicros) + 1;
constexpr DbCounter kFirstStallCounter = DbCounter::kStallMicros;

// Stable machine-readable export name ("puts_total", "stall_micros", ...).
const char* DbCounterName(DbCounter c);

using DbStats = ShardedCounters<DbCounter, kNumDbCounters>;

}  // namespace clsm

#endif  // CLSM_CORE_STATS_H_
