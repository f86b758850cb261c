// Lightweight operation counters for observability and ablation studies.
// All counters are relaxed atomics bumped on hot paths; reading them is
// racy-by-design (monitoring data). Exposed via DB::GetProperty("clsm.stats").
#ifndef CLSM_CORE_STATS_H_
#define CLSM_CORE_STATS_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <string>

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
    std::atomic<uint64_t> micros{0};         // wall time spent compacting
    std::atomic<uint64_t> sync_micros{0};    // of which: output fdatasync
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

  // Multi-line per-level dump (levels with no activity are omitted).
  std::string ToString() const;

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

class DbStats {
 public:
  // --- read path ---
  std::atomic<uint64_t> gets_total{0};
  std::atomic<uint64_t> gets_from_mem{0};   // served by Cm
  std::atomic<uint64_t> gets_from_imm{0};   // served by C'm
  std::atomic<uint64_t> gets_from_disk{0};  // served by Cd

  // --- write path ---
  std::atomic<uint64_t> puts_total{0};
  std::atomic<uint64_t> deletes_total{0};
  std::atomic<uint64_t> batches_total{0};

  // --- RMW (Algorithm 3) ---
  std::atomic<uint64_t> rmw_total{0};
  std::atomic<uint64_t> rmw_conflicts{0};  // retries due to detected conflicts
  std::atomic<uint64_t> rmw_noop{0};       // user function returned nullopt

  // --- snapshots / scans ---
  std::atomic<uint64_t> snapshots_acquired{0};
  std::atomic<uint64_t> iterators_created{0};
  std::atomic<uint64_t> getts_rollbacks{0};  // getTS retried (ts <= snapTime)

  // --- maintenance ---
  std::atomic<uint64_t> memtable_rolls{0};
  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> compactions{0};
  std::atomic<uint64_t> throttle_waits{0};  // put stalled by backpressure

  // --- write stalls (backpressure in the put path) ---
  std::atomic<uint64_t> stall_micros{0};     // time spent in hard stop waits
  std::atomic<uint64_t> rate_limit_waits{0};   // write-controller admission delays
  std::atomic<uint64_t> rate_limit_delay_micros{0};  // time spent in those delays

  // --- slow-op structured logging (Options::slow_op_threshold_micros) ---
  std::atomic<uint64_t> slow_ops_total{0};     // ops over the threshold
  std::atomic<uint64_t> slow_ops_reported{0};  // of which dispatched to listeners
  std::atomic<uint64_t> slow_ops_dropped{0};   // of which discarded by the rate limiter

  uint64_t TotalStallMicros() const {
    return stall_micros.load(std::memory_order_relaxed) +
           rate_limit_delay_micros.load(std::memory_order_relaxed);
  }

  // Zero every counter (the DB::ResetStats interval-snapshot path). Relaxed
  // stores; concurrent bumps may survive the sweep, which is acceptable for
  // monitoring data.
  void Reset();

  void Bump(std::atomic<uint64_t>& counter) {
    counter.fetch_add(1, std::memory_order_relaxed);
  }
  void Add(std::atomic<uint64_t>& counter, uint64_t delta) {
    counter.fetch_add(delta, std::memory_order_relaxed);
  }

  // Multi-line human-readable dump.
  std::string ToString() const;
};

}  // namespace clsm

#endif  // CLSM_CORE_STATS_H_
