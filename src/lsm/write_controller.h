// Feedback-driven write admission control, the one admission policy of
// every variant (cLSM and the baselines alike).
//
// The classic LevelDB policy — sleep 1ms per write past 8 level-0 files,
// block outright past 12 — turns write latency into a step function:
// nothing, then a cliff. Following the stability analysis of Luo & Carey
// (and bLSM's spring-and-gear scheduler), WriteController instead meters
// writers through a token bucket whose refill rate is recomputed every
// refresh interval from the measured merge debt: level-0 file count,
// pending immutable memtables, and the byte backlog of levels that exceed
// their size targets. As debt grows the admitted rate decays smoothly from
// max_rate toward min_rate, so per-writer delay ramps instead of cliffing;
// a hard stop survives only as a safety valve at l0_safety_cap.
//
// WriteThrottle is the shared admission gate built on top: both the cLSM
// write path (ClsmDb::ThrottleIfNeeded) and the baseline chassis
// (BaselineDbBase::MakeRoomForWrite) funnel through WriteThrottle::Gate,
// which owns the stall bracketing (OnStallBegin/End), the stall counters
// and the per-op PerfContext attribution. Chassis-specific behavior (how
// to wait, how to roll a memtable, how to sleep while holding or not
// holding a lock) is supplied through WriteThrottle::Client.
#ifndef CLSM_LSM_WRITE_CONTROLLER_H_
#define CLSM_LSM_WRITE_CONTROLLER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>

#include "src/core/stats.h"
#include "src/obs/metrics.h"
#include "src/util/options.h"
#include "src/util/status.h"

namespace clsm {

class StorageEngine;

struct WriteControllerConfig {
  uint64_t min_rate = 1 << 20;          // floor of the admitted rate (B/s)
  // Upper bound of the zero-debt rate (B/s). Below it the ceiling
  // calibrates itself to a headroom factor above the measured flush drain
  // rate, so the bucket paces writers near the machine's real sustainable
  // ingest instead of a fixed number that may be orders of magnitude off.
  uint64_t max_rate = 512ull << 20;
  double gain = 0.4;                    // smoothing gain per refresh, (0, 1]
  uint64_t refresh_nanos = 10'000'000;  // debt re-sampling interval
  int l0_debt_start = 4;                // L0 count where debt starts (> 0)
  int l0_safety_cap = 24;               // L0 count of full debt (hard stop)
  uint64_t backlog_debt_cap = 64 << 20; // deep-level backlog of full debt

  // Clamps the Options knobs into a self-consistent config (rate ceiling,
  // safety cap above the debt start, positive refresh interval).
  static WriteControllerConfig FromOptions(const Options& options);
};

// Token-bucket rate limiter with a debt-driven refill rate. Thread-safe;
// hot-path cost when idle is one relaxed load (unthrottled()). The clock is
// injectable so tests drive the bucket without sleeping.
class WriteController {
 public:
  using ClockFn = std::function<uint64_t()>;  // monotonic nanoseconds

  // Everything the rate computation looks at, sampled by the caller (the
  // gate samples the storage engine; tests fabricate values directly).
  struct DebtInputs {
    int l0_files = 0;
    int pending_immutables = 0;
    uint64_t compaction_backlog_bytes = 0;
    // Active-memtable fill as a fraction of write_buffer_size, clamped to
    // [0, 1]. Only consulted while an immutable is pending: a refilling
    // memtable behind an unfinished flush is the precursor of the
    // memtable-full hard stall, so debt ramps with it.
    double memtable_fill = 0.0;
    // Cumulative flush output bytes (monotone). Feeds the drain-rate
    // estimate behind the calibrated ceiling.
    uint64_t flushed_bytes_total = 0;
  };

  // A null clock means MonotonicNanos().
  explicit WriteController(const WriteControllerConfig& config, ClockFn clock = {});

  WriteController(const WriteController&) = delete;
  WriteController& operator=(const WriteController&) = delete;

  // True once refresh_nanos elapsed since the last UpdateRate. Callers use
  // it to sample debt lazily from the write path instead of running a
  // dedicated timer thread.
  bool RefreshDue() const {
    return clock_() - last_update_nanos_.load(std::memory_order_relaxed) >=
           config_.refresh_nanos;
  }

  // Recompute the admitted rate from the debt signals: debt in [0, 1] is
  // the worst of the normalized inputs, the target rate decays
  // quadratically from max_rate to min_rate as debt grows, and the applied
  // rate moves toward the target by `gain` per call (first-order smoothing,
  // so one noisy sample cannot slam the rate).
  void UpdateRate(const DebtInputs& debt);

  // Charge `bytes` against the bucket. Returns the nanoseconds the caller
  // must delay before proceeding (0 = admitted immediately). Deficits queue
  // callers in arrival order under the internal mutex; any single delay is
  // bounded by kMaxDelayNanos (the safety-valve hard stop handles true
  // overload).
  uint64_t Admit(uint64_t bytes);

  // Bracket the actual delay sleep so delayed_writers() is live.
  void OnDelayStart() { delayed_writers_.fetch_add(1, std::memory_order_relaxed); }
  void OnDelayEnd(uint64_t actual_nanos) {
    delayed_writers_.fetch_sub(1, std::memory_order_relaxed);
    delays_total_.fetch_add(1, std::memory_order_relaxed);
    delay_nanos_total_.fetch_add(actual_nanos, std::memory_order_relaxed);
  }

  // The gate reports each engagement of the L0 safety cap (hard stop).
  void NoteSafetyEngaged() { safety_engagements_.fetch_add(1, std::memory_order_relaxed); }

  // Fast-path flag: true while debt is zero and the rate has recovered to
  // max, letting writers skip Admit() entirely.
  bool unthrottled() const { return unthrottled_.load(std::memory_order_relaxed); }

  // Normalized debt from the inputs (pure; exposed for tests).
  double DebtScore(const DebtInputs& debt) const;

  // --- introspection (racy monitoring reads) ---
  uint64_t current_rate() const { return rate_.load(std::memory_order_relaxed); }
  // Last computed debt in parts-per-million of full debt.
  uint64_t debt_ppm() const { return debt_ppm_.load(std::memory_order_relaxed); }
  int64_t tokens() const {
    std::lock_guard<std::mutex> l(mutex_);
    return tokens_;
  }
  uint64_t delayed_writers() const { return delayed_writers_.load(std::memory_order_relaxed); }
  uint64_t delays_total() const { return delays_total_.load(std::memory_order_relaxed); }
  uint64_t delay_nanos_total() const { return delay_nanos_total_.load(std::memory_order_relaxed); }
  uint64_t rate_updates() const { return rate_updates_.load(std::memory_order_relaxed); }
  // The ceiling currently in force: config max, or (once flushes have been
  // observed) kDrainHeadroom x the measured flush drain rate if lower.
  uint64_t effective_max_rate() const {
    return effective_max_.load(std::memory_order_relaxed);
  }
  // Measured flush drain rate in B/s (0 until the first window with flush
  // activity completes).
  uint64_t drain_rate_estimate() const {
    return drain_rate_.load(std::memory_order_relaxed);
  }
  uint64_t safety_engagements() const {
    return safety_engagements_.load(std::memory_order_relaxed);
  }
  const WriteControllerConfig& config() const { return config_; }

  // Bound on any single Admit() delay (250ms). Excess deficit beyond it is
  // forgiven so one writer's bound is also a bound on what later writers
  // inherit.
  static constexpr uint64_t kMaxDelayNanos = 250'000'000;

  // Ceiling calibration: drain-rate samples are folded in once per
  // window (flush completions are bursty, so per-refresh deltas are mostly
  // zero) into a peak-hold estimate (max of the new sample and 0.9x the
  // old — a plain average would track paced ingest instead of capacity and
  // ratchet the ceiling down). The headroom looks large, but under load the
  // quadratic decay holds the applied rate well below the ceiling (a
  // pending immutable behind a full memtable scores 0.6 -> 0.16x), so the
  // product is what leaves the admitted rate near the drain rate at
  // routine debt levels.
  static constexpr uint64_t kDrainWindowNanos = 500'000'000;
  static constexpr double kDrainHeadroom = 2.0;

 private:
  // 100ms worth of tokens, floored so tiny rates still admit small bursts.
  static uint64_t BurstBytes(uint64_t rate) {
    const uint64_t burst = rate / 10;
    return burst < 16 * 1024 ? 16 * 1024 : burst;
  }

  const WriteControllerConfig config_;
  const ClockFn clock_;

  mutable std::mutex mutex_;  // guards the bucket + smoothing state
  double rate_smoothed_;      // high-precision rate for the smoothing filter
  int64_t tokens_;            // may go negative (admitted debt)
  uint64_t last_refill_nanos_;
  // Drain-rate estimator state (calibrated ceiling; also under mutex_).
  double drain_rate_ewma_ = 0.0;
  uint64_t drain_window_start_nanos_ = 0;
  uint64_t drain_window_bytes_ = 0;

  std::atomic<uint64_t> rate_;
  std::atomic<uint64_t> effective_max_;
  std::atomic<uint64_t> drain_rate_{0};
  std::atomic<uint64_t> debt_ppm_{0};
  std::atomic<bool> unthrottled_{true};
  std::atomic<uint64_t> last_update_nanos_{0};

  std::atomic<uint64_t> delayed_writers_{0};
  std::atomic<uint64_t> delays_total_{0};
  std::atomic<uint64_t> delay_nanos_total_{0};
  std::atomic<uint64_t> rate_updates_{0};
  std::atomic<uint64_t> safety_engagements_{0};
};

// The admission gate every write passes through. One instance per DB; the
// chassis supplies a per-call Client describing how to observe its memory
// components and how to wait.
class WriteThrottle {
 public:
  // Chassis adapter. Implementations are small stack objects constructed
  // per Gate() call (they may capture a held lock).
  class Client {
   public:
    virtual ~Client() = default;
    virtual bool MemFull() = 0;
    virtual bool ImmExists() = 0;
    // Active-memtable fill fraction in [0, 1] (see DebtInputs). The default
    // keeps chassis that cannot observe it on the flat immutable weight.
    virtual double MemFillFraction() { return 0.0; }
    virtual bool ShuttingDown() { return false; }
    // Wake the maintenance/flush machinery without blocking.
    virtual void KickMaintenance() = 0;
    // Block briefly (~1ms) until maintenance may have made progress. Called
    // in the hard-stall loop; must be interruptible by progress signals.
    virtual void WaitForProgress() = 0;
    // Sleep for ~nanos (releasing any held lock) and return the nanoseconds
    // actually slept.
    virtual uint64_t DelaySleep(uint64_t nanos) = 0;
    // Roll the memtable inline if this chassis does so from the write path
    // (LevelDB-style, under its mutex). Returns true if it rolled (the gate
    // re-checks state); false if rolling is the maintenance thread's job.
    virtual bool TryMakeRoom() { return false; }
  };

  // fail_on_any_bg_error: fail writers on any latched background error at
  // the top of the wait loop (LevelDB semantics) instead of only once they
  // are actually stalled behind the broken pipeline (cLSM semantics).
  // stop_only_when_mem_full: engage the L0 hard stop only when the
  // memtable is also full (LevelDB rolls from the write path, so L0
  // pressure only blocks the roll); cLSM stops on L0 alone.
  WriteThrottle(StorageEngine* engine, DbStats* stats, bool fail_on_any_bg_error,
                bool stop_only_when_mem_full);

  WriteThrottle(const WriteThrottle&) = delete;
  WriteThrottle& operator=(const WriteThrottle&) = delete;

  // Latency registry for the kRollWait series (null disables recording).
  void SetRegistry(StatsRegistry* registry) { registry_ = registry; }

  // Admit one write of `bytes` payload: block while the memory components
  // or the L0 safety valve are full, then delay by the controller's
  // token-bucket verdict. Sets *stalled_out (when non-null) if the call waited at all.
  // Returns the latched background error when the pipeline cannot drain.
  Status Gate(Client* client, uint64_t bytes, bool* stalled_out);

  // Cheap pre-check for lock-avoiding fast paths (HyperLevelDB's probe):
  // true when Gate() might delay or needs to resample debt, so the caller
  // should take its write lock and run the full gate.
  bool GateLikelyNeeded() const;

  int hard_stop_files() const { return controller_.config().l0_safety_cap; }
  WriteController* controller() { return &controller_; }
  const WriteController* controller() const { return &controller_; }

 private:
  // Lazily resample debt from the engine when the refresh interval
  // elapsed.
  void MaybeRefreshRate(int l0_files, bool imm_pending, double mem_fill);

  StorageEngine* const engine_;
  DbStats* const stats_;
  StatsRegistry* registry_ = nullptr;
  const bool fail_on_any_bg_error_;
  const bool stop_only_when_mem_full_;
  WriteController controller_;
};

}  // namespace clsm

#endif  // CLSM_LSM_WRITE_CONTROLLER_H_
