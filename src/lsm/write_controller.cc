#include "src/lsm/write_controller.h"

#include <algorithm>
#include <chrono>

#include "src/lsm/storage_engine.h"
#include "src/obs/perf_context.h"

namespace clsm {

WriteControllerConfig WriteControllerConfig::FromOptions(const Options& options) {
  WriteControllerConfig config;
  config.min_rate = std::max<uint64_t>(1, options.min_write_rate);
  config.max_rate = std::max(config.min_rate, options.max_write_rate);
  config.gain = options.write_rate_gain;
  if (!(config.gain > 0.0)) {
    config.gain = 0.4;
  } else if (config.gain > 1.0) {
    config.gain = 1.0;
  }
  config.refresh_nanos = std::max<uint64_t>(1, options.write_rate_refresh_micros) * 1000;
  config.l0_debt_start = std::max(1, options.l0_compaction_trigger);
  config.l0_safety_cap = std::max(options.l0_safety_cap, config.l0_debt_start + 1);
  // Full backlog debt at 4x the level-1 target: by then the merge machinery
  // is clearly losing and writers should be near the rate floor.
  config.backlog_debt_cap = std::max<uint64_t>(1, 4 * options.level1_max_bytes);
  return config;
}

WriteController::WriteController(const WriteControllerConfig& config, ClockFn clock)
    : config_(config),
      clock_(clock ? std::move(clock) : ClockFn(&MonotonicNanos)),
      rate_smoothed_(static_cast<double>(config_.max_rate)),
      tokens_(static_cast<int64_t>(BurstBytes(config_.max_rate))),
      last_refill_nanos_(clock_()),
      drain_window_start_nanos_(last_refill_nanos_),
      rate_(config_.max_rate),
      effective_max_(config_.max_rate) {}

double WriteController::DebtScore(const DebtInputs& debt) const {
  // Each signal normalizes to [0, 1]; the score is the worst of them —
  // write pressure is gated by whichever part of the pipeline is furthest
  // behind, and summing would double-count correlated signals (a deep L0
  // usually implies a level-1 backlog too).
  double l0 = 0.0;
  if (config_.l0_safety_cap > config_.l0_debt_start) {
    l0 = static_cast<double>(debt.l0_files - config_.l0_debt_start) /
         static_cast<double>(config_.l0_safety_cap - config_.l0_debt_start);
  }
  const double backlog = static_cast<double>(debt.compaction_backlog_bytes) /
                         static_cast<double>(config_.backlog_debt_cap);
  // A pending immutable is routine double-buffering, not distress by
  // itself; what matters is the active memtable refilling while the flush
  // is still out — the direct precursor of the memtable-full hard stall,
  // the dominant latency cliff. The weight is zero while the memtable has
  // real headroom (taxing the whole flush cycle costs mean throughput for
  // nothing) and ramps to 0.6 over the back half before the full mark,
  // vanishing once the flush lands.
  const double fill = std::min(1.0, std::max(0.0, debt.memtable_fill));
  const double near_full = std::max(0.0, (fill - 0.5) / 0.5);
  const double imm = debt.pending_immutables > 0 ? 0.6 * near_full : 0.0;
  const double score = std::max(l0, std::max(backlog, imm));
  return std::min(1.0, std::max(0.0, score));
}

void WriteController::UpdateRate(const DebtInputs& debt) {
  const uint64_t now = clock_();
  const double score = DebtScore(debt);

  std::lock_guard<std::mutex> l(mutex_);
  // Calibrated ceiling: fold one drain-rate sample per window. Windows with
  // no flush output are skipped rather than averaged in as zero — an idle
  // or fully stalled interval says nothing about how fast the drain runs
  // when it runs, and decaying toward zero would strangle the next burst.
  double max_rate = static_cast<double>(config_.max_rate);
  if (now - drain_window_start_nanos_ >= kDrainWindowNanos) {
    const uint64_t bytes = debt.flushed_bytes_total - drain_window_bytes_;
    const double secs = static_cast<double>(now - drain_window_start_nanos_) / 1e9;
    if (bytes > 0 && secs > 0.0) {
      const double inst = static_cast<double>(bytes) / secs;
      // Peak-hold, not a plain average: under throttling the flusher only
      // drains what pacing admits, so averaging measures our own pace and
      // the ceiling follows it down (the ratchet). Any window where the
      // flusher ran flat-out exposes true capacity; hold that peak and
      // bleed it slowly so a genuinely slower disk is still tracked.
      drain_rate_ewma_ =
          drain_rate_ewma_ <= 0.0 ? inst : std::max(inst, 0.9 * drain_rate_ewma_);
      drain_rate_.store(static_cast<uint64_t>(drain_rate_ewma_),
                        std::memory_order_relaxed);
    }
    drain_window_start_nanos_ = now;
    drain_window_bytes_ = debt.flushed_bytes_total;
  }
  if (drain_rate_ewma_ > 0.0) {
    max_rate = std::min(max_rate, std::max(static_cast<double>(config_.min_rate),
                                           kDrainHeadroom * drain_rate_ewma_));
  }
  effective_max_.store(static_cast<uint64_t>(max_rate), std::memory_order_relaxed);

  // Quadratic decay: gentle near zero debt (full speed until the pipeline
  // measurably lags), steep as the safety cap nears.
  const double span = max_rate - static_cast<double>(config_.min_rate);
  const double target =
      static_cast<double>(config_.min_rate) + span * (1.0 - score) * (1.0 - score);
  // Asymmetric smoothing: brake at the configured gain, recover at twice
  // it. Debt signals clear abruptly (a flush lands, an immutable slot
  // frees), and every refresh spent crawling back to the ceiling keeps
  // paced writers under a restriction whose cause is already gone — that
  // post-recovery drag showed up directly as windowed-throughput variance.
  const double gain =
      target >= rate_smoothed_ ? std::min(1.0, 2.0 * config_.gain) : config_.gain;
  rate_smoothed_ += gain * (target - rate_smoothed_);
  rate_smoothed_ =
      std::min(max_rate, std::max(static_cast<double>(config_.min_rate), rate_smoothed_));
  const uint64_t rate = static_cast<uint64_t>(rate_smoothed_);

  const bool was_unthrottled = unthrottled_.load(std::memory_order_relaxed);
  const bool now_unthrottled = score <= 0.0 && rate_smoothed_ >= 0.999 * max_rate;
  if (was_unthrottled && !now_unthrottled) {
    // Writers bypassed Admit() while unthrottled, so the bucket state is
    // stale. Re-arm with one fresh burst: the first metered writers are not
    // charged for the idle period.
    tokens_ = static_cast<int64_t>(BurstBytes(rate));
    last_refill_nanos_ = now;
  }

  rate_.store(rate, std::memory_order_relaxed);
  debt_ppm_.store(static_cast<uint64_t>(score * 1e6), std::memory_order_relaxed);
  unthrottled_.store(now_unthrottled, std::memory_order_relaxed);
  last_update_nanos_.store(now, std::memory_order_relaxed);
  rate_updates_.fetch_add(1, std::memory_order_relaxed);
}

uint64_t WriteController::Admit(uint64_t bytes) {
  if (unthrottled_.load(std::memory_order_relaxed)) {
    return 0;
  }
  const uint64_t now = clock_();
  std::lock_guard<std::mutex> l(mutex_);
  const uint64_t rate = std::max<uint64_t>(1, rate_.load(std::memory_order_relaxed));
  const int64_t burst = static_cast<int64_t>(BurstBytes(rate));
  if (now > last_refill_nanos_) {
    const double refill =
        static_cast<double>(now - last_refill_nanos_) * static_cast<double>(rate) / 1e9;
    tokens_ = std::min<int64_t>(tokens_ + static_cast<int64_t>(refill), burst);
    last_refill_nanos_ = now;
  }
  tokens_ -= static_cast<int64_t>(std::max<uint64_t>(1, bytes));
  if (tokens_ >= 0) {
    return 0;
  }
  // The deficit is this writer's position in the admission queue: delay
  // until the refill would bring the bucket back to zero.
  uint64_t delay =
      static_cast<uint64_t>(static_cast<double>(-tokens_) * 1e9 / static_cast<double>(rate));
  if (delay > kMaxDelayNanos) {
    delay = kMaxDelayNanos;
    // Forgive the deficit beyond the cap so later writers inherit a bounded
    // queue, not an ever-growing one.
    tokens_ = -static_cast<int64_t>(static_cast<double>(kMaxDelayNanos) *
                                    static_cast<double>(rate) / 1e9);
  }
  return delay;
}

WriteThrottle::WriteThrottle(StorageEngine* engine, DbStats* stats,
                             bool fail_on_any_bg_error, bool stop_only_when_mem_full)
    : engine_(engine),
      stats_(stats),
      fail_on_any_bg_error_(fail_on_any_bg_error),
      stop_only_when_mem_full_(stop_only_when_mem_full),
      controller_(WriteControllerConfig::FromOptions(engine->options()),
                  engine->options().write_controller_clock) {}

void WriteThrottle::MaybeRefreshRate(int l0_files, bool imm_pending, double mem_fill) {
  if (!controller_.RefreshDue()) {
    return;
  }
  WriteController::DebtInputs debt;
  debt.l0_files = l0_files;
  debt.pending_immutables = imm_pending ? 1 : 0;
  debt.memtable_fill = mem_fill;
  debt.compaction_backlog_bytes = engine_->versions()->CompactionBacklogBytes();
  debt.flushed_bytes_total =
      engine_->compaction_stats()->flush_bytes_written.load(std::memory_order_relaxed);
  controller_.UpdateRate(debt);
}

bool WriteThrottle::GateLikelyNeeded() const {
  return !controller_.unthrottled() || controller_.RefreshDue();
}

Status WriteThrottle::Gate(Client* client, uint64_t bytes, bool* stalled_out) {
  // Fast path: zero debt skips every check but the component loads.
  bool delayed_once = false;
  bool safety_noted = false;
  // Hard-stall bracketing: the wait loop re-checks every ~1ms but
  // observers see one Begin/End pair spanning the whole blocked interval
  // (stalls never nest — event_listener_test asserts the alternation).
  bool stalled = false;
  StallReason stall_reason = StallReason::kMemtableFull;
  uint64_t stall_start_nanos = 0;
  auto end_stall = [&] {
    if (stalled) {
      const uint64_t nanos = MonotonicNanos() - stall_start_nanos;
      if (registry_ != nullptr) {
        registry_->Record(OpMetric::kRollWait, nanos);
      }
      // Both hard-stall flavors (Cm full awaiting the roll/merge, L0 at the
      // stop threshold) attribute here: either way the put waited for
      // maintenance to make room.
      CLSM_PERF_TIMER_ADD(memtable_roll_wait_nanos, nanos);
      stats_->Add(DbCounter::kStallMicros, nanos / 1000);
      engine_->listeners().NotifyStallEnd(stall_reason, nanos / 1000);
      stalled = false;
    }
  };
  while (!client->ShuttingDown()) {
    if (fail_on_any_bg_error_ && !engine_->bg_error()->ok()) {
      // LevelDB semantics: any latched error (even a soft compaction
      // failure) fails the writer — the pipeline it may need could never
      // drain.
      end_stall();
      return engine_->bg_error()->status();
    }
    const bool mem_full = client->MemFull();
    const bool imm = client->ImmExists();
    const int l0_files = engine_->NumLevelFiles(0);
    const bool l0_stuffed =
        l0_files >= hard_stop_files() && (!stop_only_when_mem_full_ || mem_full);
    if ((mem_full && imm) || l0_stuffed) {
      if (!stalled) {
        stalled = true;
        if (stalled_out != nullptr) {
          *stalled_out = true;
        }
        stall_reason = stop_only_when_mem_full_
                           ? (imm ? StallReason::kMemtableFull : StallReason::kL0Stop)
                           : (l0_stuffed ? StallReason::kL0Stop : StallReason::kMemtableFull);
        stall_start_nanos = MonotonicNanos();
        stats_->Add(DbCounter::kThrottleWaits);
        engine_->listeners().NotifyStallBegin(stall_reason);
      }
      if (l0_stuffed && !safety_noted) {
        // The controller failed to hold the line; the safety valve fired.
        // Checked on every pass, not just stall entry: an episode that
        // begins as a memtable-full wait and then sees L0 hit the cap
        // (flushes landing while a long compaction runs) still counts.
        controller_.NoteSafetyEngaged();
        safety_noted = true;
      }
      if (!engine_->bg_error()->ok()) {
        // cLSM semantics reach here too (fail_on_any_bg_error_ false):
        // surface the error once the writer is actually stalled behind the
        // broken pipeline instead of waiting out the poll forever.
        end_stall();
        return engine_->bg_error()->status();
      }
      engine_->SignalCompaction();
      client->WaitForProgress();
      continue;
    }
    end_stall();
    if (!delayed_once) {
      MaybeRefreshRate(l0_files, imm, imm ? client->MemFillFraction() : 0.0);
      const uint64_t delay_nanos = controller_.Admit(bytes);
      if (delay_nanos > 0) {
        // One delay per op: after paying it the writer proceeds (unless the
        // hard conditions were crossed meanwhile — hence the continue).
        delayed_once = true;
        if (stalled_out != nullptr) {
          *stalled_out = true;
        }
        engine_->SignalCompaction();
        client->KickMaintenance();
        engine_->listeners().NotifyStallBegin(StallReason::kRateLimited);
        controller_.OnDelayStart();
        const uint64_t actual_nanos = client->DelaySleep(delay_nanos);
        controller_.OnDelayEnd(actual_nanos);
        stats_->Add(DbCounter::kRateLimitWaits);
        stats_->Add(DbCounter::kRateLimitDelayMicros, actual_nanos / 1000);
        CLSM_PERF_TIMER_ADD(write_delay_nanos, actual_nanos);
        engine_->listeners().NotifyStallEnd(StallReason::kRateLimited, actual_nanos / 1000);
        continue;
      }
    }
    if (mem_full) {
      if (client->TryMakeRoom()) {
        continue;  // rolled inline (LevelDB-style); re-check from the top
      }
      client->KickMaintenance();  // cLSM: the maintenance thread rolls
    }
    break;
  }
  end_stall();
  return Status::OK();
}

}  // namespace clsm
