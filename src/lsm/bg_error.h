// BackgroundErrorState: severity-aware sticky error for the write pipeline
// (LevelDB's bg_error_ generalized along the lines of RocksDB's error
// handler). Background work — the WAL logger, flush, compaction, manifest
// writes — records failures here; write entry points check it and fail
// fast once the severity says writes can no longer be made durable.
//
// Severity ladder (see BgErrorSeverity in src/obs/event_listener.h):
//  * kSoft   — retryable, no data at risk (failed compaction). Background
//              work keeps retrying; foreground writes keep flowing, but a
//              writer that is already stalled surfaces the error rather
//              than waiting on a pipeline that cannot drain. The first
//              compaction that installs afterwards clears it (ClearSoft).
//  * kHard   — durability is broken (WAL append/sync, flush, manifest
//              write). Writes are rejected; reads, iterators and snapshots
//              keep serving the already-accepted data (degraded read-only
//              mode). A reopen re-runs recovery and clears the state.
//  * kFatal  — persisted state may be inconsistent (Corruption from a
//              background job). Same blocking as kHard; the distinction is
//              surfaced to operators via properties/listeners.
//
// Record only escalates, and the first status observed at the top severity
// is kept. kHard and kFatal are sticky until reopen; only a kSoft latch is
// ever cleared, by ClearSoft.
#ifndef CLSM_LSM_BG_ERROR_H_
#define CLSM_LSM_BG_ERROR_H_

#include <atomic>
#include <mutex>
#include <string>

#include "src/obs/event_listener.h"
#include "src/util/status.h"

namespace clsm {

class BackgroundErrorState {
 public:
  BackgroundErrorState() = default;
  BackgroundErrorState(const BackgroundErrorState&) = delete;
  BackgroundErrorState& operator=(const BackgroundErrorState&) = delete;

  // Maps (reason, status) to a severity. Corruption anywhere is fatal;
  // compaction failures are soft (inputs are still live, the job retries);
  // everything else in the durability path is hard.
  static BgErrorSeverity Classify(BgErrorReason reason, const Status& s);

  // Latches the error (severity-max, first-at-severity wins) and returns
  // the severity this event classified to. Thread-safe.
  BgErrorSeverity Record(BgErrorReason reason, const Status& s);

  // Clears the latch if it holds a kSoft error: the work that failed has
  // since succeeded (a compaction installed). kHard and kFatal are left
  // latched. Thread-safe.
  void ClearSoft();

  // True iff nothing has been latched. Lock-free.
  bool ok() const { return severity_.load(std::memory_order_acquire) == 0; }

  BgErrorSeverity severity() const {
    return static_cast<BgErrorSeverity>(severity_.load(std::memory_order_acquire));
  }

  // True once writes must be rejected (severity >= kHard). Lock-free:
  // this is the per-write fast-path check.
  bool writes_blocked() const {
    return severity_.load(std::memory_order_acquire) >=
           static_cast<int>(BgErrorSeverity::kHard);
  }

  // The latched status (OK if nothing latched).
  Status status() const;

  // The reason of the latched status (meaningless while ok()).
  BgErrorReason reason() const;

  // "OK" or "<severity>(<reason>): <status>"; for properties.
  std::string ToString() const;

 private:
  // severity_ is the lock-free view; status_/reason_ hold the details and
  // are guarded. severity_ is published after the details so a reader that
  // sees a non-zero severity also sees a consistent status under mutex_.
  std::atomic<int> severity_{0};
  mutable std::mutex mutex_;
  Status status_;
  BgErrorReason reason_ = BgErrorReason::kWalAppend;
};

}  // namespace clsm

#endif  // CLSM_LSM_BG_ERROR_H_
