// Slow-operation structured logging support: the per-DB rate limiter that
// bounds OnSlowOperation dispatch, and a bundled JSONL sink listener so
// tail outliers self-describe in production without custom listener code.
//
// Flow: every variant times each public op with the engine chassis's
// StartOp/FinishOp (src/core/db_chassis.h) whenever
// Options::slow_op_threshold_micros > 0; an op over the threshold builds
// a SlowOpInfo (op type, key-prefix hash, latency, PerfContext snapshot,
// L0/stall state) and — if the limiter admits it — fans it out through
// ListenerSet::NotifySlowOperation.
#ifndef CLSM_OBS_SLOW_OP_H_
#define CLSM_OBS_SLOW_OP_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>

#include "src/obs/event_listener.h"
#include "src/util/env.h"

namespace clsm {

// Fixed-window rate bound: at most max_per_sec admissions per one-second
// window, everything beyond counted as suppressed. Lock-free; the
// occasional cross-thread race at a window boundary can admit a record or
// two extra, which is fine for a logging bound.
class SlowOpRateLimiter {
 public:
  explicit SlowOpRateLimiter(uint32_t max_per_sec) : max_per_sec_(max_per_sec) {}

  // True if a record observed at now_micros may be dispatched.
  bool Admit(uint64_t now_micros) {
    if (max_per_sec_ == 0) {
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const uint64_t window = now_micros / 1000000;
    uint64_t cur = window_.load(std::memory_order_relaxed);
    if (cur != window) {
      if (window_.compare_exchange_strong(cur, window, std::memory_order_relaxed)) {
        in_window_.store(0, std::memory_order_relaxed);
      }
    }
    if (in_window_.fetch_add(1, std::memory_order_relaxed) < max_per_sec_) {
      return true;
    }
    suppressed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  uint64_t suppressed() const { return suppressed_.load(std::memory_order_relaxed); }

  void Reset() {
    suppressed_.store(0, std::memory_order_relaxed);
    in_window_.store(0, std::memory_order_relaxed);
  }

 private:
  const uint32_t max_per_sec_;
  std::atomic<uint64_t> window_{0};
  std::atomic<uint32_t> in_window_{0};
  std::atomic<uint64_t> suppressed_{0};
};

// FNV-1a over the first <= 8 key bytes: enough to correlate slow ops that
// hit the same key region without writing key material into logs.
inline uint64_t SlowOpKeyPrefixHash(const Slice& key) {
  uint64_t h = 1469598103934665603ull;
  const size_t n = key.size() < 8 ? key.size() : 8;
  for (size_t i = 0; i < n; i++) {
    h = (h ^ static_cast<uint8_t>(key.data()[i])) * 1099511628211ull;
  }
  return h;
}

// One JSON line per SlowOpInfo (docs/TESTING.md documents the fields).
std::string SlowOpToJson(const SlowOpInfo& info, uint64_t wall_micros);

// Bundled sink: appends one JSONL record per slow op to `path`. Safe to
// share across DBs; serializes internally. IO errors are latched (the
// sink stops writing) instead of thrown — a broken log target must not
// take down the store.
class SlowOpJsonlSink : public EventListener {
 public:
  // env == nullptr means Env::Default().
  SlowOpJsonlSink(std::string path, Env* env = nullptr);
  ~SlowOpJsonlSink() override;

  void OnSlowOperation(const SlowOpInfo& info) override;

  // The store just latched a background error: the next crash or exit may
  // be abnormal, so push the records that explain it to stable storage now.
  void OnBackgroundError(const BackgroundErrorInfo& info) override;

  // Flush + fsync + close the log; further records are dropped. Returns
  // the first IO error, if any. Idempotent; the dtor calls it.
  Status Close();

  // Records successfully appended so far.
  uint64_t lines_written() const { return lines_.load(std::memory_order_relaxed); }
  bool ok() const;

 private:
  const std::string path_;
  Env* const env_;
  mutable std::mutex mu_;
  std::unique_ptr<WritableFile> file_;  // guarded by mu_
  Status io_status_;                    // guarded by mu_
  std::atomic<uint64_t> lines_{0};
};

// Bounded in-memory ring of the most recent slow-op records, rendered as
// JSON lines at arrival. Backs the admin server's GET /slowops: "what was
// slow just now" without tailing the JSONL file (or configuring one at
// all). Registered automatically by the DB chassis when the admin server
// is enabled.
class SlowOpRingListener : public EventListener {
 public:
  static constexpr size_t kDefaultCapacity = 128;

  explicit SlowOpRingListener(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  void OnSlowOperation(const SlowOpInfo& info) override;

  // Append one pre-rendered JSON object (no trailing newline). Records
  // that are not engine SlowOpInfos — the serving tier's slow-request
  // records carry RPC opcodes and phase timers DbOpType cannot express —
  // enter the ring here and come out of GET /slowops like any other.
  void Append(std::string json_object);

  // The buffered records, oldest first, as one JSON array.
  std::string ToJsonArray() const;

  uint64_t total_seen() const { return total_.load(std::memory_order_relaxed); }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::deque<std::string> lines_;  // guarded by mu_; each a JSON object
  std::atomic<uint64_t> total_{0};
};

}  // namespace clsm

#endif  // CLSM_OBS_SLOW_OP_H_
