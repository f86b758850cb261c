// Global monotonically increasing timestamp counter (paper §3.2). Writers
// atomically increment-and-get; getSnap reads. Non-blocking by construction.
#ifndef CLSM_SYNC_TIME_COUNTER_H_
#define CLSM_SYNC_TIME_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace clsm {

class TimeCounter {
 public:
  explicit TimeCounter(uint64_t initial = 0) : value_(initial) {}

  // Reserves the n consecutive timestamps [first, first + n) with one atomic
  // increment and returns first. A concurrent Get therefore sees either none
  // or all of the range — what keeps a write batch atomic for snapshots.
  uint64_t IncAndGet(uint64_t n = 1) { return value_.fetch_add(n, std::memory_order_seq_cst) + 1; }
  uint64_t Get() const { return value_.load(std::memory_order_seq_cst); }

  // Recovery: jump forward to at least v (never moves backward).
  void AdvanceTo(uint64_t v) {
    uint64_t cur = value_.load(std::memory_order_relaxed);
    while (cur < v &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_seq_cst)) {
    }
  }

 private:
  std::atomic<uint64_t> value_;
};

}  // namespace clsm

#endif  // CLSM_SYNC_TIME_COUNTER_H_
