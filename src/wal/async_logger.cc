#include "src/wal/async_logger.h"

#include <chrono>

namespace clsm {

namespace {
// Spins before a waiter falls back to the condition variable. Keeps the
// common fast-sync case at memory latency while bounding the burn when the
// logger thread is descheduled or the disk is slow.
constexpr int kSpinBudget = 512;
}  // namespace

AsyncLogger::AsyncLogger(std::unique_ptr<WritableFile> file)
    : file_(std::move(file)),
      writer_(file_.get()),
      stop_(false),
      closed_(false),
      enqueued_(0),
      written_(0),
      progress_waiters_(0),
      thread_([this] { BackgroundLoop(); }) {}

AsyncLogger::~AsyncLogger() { Close(); }

void AsyncLogger::AddRecordAsync(std::string record) {
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  queue_.Enqueue(Entry{std::move(record), nullptr});
  // Every record wakes the logger, parked or not: the hot path is an
  // enqueue plus one notify_one().
  wake_cv_.notify_one();
}

Status AsyncLogger::AddRecordSync(std::string record) {
  std::atomic<int> done{0};
  enqueued_.fetch_add(1, std::memory_order_relaxed);
  queue_.Enqueue(Entry{std::move(record), &done});
  wake_cv_.notify_one();
  int spins = 0;
  while (done.load(std::memory_order_acquire) == 0) {
    if (++spins <= kSpinBudget) {
      continue;
    }
    // Past the spin budget: park on the progress cv. The 1ms timeout is a
    // belt against a wakeup racing the waiter registration; the predicate
    // re-check keeps this correct regardless.
    progress_waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> l(progress_mutex_);
      progress_cv_.wait_for(l, std::chrono::milliseconds(1), [&] {
        return done.load(std::memory_order_acquire) != 0;
      });
    }
    progress_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
  return status();
}

Status AsyncLogger::Drain() {
  const uint64_t target = enqueued_.load(std::memory_order_acquire);
  int spins = 0;
  while (written_.load(std::memory_order_acquire) < target) {
    wake_cv_.notify_one();
    if (++spins <= kSpinBudget) {
      continue;
    }
    progress_waiters_.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> l(progress_mutex_);
      progress_cv_.wait_for(l, std::chrono::milliseconds(1), [&] {
        return written_.load(std::memory_order_acquire) >= target;
      });
    }
    progress_waiters_.fetch_sub(1, std::memory_order_seq_cst);
  }
  return status();
}

Status AsyncLogger::Close() {
  if (closed_.exchange(true, std::memory_order_acq_rel)) {
    return status();
  }
  stop_.store(true, std::memory_order_release);
  wake_cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  // The background thread has drained the queue; make the tail durable.
  // A failed final sync must reach the caller — retiring this WAL while
  // its tail is not on disk is exactly the acked-write-loss bug.
  Status s = file_->Sync();
  if (s.ok()) {
    s = file_->Close();
  } else {
    file_->Close();  // release the fd; the sync error is what matters
  }
  if (!s.ok()) {
    LatchError(s, /*sync_path=*/true);
  }
  return status();
}

Status AsyncLogger::status() const {
  std::lock_guard<std::mutex> l(status_mutex_);
  return status_;
}

void AsyncLogger::LatchError(const Status& s, bool sync_path) {
  bool first = false;
  {
    std::lock_guard<std::mutex> l(status_mutex_);
    if (status_.ok()) {
      status_ = s;
      first = true;
    }
  }
  if (first && error_hook_) {
    error_hook_(s, sync_path);
  }
}

void AsyncLogger::NotifyProgress() {
  if (progress_waiters_.load(std::memory_order_seq_cst) > 0) {
    std::lock_guard<std::mutex> l(progress_mutex_);
    progress_cv_.notify_all();
  }
}

void AsyncLogger::BackgroundLoop() {
  bool dirty = false;
  while (true) {
    std::optional<Entry> e = queue_.Dequeue();
    if (!e.has_value()) {
      if (dirty) {
        Status s = file_->Flush();
        if (!s.ok()) {
          LatchError(s, /*sync_path=*/false);
        }
        dirty = false;
        continue;  // re-check the queue before parking
      }
      if (stop_.load(std::memory_order_acquire) && queue_.Empty()) {
        return;
      }
      std::unique_lock<std::mutex> l(wake_mutex_);
      wake_cv_.wait_for(l, std::chrono::milliseconds(1),
                        [this] { return !queue_.Empty() || stop_.load(); });
      continue;
    }

    Status s = writer_.AddRecord(e->record);
    bool sync_path = false;
    dirty = true;
    if (e->done != nullptr) {
      // Sync writes: make everything up to and including this record
      // durable before acknowledging.
      if (s.ok()) {
        const auto sync_start = std::chrono::steady_clock::now();
        s = file_->Sync();
        sync_path = !s.ok();
        if (s.ok() && sync_hook_) {
          const auto sync_micros = std::chrono::duration_cast<std::chrono::microseconds>(
                                       std::chrono::steady_clock::now() - sync_start)
                                       .count();
          sync_hook_(written_.load(std::memory_order_relaxed) + 1,
                     static_cast<uint64_t>(sync_micros));
        }
      }
      dirty = false;
    }
    if (!s.ok()) {
      LatchError(s, sync_path);
    }
    written_.fetch_add(1, std::memory_order_release);
    if (e->done != nullptr) {
      e->done->store(1, std::memory_order_release);
    }
    NotifyProgress();
  }
}

}  // namespace clsm
