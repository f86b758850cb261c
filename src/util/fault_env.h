// Fault-injecting Env wrapper: forwards to a real Env but can be armed to
// fail writes, syncs, renames, directory creation, reads or file creation,
// and can simulate a power cut — "kill" the process's I/O at an arbitrary
// operation, then drop every byte that was never fsync'ed, exactly the
// state a machine reboot would leave behind. Used by the crash-loop and
// fault tests to prove that acked synchronous writes survive crashes and
// that I/O errors surface as background errors instead of corrupting
// in-memory state.
//
// Crash model (documented simplifications):
//  * data: a byte is durable iff a successful Sync() covered it; at
//    reactivation, unsynced tails are truncated away and files that were
//    never synced are deleted;
//  * metadata: renames, deletes and directory creation are treated as
//    immediately durable (no directory-fsync modeling);
//  * while "crashed", every operation fails with IOError and nothing
//    reaches the base Env — the power is off.
#ifndef CLSM_UTIL_FAULT_ENV_H_
#define CLSM_UTIL_FAULT_ENV_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/util/env.h"

namespace clsm {

class FaultInjectionEnv final : public Env {
 public:
  explicit FaultInjectionEnv(Env* base) : base_(base) {}

  // ---- error injection -------------------------------------------------
  // Arm/disarm failures. When armed, the countdown decrements on each
  // write-ish operation and the operation failing is the one that drops the
  // counter to zero (and every one after it while armed).
  void FailAfterWrites(int countdown) {
    write_countdown_.store(countdown, std::memory_order_release);
    fail_writes_.store(true, std::memory_order_release);
  }
  // Fail only Sync() calls: after letting `after` syncs through, the next
  // `count` syncs return IOError, then the injector disarms itself.
  // Targets the flush-boundary final sync, or one table among many.
  void FailSyncs(int count, int after = 0) {
    syncs_to_pass_.store(after, std::memory_order_release);
    sync_failures_left_.store(count, std::memory_order_release);
  }
  // Slow (but do not fail) every Sync() by `micros` while armed: a degraded
  // device rather than a broken one. Used to drive latency-attribution
  // paths (slow-op logging) deterministically. 0 disarms.
  void DelaySyncs(uint64_t micros) {
    sync_delay_micros_.store(micros, std::memory_order_release);
  }
  // Pin NowMicros() to `micros`, so that a test places the edge of a time
  // window (the slow-op rate bound's, say) where it needs one. 0 passes the
  // base clock through again.
  void SetNowMicros(uint64_t micros) { now_micros_.store(micros, std::memory_order_release); }
  void FailNewFiles(bool enabled) { fail_new_files_.store(enabled, std::memory_order_release); }
  void FailRenames(bool enabled) { fail_renames_.store(enabled, std::memory_order_release); }
  void FailCreateDir(bool enabled) { fail_create_dir_.store(enabled, std::memory_order_release); }
  void FailReads(bool enabled) { fail_reads_.store(enabled, std::memory_order_release); }
  // Disarm every injector (does not clear a simulated crash — use
  // ReactivateAfterCrash for that).
  void Heal() {
    fail_writes_.store(false, std::memory_order_release);
    fail_new_files_.store(false, std::memory_order_release);
    fail_renames_.store(false, std::memory_order_release);
    fail_create_dir_.store(false, std::memory_order_release);
    fail_reads_.store(false, std::memory_order_release);
    sync_failures_left_.store(0, std::memory_order_release);
    syncs_to_pass_.store(0, std::memory_order_release);
    sync_delay_micros_.store(0, std::memory_order_release);
    kill_armed_.store(false, std::memory_order_release);
  }

  uint64_t write_failures() const { return write_failures_.load(std::memory_order_acquire); }
  uint64_t kills() const { return kills_.load(std::memory_order_acquire); }

  // ---- crash simulation ------------------------------------------------
  // Arm a kill point: the countdown-th write-ish I/O operation from now
  // (append/flush/sync/new-file/remove/rename) cuts the power — it and
  // every operation after it fail with IOError and nothing reaches disk.
  void KillAfterIos(int countdown) {
    kill_countdown_.store(countdown, std::memory_order_release);
    kill_armed_.store(true, std::memory_order_release);
  }
  // Cut the power right now.
  void SimulateCrash() {
    kill_armed_.store(false, std::memory_order_release);
    if (!crashed_.exchange(true, std::memory_order_acq_rel)) {
      kills_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  // "Reboot": drop all unsynced data (power-cut semantics above) and allow
  // I/O again. With a non-zero torn_tail_seed, each file keeps a
  // pseudo-random prefix of its unsynced tail instead of losing all of it —
  // a torn final block, the worst case recovery must tolerate.
  Status ReactivateAfterCrash(uint32_t torn_tail_seed = 0);

  // Apply power-cut data loss without having been crashed (for tests that
  // want the on-disk state a cut would leave while keeping the Env usable).
  Status DropUnsyncedFileData(uint32_t torn_tail_seed = 0);

  // ---- Env -------------------------------------------------------------
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override;
  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override;
  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override;
  bool FileExists(const std::string& fname) override;
  Status GetChildren(const std::string& dir, std::vector<std::string>* result) override;
  Status RemoveFile(const std::string& fname) override;
  Status CreateDir(const std::string& dirname) override;
  Status RemoveDir(const std::string& dirname) override;
  Status GetFileSize(const std::string& fname, uint64_t* file_size) override;
  Status RenameFile(const std::string& src, const std::string& target) override;
  uint64_t NowMicros() override {
    const uint64_t pinned = now_micros_.load(std::memory_order_acquire);
    return pinned != 0 ? pinned : base_->NowMicros();
  }

 private:
  friend class FaultyWritableFile;

  struct FileState {
    uint64_t pos = 0;         // bytes appended since creation
    uint64_t synced_pos = 0;  // bytes covered by a successful Sync
    bool ever_synced = false;
  };

  class FaultyWritableFile;
  class FaultySequentialFile;
  class FaultyRandomAccessFile;

  // Counts a write-ish op against the kill countdown; returns true if the
  // power is (now) off.
  bool CheckCrash();
  bool ShouldFailWrite();
  bool ShouldFailSync();
  void MaybeDelaySync();
  bool ShouldFailRead() const {
    return crashed_.load(std::memory_order_acquire) ||
           fail_reads_.load(std::memory_order_acquire);
  }

  void RecordAppend(const std::string& fname, uint64_t bytes);
  void RecordSync(const std::string& fname);

  Env* base_;
  std::atomic<bool> fail_writes_{false};
  std::atomic<bool> fail_new_files_{false};
  std::atomic<bool> fail_renames_{false};
  std::atomic<bool> fail_create_dir_{false};
  std::atomic<bool> fail_reads_{false};
  std::atomic<int> write_countdown_{0};
  std::atomic<int> sync_failures_left_{0};
  std::atomic<int> syncs_to_pass_{0};
  std::atomic<uint64_t> sync_delay_micros_{0};
  std::atomic<uint64_t> now_micros_{0};  // 0: the base clock
  std::atomic<uint64_t> write_failures_{0};

  std::atomic<bool> kill_armed_{false};
  std::atomic<int> kill_countdown_{0};
  std::atomic<bool> crashed_{false};
  std::atomic<uint64_t> kills_{0};

  std::mutex files_mutex_;
  std::unordered_map<std::string, FileState> files_;
};

// Truncate the last remove_bytes bytes of fname in place (read + rewrite,
// since Env has no Truncate). For torn-tail tests on closed files.
Status TruncateFileTail(Env* env, const std::string& fname, uint64_t remove_bytes);

}  // namespace clsm

#endif  // CLSM_UTIL_FAULT_ENV_H_
