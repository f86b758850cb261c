// EventListener: user-registerable hooks for internal lifecycle events
// (memtable roll, flush, compaction, write stall, WAL sync), registered via
// Options::listeners and invoked from the engine chassis shared by ClsmDb
// and the baselines (src/core/db_chassis.h), StorageEngine and the
// asynchronous WAL logger.
//
// Listener contract (see DESIGN.md "Observability"):
//  * hooks are invoked synchronously on internal threads (maintenance,
//    compaction workers, the WAL logger, or a stalled writer) — they MUST
//    be non-blocking (no IO, no lock that a DB operation can hold) and
//    MUST NOT throw;
//  * hooks may fire concurrently from different threads; the listener
//    synchronizes its own state;
//  * hooks must not call back into the DB.
#ifndef CLSM_OBS_EVENT_LISTENER_H_
#define CLSM_OBS_EVENT_LISTENER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/obs/perf_context.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace clsm {

// Where a background error originated. Ordered roughly by pipeline stage;
// the value is informational only — severity drives behavior.
enum class BgErrorReason : int {
  kWalAppend = 0,   // WAL record append failed on the logger thread
  kWalSync,         // WAL fsync failed (sync write or flush-boundary close)
  kMemtableRoll,    // could not create the fresh WAL for a rolled memtable
  kFlush,           // building the level-0 table failed
  kCompaction,      // a compaction job failed
  kManifestWrite,   // manifest append/sync or CURRENT install failed
  kFileCleanup,     // best-effort obsolete/error-path file removal failed
};
const char* BgErrorReasonName(BgErrorReason r);

// How bad it is. kSoft keeps writes flowing (the condition is retryable
// and loses no data); kHard blocks writes but keeps reads working
// (degraded read-only mode); kFatal means persisted state may be
// inconsistent — reads stay up on the in-memory view but the store needs
// offline attention.
enum class BgErrorSeverity : int {
  kNone = 0,
  kSoft,
  kHard,
  kFatal,
};
const char* BgErrorSeverityName(BgErrorSeverity s);

struct BackgroundErrorInfo {
  BgErrorReason reason = BgErrorReason::kWalAppend;
  BgErrorSeverity severity = BgErrorSeverity::kNone;
  Status status;
};

struct FlushJobInfo {
  uint64_t memtable_entries = 0;   // entries in the flushed component
  uint64_t memtable_bytes = 0;     // its approximate arena footprint
  uint64_t output_file_size = 0;   // level-0 table bytes (End only)
  uint64_t micros = 0;             // wall time of the merge (End only)
};

struct CompactionJobInfo {
  int level = 0;         // input level (outputs land on level + 1)
  bool trivial_move = false;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;  // End only
  uint64_t micros = 0;         // End only
};

enum class StallReason : int {
  kMemtableFull = 0,  // Cm full while C'm is still merging
  kL0Stop,            // level 0 past the stop trigger / safety cap
  kL0Slowdown,        // retired fixed-trigger slowdown; never emitted, the
                      // value stays so the reason codes keep their numbers
  kRateLimited,       // write-controller token-bucket delay
};
const char* StallReasonName(StallReason r);

struct WalSyncInfo {
  uint64_t records = 0;  // records written to this WAL so far
  uint64_t micros = 0;   // duration of the fsync
};

// Public operation kinds for the per-op hooks (OnOperation /
// OnSlowOperation and the trace format). Values are part of the on-disk
// trace encoding — append only.
enum class DbOpType : int {
  kPut = 0,
  kDelete = 1,
  kGet = 2,
  kWrite = 3,  // atomic batch
  kRmw = 4,
};
const char* DbOpTypeName(DbOpType op);

// How the operation ended, as seen by the caller. Part of the trace
// encoding — append only.
enum class OpOutcome : int {
  kOk = 0,
  kNotFound = 1,
  kError = 2,
};
const char* OpOutcomeName(OpOutcome o);

// One completed public operation (fired on the caller's thread, at op
// exit, only to listeners that opted in via WantsOperationRecords). `key`
// borrows the caller's memory: valid only for the duration of the hook.
struct OperationInfo {
  DbOpType op = DbOpType::kPut;
  Slice key;
  uint32_t value_size = 0;   // bytes written (puts) or returned (gets)
  OpOutcome outcome = OpOutcome::kOk;
  uint64_t latency_micros = 0;
};

// A completed operation that exceeded Options::slow_op_threshold_micros.
// Carries enough to explain the outlier without a debugger: the full
// PerfContext snapshot (phase detail at kEnableTimers) plus the store
// state that usually explains write tails. The raw key is deliberately
// absent — only a prefix hash, so slow-op logs never leak key material.
struct SlowOpInfo {
  DbOpType op = DbOpType::kPut;
  uint64_t key_prefix_hash = 0;  // FNV-1a of the first <= 8 key bytes
  uint64_t latency_micros = 0;
  PerfContext perf;              // copied snapshot from the op's thread
  int l0_files = 0;              // level-0 file count at op exit
  bool stalled = false;          // op waited in backpressure
  uint64_t suppressed = 0;       // records dropped by the rate bound so far
};

class EventListener {
 public:
  virtual ~EventListener() = default;

  // Cm was sealed into C'm and a fresh Cm installed (beforeMerge).
  virtual void OnMemtableRoll(uint64_t memtable_bytes) {}

  virtual void OnFlushBegin(const FlushJobInfo& info) {}
  virtual void OnFlushEnd(const FlushJobInfo& info) {}

  virtual void OnCompactionBegin(const CompactionJobInfo& info) {}
  virtual void OnCompactionEnd(const CompactionJobInfo& info) {}

  // A writer entered/left a backpressure wait. Begin/End pair on the
  // stalled writer's thread.
  virtual void OnStallBegin(StallReason reason) {}
  virtual void OnStallEnd(StallReason reason, uint64_t micros) {}

  // The WAL logger durably synced its file.
  virtual void OnWalSync(const WalSyncInfo& info) {}

  // A background error was observed. kSoft events (compaction failures,
  // file-cleanup failures) are reported but do not stop writes; kHard and
  // kFatal events latch the store's sticky background error and put it
  // into read-only degraded mode. Fired once per observed event, which
  // may be more often than the sticky error changes.
  virtual void OnBackgroundError(const BackgroundErrorInfo& info) {}

  // --- per-operation hooks ---

  // Opt-in gate for OnOperation. Per-op dispatch sits on the Put/Get fast
  // path, so the DB precomputes the subset of listeners that want it; a
  // listener set with no takers costs the write path one cached-bool
  // check. Must return a constant (it is sampled once at DB open).
  virtual bool WantsOperationRecords() const { return false; }

  // Every completed public operation (only if WantsOperationRecords()).
  // Runs on the operation's own thread: anything slower than appending to
  // a buffer here is a per-op tax on the store.
  virtual void OnOperation(const OperationInfo& info) {}

  // An operation crossed Options::slow_op_threshold_micros. Bounded to
  // Options::slow_op_max_per_sec dispatches per second, so this hook may
  // do modestly more work (e.g. format a JSONL line) than OnOperation.
  // Fired for every listener, no opt-in needed.
  virtual void OnSlowOperation(const SlowOpInfo& info) {}
};

// Fan-out dispatcher owned by each DB instance; empty-set dispatch is a
// single vector-empty check so unobserved stores pay nothing.
class ListenerSet {
 public:
  ListenerSet() = default;
  explicit ListenerSet(std::vector<std::shared_ptr<EventListener>> listeners)
      : listeners_(std::move(listeners)) {
    for (const auto& l : listeners_) {
      if (l != nullptr && l->WantsOperationRecords()) {
        op_listeners_.push_back(l.get());
      }
    }
  }

  bool empty() const { return listeners_.empty(); }
  // True when some listener opted into per-op records; the DBs cache this
  // at open so the op fast path pays one bool test, not a virtual call.
  bool has_op_listeners() const { return !op_listeners_.empty(); }

  void NotifyMemtableRoll(uint64_t memtable_bytes) const;
  void NotifyFlushBegin(const FlushJobInfo& info) const;
  void NotifyFlushEnd(const FlushJobInfo& info) const;
  void NotifyCompactionBegin(const CompactionJobInfo& info) const;
  void NotifyCompactionEnd(const CompactionJobInfo& info) const;
  void NotifyStallBegin(StallReason reason) const;
  void NotifyStallEnd(StallReason reason, uint64_t micros) const;
  void NotifyWalSync(const WalSyncInfo& info) const;
  void NotifyBackgroundError(const BackgroundErrorInfo& info) const;
  void NotifyOperation(const OperationInfo& info) const;  // opt-in subset only
  void NotifySlowOperation(const SlowOpInfo& info) const;

 private:
  std::vector<std::shared_ptr<EventListener>> listeners_;
  // Raw borrowed pointers into listeners_ (same lifetime).
  std::vector<EventListener*> op_listeners_;
};

}  // namespace clsm

#endif  // CLSM_OBS_EVENT_LISTENER_H_
