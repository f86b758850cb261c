// Public key-value store interface (paper §2.1): atomic put/get/delete,
// consistent snapshot scans with range queries, and general atomic
// read-modify-write. Implemented by ClsmDb (the paper's contribution) and
// by the baseline concurrency architectures in src/baselines.
#ifndef CLSM_CORE_DB_H_
#define CLSM_CORE_DB_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "src/table/iterator.h"
#include "src/util/options.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace clsm {

class RpcServerStats;
class SlowOpRingListener;
class TraceEventListener;
class WriteBatch;
struct StatsJsonSource;

// Handle to a consistent point-in-time view (paper §3.2.1). Obtained from
// GetSnapshot(); readable via ReadOptions::snapshot; must be released.
class Snapshot {
 protected:
  virtual ~Snapshot() = default;
};

// User function for ReadModifyWrite: receives the current value (nullopt if
// the key is absent or deleted) and returns the new value, or nullopt to
// perform no write (e.g. put-if-absent observing an existing value).
using RmwFunction =
    std::function<std::optional<std::string>(const std::optional<Slice>& current)>;

class DB {
 public:
  DB() = default;
  virtual ~DB() = default;

  DB(const DB&) = delete;
  DB& operator=(const DB&) = delete;

  // Stores (key, value); overwrites any previous value.
  virtual Status Put(const WriteOptions& options, const Slice& key, const Slice& value) = 0;

  // Removes key (by storing a deletion marker, the ⊥ of §2.1).
  virtual Status Delete(const WriteOptions& options, const Slice& key) = 0;

  // Atomically applies a batch of writes: recovery replays all or none of
  // it, and every snapshot sees all or none of it.
  virtual Status Write(const WriteOptions& options, WriteBatch* updates) = 0;

  // Reads the value of key (as of options.snapshot when set). Returns
  // NotFound if absent or deleted.
  virtual Status Get(const ReadOptions& options, const Slice& key, std::string* value) = 0;

  // Iterator over a consistent view of the data in key order (a snapshot
  // scan; supports range queries via Seek + Next). The view is the one of
  // options.snapshot if set, else a fresh serializable snapshot.
  virtual Iterator* NewIterator(const ReadOptions& options) = 0;

  // Acquire / release a snapshot handle (getSnap of Algorithm 2).
  virtual const Snapshot* GetSnapshot() = 0;
  virtual void ReleaseSnapshot(const Snapshot* snapshot) = 0;

  // Atomic read-modify-write (paper §3.3, Algorithm 3): atomically replaces
  // the value v of key with f(v). If performed is non-null it is set to
  // whether a write happened (false when f returned nullopt).
  virtual Status ReadModifyWrite(const WriteOptions& options, const Slice& key,
                                 const RmwFunction& f, bool* performed = nullptr) = 0;

  // Implementation identifier, e.g. "clsm", "leveldb-singlewriter".
  virtual const char* Name() const = 0;

  // Best-effort stats string for diagnostics and benches.
  virtual std::string GetProperty(const Slice& property) { return std::string(); }

  // Fills *out with pointers to this instance's live observability state
  // (src/obs/stats_export.h) so a wrapping layer — ShardedClsm — can
  // render one cross-instance rollup instead of concatenating rendered
  // documents. The pointers borrow from this DB and stay valid until it is
  // closed. Returns false when the variant exports no structured stats.
  virtual bool FillStatsSource(StatsJsonSource* out) {
    (void)out;
    return false;
  }

  // Serving-tier attachment: a KvService mounted on this DB hands over its
  // request-metrics accumulator and (optionally) its Chrome-trace span
  // ring, late — the service starts after the DB (and its admin server)
  // is already up. Implementations publish the handles to their stats
  // surfaces (clsm.stats.json "rpc" block, /metrics clsm_rpc_* families,
  // /rpctrace and /control/rpctrace on the admin server) and return the
  // slow-op ring the service should append slow-request records to (the
  // ring behind GET /slowops), or nullptr when the variant has no such
  // surface. Handles are shared_ptrs so scrapes stay valid across service
  // shutdown; attaching replaces any previous attachment.
  virtual std::shared_ptr<SlowOpRingListener> AttachRpcObservability(
      std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace) {
    (void)stats;
    (void)trace;
    return nullptr;
  }

  // Zero the interval-style observability state (DbStats counters, latency
  // histograms, slow-op rate-limiter accounting, attached rpc stats) so a
  // scraper can start a fresh measurement window. Cumulative engine state
  // (levels, compactions, flushes block, write-amp, background errors) is
  // NOT reset. Also reachable via GetProperty("clsm.stats.reset") and the
  // admin server's POST /control/stats/reset.
  virtual void ResetStats() {}

  // Block until background flushes/compactions have drained (test/bench
  // hook; not part of the paper's API).
  virtual void WaitForMaintenance() {}
};

}  // namespace clsm

#endif  // CLSM_CORE_DB_H_
