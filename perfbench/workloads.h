// The four closed-loop workloads. Each owns its store, generates every key
// and value from the run seed, checks every answer inside the load loop,
// and audits the whole store after a close and reopen.
#ifndef CLSM_PERFBENCH_WORKLOADS_H_
#define CLSM_PERFBENCH_WORKLOADS_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "harness.h"
#include "src/core/db.h"
#include "src/obs/trace_listener.h"

namespace perfbench {

// Closed-loop clients (threads, or connections for wire_mixed).
constexpr int kClients = 4;

enum OpKind { kOpPut, kOpGet, kOpScan, kOpRmw, kOpBatch, kOpPing, kNumOpKinds };
const char* OpName(int kind);

// PerfContext phase timers and counters summed over the traced run's ops.
struct PerfSums {
  uint64_t puts = 0, put_throttle = 0, put_lock_getts = 0, put_shared_lock_wait = 0,
           put_mem_insert = 0, put_wal_append = 0, put_total = 0;
  uint64_t gets = 0, get_mem_search = 0, get_disk_search = 0, get_skiplist_nodes = 0,
           get_table_probes = 0, get_block_reads = 0, get_cache_hits = 0, get_bloom_skips = 0;
  void Merge(const PerfSums& o);
};

// What one client measured in one phase.
struct ClientStats {
  LatencyHistogram ops[kNumOpKinds];
  uint64_t attempted = 0;
  uint64_t failed = 0;  // non-OK status
  uint64_t wrong = 0;   // OK status, wrong answer
  uint64_t user_writes = 0;  // acknowledged key writes (batch members count one each)
  uint64_t increments = 0;   // acknowledged RMW increments
  // Keys this client's writes created; read by the phase's sampler thread.
  std::atomic<uint64_t> created{0};
  std::vector<std::string> errors;  // the first few, for the report
  PerfSums perf;                    // traced run only
  std::unique_ptr<SpanLog> spans;   // traced run only

  void Fail(const std::string& why);
  void Wrong(const char* why, uint64_t n = 1);
};

struct ClientCtx {
  ClientCtx(int id, uint64_t seed, ClientStats* stats, bool traced)
      : id(id), rng(seed), stats(stats), traced(traced) {}

  const int id;
  Rng rng;
  ClientStats* const stats;
  const bool traced;
  // Counts an acknowledged write of a key whose previous version was prev.
  void Acked(uint32_t prev) {
    stats->user_writes++;
    if (prev == 0) {
      stats->created.store(stats->created.load(std::memory_order_relaxed) + 1,
                           std::memory_order_relaxed);
    }
  }

  // Reused buffers, so the loop allocates little between timestamps.
  std::string key = std::string(kKeySize, '\0');
  std::string value;
  std::string read;
  Rows rows;

  // Records one finished op: its latency, and its span when traced.
  void Done(int kind, const char* span, uint64_t t0, uint64_t t1, uint64_t span_id);
};

class Workload {
 public:
  // Null for an unknown name.
  static std::unique_ptr<Workload> Make(const std::string& name, uint64_t seed);
  virtual ~Workload();

  // Opens a fresh store in dir, preloads it and quiesces it.
  clsm::Status Setup(const std::string& dir, const clsm::Options& options);
  // Brackets the measured phase (wire_mixed starts its service there).
  virtual clsm::Status BeginPhase(bool traced,
                                  const std::shared_ptr<clsm::TraceEventListener>& trace) {
    return clsm::Status::OK();
  }
  virtual void EndPhase() {}
  // One closed-loop operation of client c, checked.
  virtual void Op(ClientCtx& c) = 0;
  // Traced run only: extra per-layer figures measured after the phase,
  // with the checks they make counted into *checks.
  virtual void TracedExtras(Json* j, SpanLog* spans, ClientStats* checks) {}

  // Close and reopen (the WAL replays into level-0 tables), then wait for
  // compactions: afterwards every acknowledged write lives in a table.
  clsm::Status Quiesce();
  // Scans the whole store and compares every key with the expected state.
  void Audit(uint64_t increments, ClientStats* out);
  std::string StatsJson();
  uint64_t LiveKeys() const;
  void Close();

 protected:
  static constexpr uint32_t kUnknown = UINT32_MAX;  // a write whose outcome failed

  Workload(uint64_t seed, uint64_t num_keys, int shards)
      : seed_(seed), num_keys_(num_keys), shards_(shards) {}

  virtual bool Preloaded(uint64_t index) const = 0;
  virtual ValueFields PreloadFields(uint64_t index) const;
  // Audit of one scanned key; null when it matches the expected state.
  virtual const char* AuditRow(const ValueFields& f);
  virtual const char* AuditFinal(uint64_t increments) { return nullptr; }
  // Whether client c is the only writer of the key (then a read by c must
  // return exactly the version c last acknowledged).
  virtual bool OwnedBy(uint64_t index, int c) const {
    return index % kClients == static_cast<uint64_t>(c);
  }
  // Workload invariants every read of a well-formed value must satisfy.
  virtual const char* CheckReadFields(const ValueFields& f) const { return nullptr; }

  // Key index adjusted so that client c owns it: only the owner writes a
  // key (or batch group), so the value it last acknowledged is exact.
  static uint64_t Own(uint64_t index, int c) { return index - index % kClients + c; }

  static uint32_t NextVersion(uint32_t prev) { return prev == kUnknown ? 0x80000000u : prev + 1; }
  // A single-key write: PrepareWrite fills c.key and c.value with the next
  // version of the key and returns it; FinishWrite records the outcome.
  uint32_t PrepareWrite(ClientCtx& c, uint64_t index);
  void FinishWrite(ClientCtx& c, uint64_t index, uint32_t version, const clsm::Status& s);

  // Checked operations shared by the in-process workloads.
  void Put(ClientCtx& c, uint64_t index);
  void Get(ClientCtx& c, uint64_t index);
  // Checks the answer to a point read of a preloaded key; a key the reader
  // owns must read back exactly its last acknowledged version.
  void CheckRead(ClientCtx& c, uint64_t index, const clsm::Status& s, const std::string& value);

  clsm::Status Open();

  const uint64_t seed_;
  const uint64_t num_keys_;
  const int shards_;  // 0 = one ClsmDb, else a ShardedClsm of that many members
  std::string dir_;
  clsm::Options options_;
  std::unique_ptr<clsm::DB> db_;
  // Version each key last acknowledged (0 = absent), written by its owner.
  std::vector<uint32_t> ver_;
};

}  // namespace perfbench

#endif  // CLSM_PERFBENCH_WORKLOADS_H_
