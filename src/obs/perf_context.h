// PerfContext: thread-local per-operation attribution (the RocksDB
// perf_context / iostats_context idea adapted to cLSM). Aggregate
// histograms (metrics.h) answer "how slow is the p999 Put"; PerfContext
// answers "what did THIS Put spend its time on" — which phase of which
// layer paid for a tail outlier.
//
// Cost model ("zero-cost-when-disabled"):
//  * `Options::perf_level = kDisabled` (default): op entry performs one
//    thread-local store (the level publish); every deep-layer probe is a
//    single thread-local load + branch that predicts not-taken. No clock
//    reads, no counter writes. Measured against a probe-free build the
//    overhead on a memtable Get is within noise (<1%).
//  * kEnableCounts: pure counters (node hops, block reads/bytes, cache
//    hits, per-level table probes) are bumped; still no clock reads.
//  * kEnableTimers: counts plus phase timers (nanoseconds). Each timed
//    phase costs two LatencyClock reads, like the PR-2 probes.
//
// The context is reset at op entry and describes the calling thread's most
// recent operation. It is deliberately header-only and dependency-free so
// the skiplist, table and WAL layers can include it without linking
// against clsm_obs; only the exporters (ToJson) live in perf_context.cc.
#ifndef CLSM_OBS_PERF_CONTEXT_H_
#define CLSM_OBS_PERF_CONTEXT_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace clsm {

// Keep in sync with PerfLevelName(); Options::perf_level selects one.
enum class PerfLevel : int {
  kDisabled = 0,      // no per-op attribution (default)
  kEnableCounts = 1,  // counters only — no clock reads
  kEnableTimers = 2,  // counters + phase timers
};
const char* PerfLevelName(PerfLevel level);

struct PerfContext {
  // Deepest level the per-level table-read counters can attribute; matches
  // CompactionStats::kMaxLevels (static_asserted where the two meet).
  static constexpr int kMaxLevels = 8;

  // Active level for the op in flight on this thread. Stored inside the
  // context so deep layers need only one thread-local load to decide
  // whether to count (>= kEnableCounts) or also time (== kEnableTimers).
  PerfLevel level = PerfLevel::kDisabled;

  // --- counters (kEnableCounts and up) ---
  uint64_t skiplist_search_nodes = 0;  // node hops across all skiplist searches
  uint64_t memtable_probes = 0;        // memtable Get calls (Cm + C'm)
  uint64_t table_reads_per_level[kMaxLevels] = {};  // SSTable probes by level
  uint64_t index_seeks = 0;            // index-block seeks: probes the filter let through
  uint64_t block_reads = 0;            // data/index blocks read from disk
  uint64_t block_read_bytes = 0;       // bytes of those reads (incl. trailer)
  uint64_t block_cache_hits = 0;       // block served from the block cache
  uint64_t bloom_useful = 0;           // bloom filter skipped a block read
  uint64_t bloom_false_positives = 0;  // filter passed, block held no such key

  // --- phase timers, nanoseconds (kEnableTimers only) ---
  // The write-path phases are contiguous segments of ClsmDb's one commit
  // routine, so for a Put, Delete or batch Write: throttle + lock_getts +
  // mem_insert + wal_append ≈ total (the perf_context_test asserts within
  // 10%). memtable_roll_wait / write_delay / shared_lock_wait are
  // finer-grained sub-components of throttle resp. lock_getts, recorded at
  // their sources — they overlap the segment timers and must not be added
  // on top of them.
  uint64_t total_nanos = 0;              // whole op, set at op exit
  uint64_t throttle_nanos = 0;           // put: whole backpressure gate
  uint64_t memtable_roll_wait_nanos = 0; //   of which: hard stall (Cm full / L0 stop)
  uint64_t write_delay_nanos = 0;        //   of which: rate-limiter admission delay
  uint64_t lock_getts_nanos = 0;         // put: lock acquire + timestamp draw
  uint64_t shared_lock_wait_nanos = 0;   //   of which: contended lock acquire
  uint64_t mem_insert_nanos = 0;         // put: skiplist insertion
  uint64_t wal_append_nanos = 0;         // put: record encode + enqueue (+ sync wait)
  uint64_t mem_search_nanos = 0;         // get: Cm + C'm probe
  uint64_t disk_search_nanos = 0;        // get: disk-component search
  uint64_t filter_probe_nanos = 0;       //   of which: table Bloom filter probes
  uint64_t index_seek_nanos = 0;         //   of which: index-block seeks
  uint64_t block_cache_nanos = 0;        //   of which: cache lookup, insert (evictions
                                         //   and their frees included) and release
  uint64_t block_read_nanos = 0;         //   of which: data block allocation + read + checksum
  uint64_t table_open_nanos = 0;         //   of which: first open of a table file
  uint64_t crc_verify_nanos = 0;         // checksums, inside block_read or table_open

  bool counts_enabled() const { return level >= PerfLevel::kEnableCounts; }
  bool timers_enabled() const { return level == PerfLevel::kEnableTimers; }

  // Zero every counter/timer but keep `level` (op entry resets, then the
  // op runs at the level the DB published).
  void ResetCounters() {
    const PerfLevel l = level;
    std::memset(this, 0, sizeof(*this));
    level = l;
  }

  // One JSON object (see docs/TESTING.md for the schema). Implemented in
  // perf_context.cc; exposed via GetProperty("clsm.perf.json").
  std::string ToJson() const;
};

// The per-thread context. An inline thread-local keeps deep-layer probes
// to a TLS address computation + load, with no function-call or
// guard-variable overhead (PerfContext is trivially constructible modulo
// the zero-init, which the TLS model does statically).
inline thread_local PerfContext tls_perf_context;

// The calling thread's context (RocksDB-style accessor). The returned
// object is stable for the thread's lifetime; its fields describe the most
// recent operation executed by this thread on any DB with perf enabled.
inline PerfContext* GetPerfContext() { return &tls_perf_context; }

// Op entry: publish the DB's configured level and clear the previous op's
// numbers. When the DB has perf disabled this is a single TLS store (and
// keeps a level left enabled by another DB from leaking probes into ops
// that should be unobserved).
inline void PerfContextStartOp(PerfLevel level) {
  PerfContext& ctx = tls_perf_context;
  if (level == PerfLevel::kDisabled) {
    ctx.level = PerfLevel::kDisabled;
    return;
  }
  ctx.level = level;
  ctx.ResetCounters();
}

// Deep-layer count probe: one TLS load + predicted-not-taken branch when
// disabled.
#define CLSM_PERF_COUNT_ADD(field, delta)                                  \
  do {                                                                     \
    ::clsm::PerfContext& _ctx = ::clsm::tls_perf_context;                  \
    if (_ctx.counts_enabled()) {                                           \
      _ctx.field += static_cast<uint64_t>(delta);                          \
    }                                                                      \
  } while (0)

// Deep-layer timer probe: adds nanos to `field` at kEnableTimers.
#define CLSM_PERF_TIMER_ADD(field, nanos)                                  \
  do {                                                                     \
    ::clsm::PerfContext& _ctx = ::clsm::tls_perf_context;                  \
    if (_ctx.timers_enabled()) {                                           \
      _ctx.field += static_cast<uint64_t>(nanos);                          \
    }                                                                      \
  } while (0)

}  // namespace clsm

#endif  // CLSM_OBS_PERF_CONTEXT_H_
