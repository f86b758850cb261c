// Store-wide configuration knobs. Defaults mirror the paper's experimental
// setup (§5): 128 MiB memtable (scaled down by benchmarks when appropriate),
// 64 KiB blocks, Bloom filters, asynchronous logging.
#ifndef CLSM_UTIL_OPTIONS_H_
#define CLSM_UTIL_OPTIONS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

// Header-only by design (no clsm_obs link dependency): defines PerfLevel
// and the thread-local context behind Options::perf_level.
#include "src/obs/perf_context.h"

namespace clsm {

class Comparator;
class Env;
class EventListener;
class Snapshot;

struct Options {
  // Comparator used to order user keys. Must outlive the DB.
  const Comparator* comparator = nullptr;  // nullptr => BytewiseComparator()

  Env* env = nullptr;  // nullptr => Env::Default()

  bool create_if_missing = true;
  bool error_if_exists = false;
  // Verify SSTable block checksums on every read.
  bool paranoid_checks = false;

  // Size threshold (bytes) at which the mutable memtable Cm is sealed and
  // handed to the merge (flush) process. Paper default: 128 MiB.
  size_t write_buffer_size = 4 * 1024 * 1024;

  // Approximate SSTable data-block size before compression framing.
  size_t block_size = 4 * 1024;
  int block_restart_interval = 16;

  // Bloom filter bits per key; 0 disables filters.
  int bloom_bits_per_key = 10;

  // Capacity of the shared block cache in bytes; 0 caches nothing.
  size_t block_cache_size = 8 * 1024 * 1024;

  // Target size of compaction output files (every level shares one target).
  uint64_t target_file_size = 2 * 1024 * 1024;
  // Total-bytes target of level 1; level L targets level1_max_bytes *
  // 10^(L-1). The fanout and the picker's byte budgets are fixed design
  // choices, not knobs (DESIGN.md "Compaction picking").
  uint64_t level1_max_bytes = 10 * 1024 * 1024;

  // Number of L0 files that triggers a compaction into L1. It is also
  // where the write controller's L0 debt starts.
  int l0_compaction_trigger = 4;

  // --- write admission control (src/lsm/write_controller) ---
  //
  // Every write passes a token bucket whose refill rate is recomputed from
  // measured flush/compaction debt (L0 file count, pending immutable
  // memtable, per-level compaction backlog), so per-writer delay ramps
  // smoothly from zero instead of cliffing at fixed L0 triggers. See
  // DESIGN.md "Write backpressure".

  // Rate clamp for the controller, bytes/sec of admitted user write payload.
  // The floor keeps writers trickling even at full debt (progress feeds the
  // feedback loop). The ceiling calibrates itself to the disk: the
  // controller measures flush drain rate over 500 ms windows and caps
  // admission at 2x a peak-hold estimate, never above max_write_rate.
  uint64_t min_write_rate = 1 << 20;    // 1 MiB/s
  uint64_t max_write_rate = 512 << 20;  // 512 MiB/s

  // Smoothing gain in (0, 1]: each refresh moves the current rate this
  // fraction of the way toward the debt-derived target. Lower = smoother
  // ramps, higher = faster reaction; 1.0 disables smoothing (unit tests).
  double write_rate_gain = 0.4;

  // How often the controller recomputes its rate from fresh debt gauges.
  // Sampled lazily on the write path, so zero extra threads.
  uint64_t write_rate_refresh_micros = 10'000;

  // Safety valve: L0 file count at which writers hard-stall (the
  // controller should keep this unreached under sustained load). L0 debt
  // saturates here. Raised to l0_compaction_trigger + 1 if set below it.
  int l0_safety_cap = 24;

  // Test hook: monotonic-nanosecond clock driving the write controller's
  // bucket refill and refresh cadence. Null (default) uses the real
  // monotonic clock. Injecting a mock clock makes refill and debt
  // re-sampling fully deterministic — throttling tests assert exact bucket
  // arithmetic instead of racing wall-clock refill against ingest speed.
  std::function<uint64_t()> write_controller_clock;

  // If true, every put is durably logged before returning (synchronous
  // logging). If false (paper default), log records are queued and written
  // by a background logger thread; a crash may lose the most recent writes.
  bool sync_logging = false;
  // Disable the write-ahead log entirely (benchmarks that measure pure
  // in-memory concurrency use this, as in-memory rate is the subject of
  // study and both systems pay the same logging cost otherwise).
  bool disable_wal = false;

  // Number of background compaction worker threads: the bound on merge
  // parallelism both across levels and within one job. Workers pick
  // disjoint jobs (a job owns its input and output level until it
  // completes), so compactions at different levels proceed concurrently;
  // and each merge is split into at most this many key ranges that idle
  // workers merge in parallel, so the L0->L1 and L1->L2 jobs, which share
  // level 1 and cannot overlap, still use several cores. The paper uses 1
  // everywhere except §5.3 where RocksDB uses several; 3 leaves one core
  // of a 4-core host to the writers. Values < 1 are clamped to 1. The
  // baselines compact on their maintenance thread and never split.
  // Memtable flushes always run on their own thread (the maintenance
  // thread), apart from this pool, so heavy disk compactions never delay
  // the Cm -> C'm roll: the "some thread is always reserved for flushing"
  // configuration of §5.3/§6 is permanently in effect.
  int compaction_threads = 3;

  // --- observability (src/obs) ---

  // Record per-op / per-phase latency histograms into the DB's sharded
  // StatsRegistry (exported via GetProperty("clsm.stats.json")). Costs a
  // few steady-clock reads per operation; turn off to measure the store's
  // absolute ceiling (the instrumentation-overhead microbench does).
  bool latency_metrics = true;

  // Lifecycle hooks (memtable roll, flush, compaction, stall, WAL sync)
  // invoked from internal threads. Hooks must be non-blocking and
  // exception-free; see src/obs/event_listener.h for the full contract.
  std::vector<std::shared_ptr<EventListener>> listeners;

  // If > 0, a background StatsReporter thread logs interval counter deltas
  // plus the full JSON stats snapshot to stderr every this-many seconds.
  unsigned stats_dump_period_sec = 0;

  // Per-operation attribution depth (thread-local PerfContext; see
  // src/obs/perf_context.h for the cost model). Off by default; "counts"
  // bumps pure counters, "counts+timers" also records phase timers.
  // Exported via GetPerfContext() and GetProperty("clsm.perf.json").
  PerfLevel perf_level = PerfLevel::kDisabled;

  // If > 0, operations slower than this many microseconds emit one
  // structured slow-op record (op type, key-prefix hash, latency, full
  // PerfContext snapshot, L0/stall state) through the OnSlowOperation
  // listener hook — rate-bounded by slow_op_max_per_sec. Slow-op timing
  // is independent of perf_level, but snapshots only carry phase detail
  // at kEnableTimers.
  uint64_t slow_op_threshold_micros = 0;

  // Upper bound on OnSlowOperation dispatches per second (per DB); excess
  // records are counted (slow_ops_suppressed) but not dispatched, so a
  // pathological tail cannot turn the listener into its own bottleneck.
  uint32_t slow_op_max_per_sec = 32;

  // --- admin server (src/server) ---

  // TCP port of the embedded admin/metrics HTTP server (GET /metrics,
  // /stats, /perf, /health, /slowops; POST /control/...). -1 (default)
  // disables it entirely — no listener thread, no per-op overhead. 0 binds
  // an ephemeral kernel-assigned port (tests/CI; read it back via
  // GetProperty("clsm.admin-port")); > 0 binds that port. Works for every
  // variant (cLSM and the baselines share the chassis wiring).
  int admin_port = -1;

  // Address the admin server binds. Loopback by default: the server speaks
  // plaintext HTTP with no authentication, so exposing it beyond the host
  // (e.g. "0.0.0.0" for a scrape fleet) is a deliberate opt-in.
  std::string admin_bind_address = "127.0.0.1";

  // Upper bound on concurrent admin HTTP connections (the server is
  // thread-per-connection, so this bounds its thread count). Excess
  // connections are shed with a canned 503 and counted
  // (clsm_admin_connections_shed_total). <= 0 disables the cap.
  int admin_max_connections = 32;

  // Make snapshot acquisition linearizable instead of merely serializable:
  // getSnap waits until it can choose a snapshot time no smaller than the
  // time counter at the start of the call (paper §3.2.1: achieved by
  // omitting the Active-set adjustment, at the cost of waiting out
  // in-flight puts). Off by default, matching the paper's evaluation.
  bool linearizable_snapshots = false;
};

struct ReadOptions {
  bool verify_checksums = false;
  bool fill_cache = true;
  // If non-null, read as of this snapshot; otherwise read latest state.
  const Snapshot* snapshot = nullptr;
};

struct WriteOptions {
  // Overrides Options::sync_logging per write when true.
  bool sync = false;
};

}  // namespace clsm

#endif  // CLSM_UTIL_OPTIONS_H_
