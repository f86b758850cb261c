// Serving-tier observability substrate: one lock-free accumulator for the
// KV front end's per-request metrics. KvService threads record one
// relaxed-add bundle per request — a sample in the per-opcode latency
// ShardedHistograms (whose count is the request counter), byte counters
// and a response-status counter in ShardedCounters — on the handling
// thread's stats shard (connection, shed, slow-request and trace-span
// counts share the same ShardedCounters); exporters aggregate the shards
// into the `rpc` stats block and the clsm_rpc_* Prometheus families. The
// same object carries the runtime request-trace sampler state so the admin
// server can flip sampling on a live service through the DB's late-bound
// handle (the service attaches after the admin server is already up).
//
// Units: latencies are recorded in NANOSECONDS (the StatsRegistry
// convention); exporters convert.
#ifndef CLSM_OBS_RPC_STATS_H_
#define CLSM_OBS_RPC_STATS_H_

#include <atomic>
#include <cstdint>

#include "src/obs/metrics.h"

namespace clsm {

// One metrics series per KV protocol opcode. Keep RpcOpName() in sync;
// kOther absorbs unknown/undecodable opcodes so malformed traffic is
// still accounted.
enum class RpcOp : int {
  kGet = 0,
  kPut,
  kDelete,
  kScan,
  kSnapCreate,
  kSnapRelease,
  kStats,
  kPing,
  kOther,
};
constexpr int kNumRpcOps = static_cast<int>(RpcOp::kOther) + 1;

// Stable machine-readable name ("get", "snap_create", ...).
const char* RpcOpName(RpcOp op);

// Response status classes, matching the wire statuses in kv_protocol.h
// (kKvOk/kKvNotFoundStatus/kKvError/kKvBadRequest). Keep
// RpcStatusClassName() in sync.
enum class RpcStatusClass : int {
  kOk = 0,
  kNotFound,
  kError,
  kBadRequest,
};
constexpr int kNumRpcStatusClasses = static_cast<int>(RpcStatusClass::kBadRequest) + 1;

const char* RpcStatusClassName(RpcStatusClass c);

// Cumulative serving-lifecycle counters (the gauges in_flight and
// connections_active stay plain atomics).
enum class RpcCounter : int {
  kSheds = 0,       // connections refused at the cap
  kConnections,     // accepted KV connections
  kSlowRequests,    // over KvServiceConfig::slow_threshold_micros
  kSlowReported,    // admitted by the rate limiter
  kSlowSuppressed,  // over the per-second budget
  kTraceSpans,      // sampled request spans emitted
};
constexpr int kNumRpcCounters = static_cast<int>(RpcCounter::kTraceSpans) + 1;

// Thread-sharded counters + histograms for the serving path. All methods
// are thread-safe; reads are racy-by-design monitoring snapshots, like
// DbStats. The object is shared between the KvService that records into
// it and the DB/admin surface that exports it (via shared_ptr, so scrapes
// stay valid across service shutdown).
class RpcServerStats {
 public:
  RpcServerStats() = default;
  RpcServerStats(const RpcServerStats&) = delete;
  RpcServerStats& operator=(const RpcServerStats&) = delete;

  // Record one completed request: latency sample plus request/byte/status
  // counters, all relaxed adds on the calling thread's shard.
  void RecordRequest(RpcOp op, RpcStatusClass status, uint64_t latency_nanos,
                     uint64_t bytes_in, uint64_t bytes_out) {
    latency_.Record(op, latency_nanos);
    counters_.Add(Slot(op, kBytesInSlot), bytes_in);
    counters_.Add(Slot(op, kBytesOutSlot), bytes_out);
    counters_.Add(Slot(op, kFirstResponseSlot + static_cast<int>(status)));
  }

  // --- aggregated reads (sum across shards) ---

  uint64_t Requests(RpcOp op) const { return latency_.Count(op); }
  uint64_t BytesIn(RpcOp op) const { return counters_.Get(Slot(op, kBytesInSlot)); }
  uint64_t BytesOut(RpcOp op) const { return counters_.Get(Slot(op, kBytesOutSlot)); }
  uint64_t Responses(RpcOp op, RpcStatusClass status) const {
    return counters_.Get(Slot(op, kFirstResponseSlot + static_cast<int>(status)));
  }
  uint64_t TotalRequests() const;
  uint64_t TotalBytesIn() const;
  uint64_t TotalBytesOut() const;
  // All responses in the kError or kBadRequest classes.
  uint64_t TotalErrors() const;

  // Merge every shard's latency buckets for op into *out (nanoseconds).
  void AggregateLatency(RpcOp op, Histogram* out) const { latency_.AggregateInto(op, out); }

  void Reset();

  // --- request-trace sampler (runtime-adjustable) ---

  // Sampling probability in parts-per-million: 0 = tracing off,
  // >= 1'000'000 = trace every request. Seeded from
  // KvServiceConfig::trace_sample_rate; POST /control/rpctrace/{start,stop}
  // flips it on a live service.
  void SetTraceSamplePpm(uint32_t ppm) {
    trace_sample_ppm.store(ppm, std::memory_order_relaxed);
  }
  uint32_t TraceSamplePpm() const { return trace_sample_ppm.load(std::memory_order_relaxed); }

  // Per-request sampling decision (thread-local xorshift, no locks).
  bool SampleTrace();

  // --- lifecycle counters (sharded) and gauges (plain atomics, relaxed) ---

  void Add(RpcCounter c) { counters_.Add(CounterSlot(c)); }
  uint64_t Get(RpcCounter c) const { return counters_.Get(CounterSlot(c)); }

  std::atomic<int64_t> in_flight{0};           // requests between decode start and response write
  std::atomic<int64_t> connections_active{0};  // live KV connections
  std::atomic<uint32_t> trace_sample_ppm{0};

 private:
  // Per-opcode counter slots: bytes in, bytes out, then one response
  // counter per status class.
  static constexpr int kBytesInSlot = 0;
  static constexpr int kBytesOutSlot = 1;
  static constexpr int kFirstResponseSlot = 2;
  static constexpr int kSlotsPerOp = kFirstResponseSlot + kNumRpcStatusClasses;
  static int Slot(RpcOp op, int slot) { return static_cast<int>(op) * kSlotsPerOp + slot; }
  // The lifecycle counters follow the per-opcode slots.
  static int CounterSlot(RpcCounter c) { return kNumRpcOps * kSlotsPerOp + static_cast<int>(c); }

  ShardedHistograms<RpcOp, kNumRpcOps> latency_;
  ShardedCounters<int, kNumRpcOps * kSlotsPerOp + kNumRpcCounters> counters_;
};

}  // namespace clsm

#endif  // CLSM_OBS_RPC_STATS_H_
