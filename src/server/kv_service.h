// KvService: the network serving front end — a TcpServer accepting framed
// kv_protocol requests and executing them against one DB (in production a
// ShardedClsm; any DB works, the service is variant-agnostic).
//
// Connection model matches the admin server: thread per connection,
// bounded by max_connections with shed-on-accept (the shed client gets a
// kKvError frame so it can tell "overloaded" from "crashed"). Snapshot
// handles are per-connection state: kSnapCreate returns an id valid only
// on that connection, and everything still open is released when the
// connection drops — a client crash can't leak pinned versions.
//
// Observability: every request is threaded through one RpcContext from
// frame decode to response write. The service records per-opcode latency
// histograms, request/byte counters and response-status counters into a
// shared RpcServerStats (exported by the DB as the "rpc" stats block and
// the clsm_rpc_* Prometheus families), emits sampled request spans into
// the shared Chrome-trace ring (decode/db/encode/write phases interleaved
// with engine flush/compaction events), and captures requests over
// KvServiceConfig::slow_threshold_micros as structured slow-request
// records — with the handling thread's PerfContext snapshot embedded —
// into the slow-op ring behind GET /slowops.
#ifndef CLSM_SERVER_KV_SERVICE_H_
#define CLSM_SERVER_KV_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/core/db.h"
#include "src/obs/rpc_stats.h"
#include "src/obs/slow_op.h"
#include "src/obs/trace_listener.h"
#include "src/server/tcp_server.h"

namespace clsm {

struct KvRequest;
struct KvResponse;

// Serving-tier knobs (tools/clsm_server fills them from its flags).
struct KvServiceConfig {
  // Concurrent-connection ceiling; <= 0 means unbounded.
  int max_connections = 0;
  // Requests slower than this (socket-to-socket) emit a slow-request
  // record; 0 disables capture.
  uint64_t slow_threshold_micros = 0;
  // Rate bound on slow-request records per second (excess counted as
  // suppressed). Mirrors Options::slow_op_max_per_sec.
  uint32_t slow_max_per_sec = 32;
  // Initial request-trace sampling probability in [0, 1]; runtime-
  // adjustable via POST /control/rpctrace/{start,stop} once attached.
  double trace_sample_rate = 0.0;
  // Chrome-trace ring sampled request spans are pushed into. Register the
  // same listener in Options::listeners to land server spans and engine
  // flush/compaction events on one timeline. Null disables tracing.
  std::shared_ptr<TraceEventListener> trace;
};

class KvService {
 public:
  // `db` must outlive the service. max_connections <= 0 means unbounded.
  explicit KvService(DB* db, int max_connections = 0);
  KvService(DB* db, const KvServiceConfig& config);
  ~KvService() { Stop(); }

  // Binds and serves on bind_address:port (0 picks an ephemeral port).
  // Also attaches the service's RpcServerStats (and trace ring) to the DB
  // so its stats/admin surfaces expose the serving tier.
  Status Start(const std::string& bind_address, int port);
  void Stop() { tcp_.Stop(); }

  int port() const { return tcp_.port(); }
  uint64_t overload_sheds() const { return tcp_.overload_sheds(); }

  // The serving-tier metrics accumulator (shared with the DB's stats
  // surfaces once Start has attached it).
  const std::shared_ptr<RpcServerStats>& stats() const { return stats_; }

  // Scan responses are capped: limit 0 requests the default, anything
  // larger than kMaxLimit is clamped (one scan can't hold a connection
  // thread and a snapshot pinned for an unbounded range).
  static constexpr uint32_t kDefaultScanLimit = 1000;
  static constexpr uint32_t kMaxScanLimit = 10000;

 private:
  void HandleConnection(int fd);
  // One request's DB dispatch (the switch over opcodes); fills *resp.
  void ExecuteRequest(const KvRequest& req, KvResponse* resp,
                      std::map<uint64_t, const Snapshot*>* snapshots, uint64_t* next_snap_id);

  DB* const db_;
  const uint64_t slow_threshold_nanos_;
  std::shared_ptr<RpcServerStats> stats_;
  std::shared_ptr<TraceEventListener> trace_;
  std::shared_ptr<SlowOpRingListener> slow_ring_;  // set by Start (from the DB)
  SlowOpRateLimiter slow_limiter_;
  std::atomic<uint64_t> next_request_id_{1};
  TcpServer tcp_;
};

}  // namespace clsm

#endif  // CLSM_SERVER_KV_SERVICE_H_
