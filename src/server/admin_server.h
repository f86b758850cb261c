// Embedded admin/metrics HTTP endpoint. Enabled per-DB via
// Options::admin_port; the engine chassis (src/core/db_chassis.h) wires
// one up, so every variant — including the ones used as experimental
// controls — is scrapable and debuggable the same way.
//
// Endpoints (all bodies are small; the server closes each connection):
//   GET  /                     endpoint index (plain text)
//   GET  /metrics              Prometheus text exposition format 0.0.4
//   GET  /stats                clsm.stats.json (same schema as GetProperty)
//   GET  /perf                 clsm.perf.json (calling thread's PerfContext
//                              is not meaningful here; this is the
//                              property's cross-thread view)
//   GET  /health               200 {"status":"ok"} while the store is
//                              healthy; 503 with the sticky background
//                              error once severity >= soft latches
//   GET  /slowops              most recent slow-op records (bounded ring)
//   GET  /rpctrace             Chrome trace_event dump of the shared trace
//                              ring (sampled RPC spans + engine events)
//   POST /control/trace/start?path=/x.trace   begin live op tracing
//   POST /control/trace/stop                  finish it
//   POST /control/rpctrace/start?rate=0.01    sample RPC request spans
//   POST /control/rpctrace/stop               stop sampling
//   POST /control/stats/reset                 DB::ResetStats
//
// The DB hands the server a bundle of closures (AdminHooks) rather than a
// DB*: the server layer stays below the DB layer, and tests can drive it
// with fakes.
#ifndef CLSM_SERVER_ADMIN_SERVER_H_
#define CLSM_SERVER_ADMIN_SERVER_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "src/server/http_server.h"
#include "src/util/options.h"
#include "src/util/status.h"

namespace clsm {

class BackgroundErrorState;
class RpcServerStats;
class SlowOpRingListener;
class TraceController;
class TraceEventListener;

// Copy of `options` with the admin server's internal listeners appended
// (per-op listener membership is sampled once at DB open, so the slow-op
// ring and trace controller must be in the list the engine is built
// with). Returns `options` unchanged when slow_ring is null (admin
// server disabled).
Options WithAdminListeners(const Options& options,
                           const std::shared_ptr<SlowOpRingListener>& slow_ring,
                           const std::shared_ptr<TraceController>& trace);

struct AdminHooks {
  std::string db_name = "?";

  // Renderers; each invoked per request, must be thread-safe. Null hooks
  // 404 their endpoint.
  std::function<std::string()> stats_json;    // GET /stats
  std::function<std::string()> perf_json;     // GET /perf
  std::function<std::string()> metrics_text;  // GET /metrics

  std::function<void()> reset_stats;  // POST /control/stats/reset

  // GET /health: the background-error state to report — a single engine's,
  // or the worst latched member's for a multi-instance DB. Null (hook or
  // result) reports healthy.
  std::function<const BackgroundErrorState*()> bg_error;

  // Borrowed; must outlive the server (the owning DB guarantees this).
  SlowOpRingListener* slow_ops = nullptr;  // GET /slowops
  TraceController* trace = nullptr;        // POST /control/trace/*

  // Serving-tier request-trace sampling (POST /control/rpctrace/{start,
  // stop}) and Chrome-trace ring dump (GET /rpctrace). rpctrace_set flips
  // the sampler to the given parts-per-million rate; it returns false
  // while no KV service has attached its RpcServerStats yet (409).
  // rpctrace_dump renders the shared trace ring, or "" when the DB has no
  // ring (404). Null hooks 404 their endpoints (embedded DBs without a
  // serving tier).
  std::function<bool(uint32_t)> rpctrace_set;
  std::function<std::string()> rpctrace_dump;

  // Concurrent-connection ceiling for the underlying HTTP server
  // (thread-per-connection); <= 0 means unbounded. Sourced from
  // Options::admin_max_connections by the DB wiring.
  int max_connections = 0;
};

// The serving-tier handles a KvService attaches to a DB late (see
// DB::AttachRpcObservability). Only ever replaced, never cleared, so a
// scrape during service shutdown still renders. Scrape and admin paths
// only, never op paths.
class RpcAttachment {
 public:
  void Attach(std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace);

  // The attached stats, or null; valid until the next Attach. Renders and
  // resets consume it synchronously.
  RpcServerStats* stats();

  // Wires POST /control/rpctrace/* and GET /rpctrace to the attachment.
  void AddAdminHooks(AdminHooks* hooks);

 private:
  std::mutex mu_;
  std::shared_ptr<RpcServerStats> stats_;      // guarded by mu_
  std::shared_ptr<TraceEventListener> trace_;  // guarded by mu_
};

class AdminServer {
 public:
  explicit AdminServer(AdminHooks hooks);
  ~AdminServer();

  // Binds and serves; port 0 picks an ephemeral port (see port()).
  Status Start(const std::string& bind_address, int port);
  void Stop();

  int port() const { return http_.port(); }

  // The request router, exposed for in-process tests that want to hit
  // endpoints without a socket.
  HttpResponse Handle(const HttpRequest& req);

  // Connections shed by the max_connections cap since Start (also exported
  // on /metrics as clsm_admin_connections_shed_total).
  uint64_t connections_shed() const { return http_.overload_sheds(); }

 private:
  AdminHooks hooks_;
  HttpServer http_;
};

}  // namespace clsm

#endif  // CLSM_SERVER_ADMIN_SERVER_H_
