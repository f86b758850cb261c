#include "src/server/admin_server.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/lsm/bg_error.h"
#include "src/obs/op_trace.h"
#include "src/obs/rpc_stats.h"
#include "src/obs/slow_op.h"
#include "src/obs/stats_export.h"
#include "src/obs/trace_listener.h"

namespace clsm {

namespace {

constexpr const char* kJson = "application/json";
// The content type Prometheus scrapers send in Accept and expect back.
constexpr const char* kPrometheus = "text/plain; version=0.0.4; charset=utf-8";

HttpResponse Text(int status, std::string body) {
  HttpResponse r;
  r.status = status;
  r.body = std::move(body);
  return r;
}

HttpResponse Json(int status, std::string body) {
  HttpResponse r = Text(status, std::move(body));
  r.content_type = kJson;
  return r;
}

}  // namespace

Options WithAdminListeners(const Options& options,
                           const std::shared_ptr<SlowOpRingListener>& slow_ring,
                           const std::shared_ptr<TraceController>& trace) {
  if (slow_ring == nullptr) {
    return options;
  }
  Options out = options;
  out.listeners.push_back(slow_ring);
  if (trace != nullptr) {
    out.listeners.push_back(trace);
  }
  return out;
}

void RpcAttachment::Attach(std::shared_ptr<RpcServerStats> stats,
                           std::shared_ptr<TraceEventListener> trace) {
  std::lock_guard<std::mutex> l(mu_);
  stats_ = std::move(stats);
  trace_ = std::move(trace);
}

RpcServerStats* RpcAttachment::stats() {
  std::lock_guard<std::mutex> l(mu_);
  return stats_.get();
}

void RpcAttachment::AddAdminHooks(AdminHooks* hooks) {
  hooks->rpctrace_set = [this](uint32_t ppm) {
    std::lock_guard<std::mutex> l(mu_);
    if (stats_ == nullptr) {
      return false;  // no KV service has attached yet
    }
    stats_->SetTraceSamplePpm(ppm);
    return true;
  };
  hooks->rpctrace_dump = [this]() -> std::string {
    std::shared_ptr<TraceEventListener> t;
    {
      std::lock_guard<std::mutex> l(mu_);
      t = trace_;
    }
    return t != nullptr ? t->DumpChromeTrace() : std::string();
  };
}

AdminServer::AdminServer(AdminHooks hooks)
    : hooks_(std::move(hooks)), http_([this](const HttpRequest& req) { return Handle(req); }) {}

AdminServer::~AdminServer() { Stop(); }

Status AdminServer::Start(const std::string& bind_address, int port) {
  http_.set_max_connections(hooks_.max_connections);
  return http_.Start(bind_address, port);
}

void AdminServer::Stop() { http_.Stop(); }

HttpResponse AdminServer::Handle(const HttpRequest& req) {
  const bool get = req.method == "GET";
  const bool post = req.method == "POST";

  if (req.path == "/") {
    return Text(200,
                "clsm admin server (db=" + hooks_.db_name +
                    ")\n"
                    "GET  /metrics            Prometheus exposition\n"
                    "GET  /stats              stats snapshot (JSON)\n"
                    "GET  /perf               perf-context totals (JSON)\n"
                    "GET  /health             200 ok / 503 degraded\n"
                    "GET  /slowops            recent slow-op records\n"
                    "GET  /rpctrace           Chrome trace dump (RPC spans + engine events)\n"
                    "POST /control/trace/start?path=FILE\n"
                    "POST /control/trace/stop\n"
                    "POST /control/rpctrace/start?rate=R\n"
                    "POST /control/rpctrace/stop\n"
                    "POST /control/stats/reset\n");
  }

  if (req.path == "/metrics") {
    if (!get) {
      return Text(405, "method not allowed\n");
    }
    if (!hooks_.metrics_text) {
      return Text(404, "metrics not wired\n");
    }
    std::string body = hooks_.metrics_text();
    // The server's own health rides along: connections the cap shed.
    char shed[160];
    std::snprintf(shed, sizeof(shed),
                  "# TYPE clsm_admin_connections_shed_total counter\n"
                  "clsm_admin_connections_shed_total{db=\"%s\"} %" PRIu64 "\n",
                  PrometheusEscapeLabel(hooks_.db_name).c_str(), http_.overload_sheds());
    body += shed;
    HttpResponse r = Text(200, std::move(body));
    r.content_type = kPrometheus;
    return r;
  }

  if (req.path == "/stats") {
    if (!get) {
      return Text(405, "method not allowed\n");
    }
    if (!hooks_.stats_json) {
      return Text(404, "stats not wired\n");
    }
    return Json(200, hooks_.stats_json());
  }

  if (req.path == "/perf") {
    if (!get) {
      return Text(405, "method not allowed\n");
    }
    if (!hooks_.perf_json) {
      return Text(404, "perf not wired\n");
    }
    return Json(200, hooks_.perf_json());
  }

  if (req.path == "/health") {
    if (!get) {
      return Text(405, "method not allowed\n");
    }
    const BackgroundErrorState* bg = hooks_.bg_error ? hooks_.bg_error() : nullptr;
    if (bg == nullptr || bg->ok()) {
      return Json(200, "{\"status\":\"ok\",\"db\":\"" + hooks_.db_name + "\"}");
    }
    // Degraded: surface the sticky error. Any latched severity (soft
    // included) reports 503 — an operator probing /health wants to know
    // the store needs attention before writes start failing.
    std::string body = "{\"status\":\"degraded\",\"db\":\"" + hooks_.db_name +
                       "\",\"severity\":\"" + BgErrorSeverityName(bg->severity()) +
                       "\",\"writes_blocked\":" +
                       (bg->writes_blocked() ? "true" : "false") + ",\"error\":\"" +
                       PrometheusEscapeLabel(bg->ToString()) + "\"}";
    return Json(503, std::move(body));
  }

  if (req.path == "/slowops") {
    if (!get) {
      return Text(405, "method not allowed\n");
    }
    if (hooks_.slow_ops == nullptr) {
      return Text(404, "slow-op ring not wired\n");
    }
    char head[64];
    std::snprintf(head, sizeof(head), "{\"total_seen\":%" PRIu64 ",\"records\":",
                  hooks_.slow_ops->total_seen());
    return Json(200, std::string(head) + hooks_.slow_ops->ToJsonArray() + "}");
  }

  if (req.path == "/rpctrace") {
    if (!get) {
      return Text(405, "method not allowed\n");
    }
    if (!hooks_.rpctrace_dump) {
      return Text(404, "trace ring not wired\n");
    }
    std::string body = hooks_.rpctrace_dump();
    if (body.empty()) {
      return Text(404, "trace ring not wired\n");
    }
    return Json(200, std::move(body));
  }

  if (req.path == "/control/rpctrace/start") {
    if (!post) {
      return Text(405, "method not allowed\n");
    }
    if (!hooks_.rpctrace_set) {
      return Text(404, "rpc trace control not wired\n");
    }
    // Sampling probability from ?rate= in [0, 1]; default 1.0 (trace
    // every request — right for a short interactive capture).
    double rate = 1.0;
    const std::string rate_str = req.QueryParam("rate");
    if (!rate_str.empty()) {
      char* end = nullptr;
      rate = std::strtod(rate_str.c_str(), &end);
      if (end == rate_str.c_str() || *end != '\0' || !(rate >= 0.0) || rate > 1.0) {
        return Json(400, "{\"error\":\"rate must be a number in [0, 1]\"}");
      }
    }
    const uint32_t ppm = static_cast<uint32_t>(rate * 1e6);
    if (!hooks_.rpctrace_set(ppm)) {
      return Json(409, "{\"error\":\"no rpc service attached\"}");
    }
    char buf[96];
    std::snprintf(buf, sizeof(buf), "{\"status\":\"sampling\",\"rate\":%.6f}", ppm / 1e6);
    return Json(200, buf);
  }

  if (req.path == "/control/rpctrace/stop") {
    if (!post) {
      return Text(405, "method not allowed\n");
    }
    if (!hooks_.rpctrace_set) {
      return Text(404, "rpc trace control not wired\n");
    }
    if (!hooks_.rpctrace_set(0)) {
      return Json(409, "{\"error\":\"no rpc service attached\"}");
    }
    return Json(200, "{\"status\":\"stopped\"}");
  }

  if (req.path == "/control/trace/start") {
    if (!post) {
      return Text(405, "method not allowed\n");
    }
    if (hooks_.trace == nullptr) {
      return Text(404, "trace controller not wired\n");
    }
    // Target file from ?path=...; a nonempty body works too (curl -d).
    std::string path = req.QueryParam("path");
    if (path.empty()) {
      path = req.body;
    }
    if (path.empty()) {
      return Json(400, "{\"error\":\"missing trace path (?path=FILE or request body)\"}");
    }
    const Status s = hooks_.trace->Start(path);
    if (!s.ok()) {
      return Json(409, "{\"error\":\"" + PrometheusEscapeLabel(s.ToString()) + "\"}");
    }
    return Json(200, "{\"status\":\"tracing\",\"path\":\"" + PrometheusEscapeLabel(path) + "\"}");
  }

  if (req.path == "/control/trace/stop") {
    if (!post) {
      return Text(405, "method not allowed\n");
    }
    if (hooks_.trace == nullptr) {
      return Text(404, "trace controller not wired\n");
    }
    uint64_t records = 0;
    const Status s = hooks_.trace->Stop(&records);
    if (!s.ok()) {
      return Json(409, "{\"error\":\"" + PrometheusEscapeLabel(s.ToString()) + "\"}");
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"records_written\":%" PRIu64 "}", records);
    return Json(200, buf);
  }

  if (req.path == "/control/stats/reset") {
    if (!post) {
      return Text(405, "method not allowed\n");
    }
    if (!hooks_.reset_stats) {
      return Text(404, "stats reset not wired\n");
    }
    hooks_.reset_stats();
    return Json(200, "{\"status\":\"reset\"}");
  }

  return Text(404, "unknown endpoint\n");
}

}  // namespace clsm
