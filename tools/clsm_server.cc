// clsm_server: the network serving front end — a ShardedClsm store (N
// independent cLSM instances, atomic cross-shard snapshot cuts) behind the
// kv_protocol framed binary listener, with the admin HTTP server exposing
// the cross-shard stats rollup on /stats.json and /metrics.
//
//   clsm_server --db=/tmp/kv --shards=4 --port=7400 --admin_port=7401
//
// Port 0 picks an ephemeral port; the bound ports are printed to stderr as
//   kv_port=N
//   admin_port=N
// (same convention as clsm_bench_cli, so scripts can scrape them).
// SIGINT/SIGTERM shut down cleanly: stop accepting, drain connections,
// close the store.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "src/baselines/factory.h"
#include "src/obs/trace_listener.h"
#include "src/server/kv_service.h"

using namespace clsm;

namespace {

struct Flags {
  std::string db = "/tmp/clsm-server";
  std::string variant = "clsm";
  std::string bind = "127.0.0.1";
  int shards = 4;
  int port = 0;        // kv listener; 0 = ephemeral
  int admin_port = 0;  // admin HTTP; 0 = ephemeral, -1 = off
  int max_connections = 256;
  size_t write_buffer = 8 << 20;
  // Serving-tier observability (see kv_service.h): slow-request capture
  // threshold, request-trace sampling, and per-op engine attribution for
  // the PerfContext embedded in slow-request records.
  uint64_t rpc_slow_threshold_micros = 0;
  double rpc_trace_sample_rate = 0.0;
  int perf_level = 0;
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

int Usage() {
  fprintf(stderr,
          "flags: --db=PATH --shards=N --variant=clsm|leveldb|...\n"
          "       --port=N (kv listener; 0 = ephemeral)\n"
          "       --admin_port=N (admin HTTP; 0 = ephemeral, -1 = off)\n"
          "       --bind=ADDR --max_connections=N --write_buffer=BYTES\n"
          "       --rpc_slow_threshold_micros=N (0 = slow-request capture off)\n"
          "       --rpc_trace_sample_rate=R (0..1; runtime: POST /control/rpctrace/*)\n"
          "       --perf_level=0|1|2 (per-op attribution in slow-request records)\n");
  return 2;
}

// Signal flag; the handler only sets it — all teardown runs on main.
volatile sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i++) {
    std::string v;
    if (ParseFlag(argv[i], "db", &v)) {
      flags.db = v;
    } else if (ParseFlag(argv[i], "variant", &v)) {
      flags.variant = v;
    } else if (ParseFlag(argv[i], "bind", &v)) {
      flags.bind = v;
    } else if (ParseFlag(argv[i], "shards", &v)) {
      flags.shards = atoi(v.c_str());
    } else if (ParseFlag(argv[i], "port", &v)) {
      flags.port = atoi(v.c_str());
    } else if (ParseFlag(argv[i], "admin_port", &v)) {
      flags.admin_port = atoi(v.c_str());
    } else if (ParseFlag(argv[i], "max_connections", &v)) {
      flags.max_connections = atoi(v.c_str());
    } else if (ParseFlag(argv[i], "write_buffer", &v)) {
      flags.write_buffer = strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "rpc_slow_threshold_micros", &v)) {
      flags.rpc_slow_threshold_micros = strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "rpc_trace_sample_rate", &v)) {
      flags.rpc_trace_sample_rate = atof(v.c_str());
    } else if (ParseFlag(argv[i], "perf_level", &v)) {
      flags.perf_level = atoi(v.c_str());
    } else {
      fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage();
    }
  }

  DbVariant variant;
  if (!ParseVariant(flags.variant, &variant)) {
    fprintf(stderr, "unknown variant: %s\n", flags.variant.c_str());
    return Usage();
  }

  Options options;
  options.create_if_missing = true;
  options.write_buffer_size = flags.write_buffer;
  options.admin_port = flags.admin_port;
  options.admin_bind_address = flags.bind;
  options.perf_level = static_cast<PerfLevel>(flags.perf_level);

  // One Chrome-trace ring shared by the engine listeners and the serving
  // tier, so GET /rpctrace shows request spans interleaved with flush /
  // compaction / stall events from every shard.
  auto trace_ring = std::make_shared<TraceEventListener>();
  options.listeners.push_back(trace_ring);

  DB* raw = nullptr;
  Status s = OpenShardedDb(variant, options, flags.db, flags.shards, &raw);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> db(raw);

  KvServiceConfig service_config;
  service_config.max_connections = flags.max_connections;
  service_config.slow_threshold_micros = flags.rpc_slow_threshold_micros;
  service_config.slow_max_per_sec = options.slow_op_max_per_sec;
  service_config.trace_sample_rate = flags.rpc_trace_sample_rate;
  service_config.trace = trace_ring;
  KvService service(db.get(), service_config);
  s = service.Start(flags.bind, flags.port);
  if (!s.ok()) {
    fprintf(stderr, "kv listener failed: %s\n", s.ToString().c_str());
    return 1;
  }

  fprintf(stderr, "kv_port=%d\n", service.port());
  fprintf(stderr, "admin_port=%s\n", db->GetProperty("clsm.admin-port").c_str());
  fprintf(stderr, "serving %s shards=%s db=%s\n", flags.variant.c_str(),
          db->GetProperty("clsm.shard-count").c_str(), flags.db.c_str());

  struct sigaction sa{};
  sa.sa_handler = OnSignal;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  while (!g_stop) {
    // poll(nullptr) is just an interruptible sleep; signals cut it short.
    ::poll(nullptr, 0, 200);
  }

  fprintf(stderr, "shutting down\n");
  service.Stop();
  db.reset();
  return 0;
}
