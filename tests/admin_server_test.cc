// Socket round-trip coverage of the embedded admin HTTP server
// (Options::admin_port): every endpoint is exercised against a live DB
// through the real listener via the tiny HTTP client, plus the degraded
// paths — 503 /health after an injected background error, 404/405/400/409
// request errors — and concurrent scrapers racing a writer (the TSan
// configuration of this test is what validates the server's locking).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/factory.h"
#include "src/obs/op_trace.h"
#include "src/obs/rpc_stats.h"
#include "src/obs/trace_listener.h"
#include "src/server/http_client.h"
#include "src/server/kv_client.h"
#include "src/server/kv_service.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

// Bare TCP connect to 127.0.0.1:port (no request bytes) — occupies one of
// the admin server's connection slots. Returns -1 on failure.
int ConnectRaw(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Server-side RPC bookkeeping (metrics, slow capture, trace spans)
// completes just AFTER the response is written, so a read through the
// admin surface can race the last reply. Poll briefly.
template <typename Pred>
bool WaitFor(Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// First occurrence of "key":<number> in json (-1 if absent).
int64_t JsonInt(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return -1;
  }
  return std::strtoll(json.c_str() + pos + needle.size(), nullptr, 10);
}

class AdminServerTest : public ::testing::Test {
 protected:
  AdminServerTest() : dir_("adminserver"), fault_env_(Env::Default()) {
    options_.env = &fault_env_;
    options_.write_buffer_size = 64 * 1024;
    options_.admin_port = 0;  // ephemeral; read back via clsm.admin-port
  }

  std::unique_ptr<DB> Open(DbVariant variant, const std::string& name) {
    DB* raw = nullptr;
    Status s = OpenDb(variant, options_, dir_.path() + "/" + name, &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(raw);
  }

  static int AdminPort(DB* db) {
    return std::atoi(db->GetProperty("clsm.admin-port").c_str());
  }

  // GETs `path` and returns the body; records the HTTP status in *code.
  static std::string Get(int port, const std::string& path, int* code) {
    std::string body;
    Status s = HttpGet("127.0.0.1", port, path, code, &body);
    EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
    return body;
  }

  static std::string Post(int port, const std::string& path, const std::string& req_body,
                          int* code) {
    std::string body;
    Status s = HttpPost("127.0.0.1", port, path, req_body, code, &body);
    EXPECT_TRUE(s.ok()) << path << ": " << s.ToString();
    return body;
  }

  ScratchDir dir_;
  FaultInjectionEnv fault_env_;
  Options options_;
};

TEST_F(AdminServerTest, EphemeralPortIsBoundAndAdvertised) {
  auto db = Open(DbVariant::kClsm, "port");
  const int port = AdminPort(db.get());
  EXPECT_GT(port, 0);
  int code = 0;
  const std::string index = Get(port, "/", &code);
  EXPECT_EQ(200, code);
  EXPECT_NE(std::string::npos, index.find("/metrics"));
  EXPECT_NE(std::string::npos, index.find("db=clsm"));
}

TEST_F(AdminServerTest, DisabledByDefault) {
  options_.admin_port = -1;
  auto db = Open(DbVariant::kClsm, "disabled");
  EXPECT_EQ("-1", db->GetProperty("clsm.admin-port"));
}

TEST_F(AdminServerTest, MetricsExposition) {
  auto db = Open(DbVariant::kClsm, "metrics");
  WriteOptions wo;
  ReadOptions ro;
  std::string v;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(wo, "k" + std::to_string(i), std::string(128, 'v')).ok());
  }
  for (int i = 0; i < 50; i++) {
    db->Get(ro, "k" + std::to_string(i), &v);
  }
  db->WaitForMaintenance();

  int code = 0;
  const std::string text = Get(AdminPort(db.get()), "/metrics", &code);
  ASSERT_EQ(200, code);
  // Counters are typed and carry the db label.
  EXPECT_NE(std::string::npos, text.find("# TYPE clsm_puts_total counter")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_puts_total{db=\"clsm\"} 200")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_gets_total{db=\"clsm\"}")) << text;
  // Per-level gauges carry a level label.
  EXPECT_NE(std::string::npos, text.find("clsm_level_files{db=\"clsm\",level=\"0\"}")) << text;
  // Write-controller and process telemetry blocks are exported.
  EXPECT_NE(std::string::npos, text.find("clsm_write_controller_rate_bytes_per_sec")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_process_rss_bytes")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_process_uptime_seconds")) << text;
  // Latency histograms: cumulative buckets with the mandatory +Inf.
  EXPECT_NE(std::string::npos, text.find("# TYPE clsm_op_latency_seconds histogram")) << text;
  EXPECT_NE(std::string::npos,
            text.find("clsm_op_latency_seconds_bucket{db=\"clsm\",op=\"put\",le=\"+Inf\"}"))
      << text;
  EXPECT_NE(std::string::npos, text.find("clsm_op_latency_seconds_sum")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_op_latency_seconds_count")) << text;
}

TEST_F(AdminServerTest, StatsAndPerfJson) {
  auto db = Open(DbVariant::kClsm, "statsjson");
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "k", "v").ok());

  const int port = AdminPort(db.get());
  int code = 0;
  const std::string stats = Get(port, "/stats", &code);
  EXPECT_EQ(200, code);
  EXPECT_NE(std::string::npos, stats.find("\"db\":\"clsm\"")) << stats;
  EXPECT_NE(std::string::npos, stats.find("\"counters\":")) << stats;
  EXPECT_NE(std::string::npos, stats.find("\"process\":")) << stats;
  EXPECT_EQ(1, JsonInt(stats, "puts_total"));
  // The socket view matches the property byte-for-byte except live
  // counters that tick between the two renders; spot-check the schema.
  const std::string prop = db->GetProperty("clsm.stats.json");
  EXPECT_EQ(prop.substr(0, prop.find("\"process\"")).substr(0, 40),
            stats.substr(0, stats.find("\"process\"")).substr(0, 40));

  const std::string perf = Get(port, "/perf", &code);
  EXPECT_EQ(200, code);
  EXPECT_EQ('{', perf.empty() ? '\0' : perf[0]) << perf;
}

TEST_F(AdminServerTest, HealthTurns503OnBackgroundError) {
  auto db = Open(DbVariant::kClsm, "health");
  const int port = AdminPort(db.get());
  int code = 0;
  std::string body = Get(port, "/health", &code);
  EXPECT_EQ(200, code);
  EXPECT_NE(std::string::npos, body.find("\"status\":\"ok\"")) << body;

  // Latch a hard background error: arm a single Sync failure and churn
  // async writes until the flush boundary retires the WAL and hits it
  // (the wal_sync_flush_test scenario).
  WriteOptions wo;
  WriteOptions sync_wo;
  sync_wo.sync = true;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put(sync_wo, "acked" + std::to_string(i), "v").ok());
  }
  db->WaitForMaintenance();
  fault_env_.FailSyncs(1);
  for (int i = 0; i < 50000; i++) {
    if (db->GetProperty("clsm.background-error") != "OK") {
      break;
    }
    if (!db->Put(wo, "churn" + std::to_string(i), std::string(64, 'c')).ok()) {
      break;
    }
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (db->GetProperty("clsm.background-error") == "OK" &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_NE("OK", db->GetProperty("clsm.background-error"));

  body = Get(port, "/health", &code);
  EXPECT_EQ(503, code);
  EXPECT_NE(std::string::npos, body.find("\"status\":\"degraded\"")) << body;
  EXPECT_NE(std::string::npos, body.find("\"severity\":\"hard\"")) << body;
  EXPECT_NE(std::string::npos, body.find("wal_sync")) << body;
  fault_env_.Heal();
}

TEST_F(AdminServerTest, SlowOpsRing) {
  options_.slow_op_threshold_micros = 1;  // everything is "slow"
  auto db = Open(DbVariant::kClsm, "slowops");
  WriteOptions wo;
  for (int i = 0; i < 20; i++) {
    ASSERT_TRUE(db->Put(wo, "k" + std::to_string(i), "v").ok());
  }

  int code = 0;
  const std::string body = Get(AdminPort(db.get()), "/slowops", &code);
  EXPECT_EQ(200, code);
  EXPECT_GT(JsonInt(body, "total_seen"), 0) << body;
  EXPECT_NE(std::string::npos, body.find("\"records\":[")) << body;
  EXPECT_NE(std::string::npos, body.find("\"op\":")) << body;
}

TEST_F(AdminServerTest, TraceStartStopRoundTrip) {
  auto db = Open(DbVariant::kClsm, "trace");
  const int port = AdminPort(db.get());
  const std::string trace_path = dir_.path() + "/live.trace";

  int code = 0;
  std::string body = Post(port, "/control/trace/start?path=" + trace_path, "", &code);
  ASSERT_EQ(200, code) << body;
  EXPECT_NE(std::string::npos, body.find("\"status\":\"tracing\"")) << body;

  // Starting twice conflicts.
  body = Post(port, "/control/trace/start?path=" + trace_path, "", &code);
  EXPECT_EQ(409, code) << body;

  WriteOptions wo;
  ReadOptions ro;
  std::string v;
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(db->Put(wo, "t" + std::to_string(i), "v").ok());
  }
  db->Get(ro, "t0", &v);

  body = Post(port, "/control/trace/stop", "", &code);
  ASSERT_EQ(200, code) << body;
  const int64_t written = JsonInt(body, "records_written");
  EXPECT_GE(written, 26) << body;

  // The file is a valid clsm trace: the reader replays every record.
  TraceReader reader;
  ASSERT_TRUE(reader.Open(Env::Default(), trace_path).ok());
  TraceRecord rec;
  int64_t read_back = 0;
  while (reader.Next(&rec)) {
    read_back++;
  }
  EXPECT_TRUE(reader.status().ok()) << reader.status().ToString();
  EXPECT_EQ(written, read_back);

  // Stopping with no trace running conflicts; missing path is a 400.
  body = Post(port, "/control/trace/stop", "", &code);
  EXPECT_EQ(409, code) << body;
  body = Post(port, "/control/trace/start", "", &code);
  EXPECT_EQ(400, code) << body;
}

TEST_F(AdminServerTest, RpcTraceControlEndpoints) {
  auto db = Open(DbVariant::kClsm, "rpctrace");
  const int port = AdminPort(db.get());
  int code = 0;

  // Before a KV service attaches there is nothing to sample: start/stop
  // conflict, the dump is absent. Method and rate validation run first.
  std::string body = Post(port, "/control/rpctrace/start?rate=0.5", "", &code);
  EXPECT_EQ(409, code) << body;
  EXPECT_NE(std::string::npos, body.find("no rpc service attached")) << body;
  body = Post(port, "/control/rpctrace/stop", "", &code);
  EXPECT_EQ(409, code) << body;
  Get(port, "/rpctrace", &code);
  EXPECT_EQ(404, code);
  Get(port, "/control/rpctrace/start", &code);
  EXPECT_EQ(405, code);
  Post(port, "/rpctrace", "", &code);
  EXPECT_EQ(405, code);
  body = Post(port, "/control/rpctrace/start?rate=abc", "", &code);
  EXPECT_EQ(400, code) << body;
  body = Post(port, "/control/rpctrace/start?rate=1.5", "", &code);
  EXPECT_EQ(400, code) << body;
  body = Post(port, "/control/rpctrace/start?rate=-0.1", "", &code);
  EXPECT_EQ(400, code) << body;

  // Front the DB with a KV service carrying a trace ring; the admin
  // endpoints then control its sampler live.
  KvServiceConfig cfg;
  cfg.trace = std::make_shared<TraceEventListener>();
  KvService service(db.get(), cfg);
  ASSERT_TRUE(service.Start("127.0.0.1", 0).ok());

  body = Post(port, "/control/rpctrace/start?rate=1", "", &code);
  ASSERT_EQ(200, code) << body;
  EXPECT_NE(std::string::npos, body.find("\"status\":\"sampling\"")) << body;
  EXPECT_EQ(1'000'000u, service.stats()->TraceSamplePpm());

  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", service.port()).ok());
  ASSERT_TRUE(c.Put("traced", "v").ok());
  std::string v;
  ASSERT_TRUE(c.Get("traced", &v).ok());

  // The sampled request spans come back through the Chrome-trace dump.
  ASSERT_TRUE(WaitFor([&] { return service.stats()->Get(RpcCounter::kTraceSpans) == 2; }));
  body = Get(port, "/rpctrace", &code);
  ASSERT_EQ(200, code);
  EXPECT_NE(std::string::npos, body.find("\"rpc.req\"")) << body.substr(0, 400);
  EXPECT_NE(std::string::npos, body.find("\"rpc.get\"")) << body.substr(0, 400);

  body = Post(port, "/control/rpctrace/stop", "", &code);
  ASSERT_EQ(200, code) << body;
  EXPECT_NE(std::string::npos, body.find("\"status\":\"stopped\"")) << body;
  EXPECT_EQ(0u, service.stats()->TraceSamplePpm());
}

TEST_F(AdminServerTest, SlowRpcRequestsSurfaceInSlowOpsWithPerf) {
  options_.perf_level = PerfLevel::kEnableTimers;
  auto db = Open(DbVariant::kClsm, "rpcslow");
  KvServiceConfig cfg;
  cfg.slow_threshold_micros = 1;  // every request trips the capture
  KvService service(db.get(), cfg);
  ASSERT_TRUE(service.Start("127.0.0.1", 0).ok());

  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", service.port()).ok());
  ASSERT_TRUE(c.Put("slow", "v").ok());
  std::string v;
  ASSERT_TRUE(c.Get("slow", &v).ok());

  // RPC slow records land in the same ring /slowops serves, tagged
  // "rpc":true, with the request envelope, phase timers, and the handling
  // thread's PerfContext snapshot embedded.
  ASSERT_TRUE(WaitFor([&] { return service.stats()->Get(RpcCounter::kSlowRequests) == 2; }));
  const int port = AdminPort(db.get());
  int code = 0;
  const std::string body = Get(port, "/slowops", &code);
  ASSERT_EQ(200, code);
  EXPECT_GE(JsonInt(body, "total_seen"), 2) << body;
  EXPECT_NE(std::string::npos, body.find("\"rpc\":true")) << body.substr(0, 600);
  EXPECT_NE(std::string::npos, body.find("\"op\":\"put\"")) << body;
  EXPECT_NE(std::string::npos, body.find("\"key_prefix_hash\":")) << body;
  EXPECT_NE(std::string::npos, body.find("\"db_micros\":")) << body;
  EXPECT_NE(std::string::npos, body.find("\"perf\":{")) << body;

  // The serving tier also shows up on this DB's exposition surfaces.
  const std::string metrics = Get(port, "/metrics", &code);
  ASSERT_EQ(200, code);
  EXPECT_NE(std::string::npos, metrics.find("# TYPE clsm_rpc_requests_total counter"))
      << metrics.substr(0, 2000);
  EXPECT_NE(std::string::npos, metrics.find("clsm_rpc_requests_total{db=\"clsm\"} 2"))
      << metrics;
  EXPECT_NE(std::string::npos,
            metrics.find("clsm_rpc_op_responses_total{db=\"clsm\",op=\"get\",status=\"ok\"} 1"))
      << metrics;
  EXPECT_NE(std::string::npos,
            metrics.find("clsm_rpc_latency_seconds_bucket{db=\"clsm\",op=\"put\",le=\"+Inf\"} 1"))
      << metrics;
  EXPECT_NE(std::string::npos, metrics.find("clsm_rpc_slow_requests_total{db=\"clsm\"} 2"))
      << metrics;
  const std::string stats = Get(port, "/stats", &code);
  ASSERT_EQ(200, code);
  EXPECT_NE(std::string::npos, stats.find("\"rpc\":{")) << stats.substr(0, 400);
}

TEST_F(AdminServerTest, StatsReset) {
  auto db = Open(DbVariant::kClsm, "reset");
  WriteOptions wo;
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(db->Put(wo, "k" + std::to_string(i), "v").ok());
  }
  const int port = AdminPort(db.get());
  int code = 0;
  std::string stats = Get(port, "/stats", &code);
  ASSERT_EQ(5, JsonInt(stats, "puts_total"));

  const std::string body = Post(port, "/control/stats/reset", "", &code);
  EXPECT_EQ(200, code);
  EXPECT_NE(std::string::npos, body.find("\"status\":\"reset\"")) << body;
  stats = Get(port, "/stats", &code);
  EXPECT_EQ(0, JsonInt(stats, "puts_total"));
}

TEST_F(AdminServerTest, RequestErrors) {
  auto db = Open(DbVariant::kClsm, "errors");
  const int port = AdminPort(db.get());
  int code = 0;
  Get(port, "/no/such/endpoint", &code);
  EXPECT_EQ(404, code);
  Post(port, "/metrics", "", &code);
  EXPECT_EQ(405, code);
  Get(port, "/control/stats/reset", &code);
  EXPECT_EQ(405, code);
}

TEST_F(AdminServerTest, ConcurrentScrapersUnderLoad) {
  auto db = Open(DbVariant::kClsm, "scrape");
  const int port = AdminPort(db.get());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    WriteOptions wo;
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      db->Put(wo, "w" + std::to_string(i++ % 1000), std::string(64, 'x'));
    }
  });

  const char* paths[] = {"/metrics", "/stats", "/health", "/slowops"};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; t++) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 10; i++) {
        int code = 0;
        std::string body;
        Status s = HttpGet("127.0.0.1", port, paths[t % 4], &code, &body);
        EXPECT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(200, code) << paths[t % 4];
        EXPECT_FALSE(body.empty());
      }
    });
  }
  for (auto& s : scrapers) {
    s.join();
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
}

// The thread-per-connection model is bounded: past admin_max_connections
// the accept loop sheds new connections with a canned 503 instead of
// spawning threads without limit, and the sheds surface on /metrics as
// clsm_admin_connections_shed_total. Regression test for the unbounded
// model the server shipped with.
TEST_F(AdminServerTest, ConnectionCapShedsWith503) {
  options_.admin_max_connections = 2;
  auto db = Open(DbVariant::kClsm, "cap");
  const int port = AdminPort(db.get());
  ASSERT_GT(port, 0);

  // Two idle hogs occupy both slots: they connect, send nothing, and park
  // their handler threads in recv() until the idle timeout.
  const int hog1 = ConnectRaw(port);
  const int hog2 = ConnectRaw(port);
  ASSERT_GE(hog1, 0);
  ASSERT_GE(hog2, 0);

  // Accepting the hogs is asynchronous, so poll: once both hold slots,
  // every further connection must be shed with the canned 503.
  bool shed = false;
  for (int i = 0; i < 200 && !shed; i++) {
    int code = 0;
    std::string body;
    if (HttpGet("127.0.0.1", port, "/health", &code, &body).ok() && code == 503 &&
        body.find("connection limit") != std::string::npos) {
      shed = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(shed);
  ::close(hog1);
  ::close(hog2);

  // Slots free once the hog handlers see EOF; the server must recover to
  // normal service and report how many connections it shed.
  std::string metrics;
  for (int i = 0; i < 200 && metrics.empty(); i++) {
    int code = 0;
    std::string body;
    if (HttpGet("127.0.0.1", port, "/metrics", &code, &body).ok() && code == 200) {
      metrics = body;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ASSERT_FALSE(metrics.empty()) << "server did not recover after hogs disconnected";
  const size_t pos = metrics.find("clsm_admin_connections_shed_total{db=\"clsm\"} ");
  ASSERT_NE(std::string::npos, pos) << metrics.substr(0, 2000);
  EXPECT_GE(std::strtoull(metrics.c_str() + pos +
                              strlen("clsm_admin_connections_shed_total{db=\"clsm\"} "),
                          nullptr, 10),
            1u);
}

TEST_F(AdminServerTest, BaselineVariantIsScrapable) {
  auto db = Open(DbVariant::kLevelDb, "baseline");
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "k", "v").ok());
  const int port = AdminPort(db.get());
  ASSERT_GT(port, 0);

  int code = 0;
  const std::string text = Get(port, "/metrics", &code);
  EXPECT_EQ(200, code);
  EXPECT_NE(std::string::npos, text.find("clsm_puts_total{db=\"leveldb\"} 1")) << text;
  const std::string health = Get(port, "/health", &code);
  EXPECT_EQ(200, code);
  EXPECT_NE(std::string::npos, health.find("\"db\":\"leveldb\"")) << health;
}

TEST_F(AdminServerTest, ServerStopsCleanlyWithDb) {
  // Opening and closing repeatedly must not leak ports or threads (the
  // dtor joins every connection); a second bind of the same ephemeral
  // flow must keep working.
  for (int i = 0; i < 3; i++) {
    auto db = Open(DbVariant::kClsm, "cycle" + std::to_string(i));
    int code = 0;
    Get(AdminPort(db.get()), "/health", &code);
    EXPECT_EQ(200, code);
  }
}

}  // namespace
}  // namespace clsm
