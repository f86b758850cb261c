// KvService + kv_protocol: round-trips over a real socket, per-connection
// snapshot lifecycle, and the adversarial frames ISSUE 8 calls out —
// malformed opcodes, truncated bodies, oversized length prefixes, and
// connection-cap shedding. The server under test is a ShardedClsm so the
// wire path exercises cross-shard routing end to end.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/factory.h"
#include "src/obs/rpc_stats.h"
#include "src/obs/trace_listener.h"
#include "src/server/kv_client.h"
#include "src/server/kv_protocol.h"
#include "src/server/kv_service.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

// Bare TCP connect for frames the KvClient refuses to produce.
int ConnectRaw(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
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

// Server-side bookkeeping for a request (metrics, slow capture, trace
// span count) completes just AFTER its response is written, so a stats
// read can race the last reply by a few microseconds. Poll briefly.
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

class KvServiceTest : public ::testing::Test {
 protected:
  KvServiceTest() : dir_("kvsvc") {
    Options options;
    options.write_buffer_size = 256 * 1024;
    DB* raw = nullptr;
    Status s = OpenShardedDb(DbVariant::kClsm, options, dir_.path() + "/db", 2, &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
    service_ = std::make_unique<KvService>(db_.get());
    s = service_->Start("127.0.0.1", 0);
    EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_GT(service_->port(), 0);
  }

  ~KvServiceTest() override {
    service_.reset();  // stop before the DB goes away
    db_.reset();
  }

  void ConnectClient(KvClient* c) {
    ASSERT_TRUE(c->Connect("127.0.0.1", service_->port()).ok());
  }

  ScratchDir dir_;
  std::unique_ptr<DB> db_;
  std::unique_ptr<KvService> service_;
};

TEST_F(KvServiceTest, PutGetDeleteRoundTrip) {
  KvClient c;
  ConnectClient(&c);
  std::string v;
  EXPECT_TRUE(c.Get("absent", &v).IsNotFound());
  ASSERT_TRUE(c.Put("alpha", "1").ok());
  ASSERT_TRUE(c.Put("beta", std::string(100 * 1024, 'b')).ok());  // big value
  ASSERT_TRUE(c.Put("gamma", "").ok());                           // empty value
  ASSERT_TRUE(c.Get("alpha", &v).ok());
  EXPECT_EQ("1", v);
  ASSERT_TRUE(c.Get("beta", &v).ok());
  EXPECT_EQ(100u * 1024, v.size());
  ASSERT_TRUE(c.Get("gamma", &v).ok());
  EXPECT_EQ("", v);
  ASSERT_TRUE(c.Delete("alpha").ok());
  EXPECT_TRUE(c.Get("alpha", &v).IsNotFound());
  // Deleting an absent key is a no-op, like DB::Delete.
  EXPECT_TRUE(c.Delete("never-was").ok());
}

TEST_F(KvServiceTest, ScanRangesAndLimits) {
  KvClient c;
  ConnectClient(&c);
  for (int i = 0; i < 50; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "scan%03d", i);
    ASSERT_TRUE(c.Put(key, "v" + std::to_string(i)).ok());
  }
  std::vector<std::pair<std::string, std::string>> out;
  // Full range, default limit: all 50, globally ordered across both shards.
  ASSERT_TRUE(c.Scan("", "", 0, 0, &out).ok());
  ASSERT_EQ(50u, out.size());
  for (size_t i = 1; i < out.size(); i++) {
    EXPECT_LT(out[i - 1].first, out[i].first);
  }
  // Half-open [scan010, scan020).
  ASSERT_TRUE(c.Scan("scan010", "scan020", 0, 0, &out).ok());
  ASSERT_EQ(10u, out.size());
  EXPECT_EQ("scan010", out.front().first);
  EXPECT_EQ("scan019", out.back().first);
  EXPECT_EQ("v19", out.back().second);
  // Limit truncates.
  ASSERT_TRUE(c.Scan("", "", 7, 0, &out).ok());
  EXPECT_EQ(7u, out.size());
  // Empty range.
  ASSERT_TRUE(c.Scan("zzz", "", 0, 0, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST_F(KvServiceTest, SnapshotsAreConnectionScoped) {
  KvClient c;
  ConnectClient(&c);
  ASSERT_TRUE(c.Put("snapkey", "old").ok());
  uint64_t snap = 0;
  ASSERT_TRUE(c.SnapshotCreate(&snap).ok());
  ASSERT_NE(0u, snap);
  ASSERT_TRUE(c.Put("snapkey", "new").ok());

  std::string v;
  ASSERT_TRUE(c.Get("snapkey", &v, snap).ok());
  EXPECT_EQ("old", v);
  ASSERT_TRUE(c.Get("snapkey", &v).ok());
  EXPECT_EQ("new", v);

  // Scans honor the snapshot too.
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(c.Scan("snapkey", "snapkez", 0, snap, &out).ok());
  ASSERT_EQ(1u, out.size());
  EXPECT_EQ("old", out[0].second);

  ASSERT_TRUE(c.SnapshotRelease(snap).ok());
  // Using it after release is a client error, not a crash.
  EXPECT_FALSE(c.Get("snapkey", &v, snap).ok());

  // Ids are scoped to the connection that made them.
  KvClient c2;
  ConnectClient(&c2);
  uint64_t snap2 = 0;
  ASSERT_TRUE(c2.SnapshotCreate(&snap2).ok());
  KvClient c3;
  ConnectClient(&c3);
  EXPECT_FALSE(c3.Get("snapkey", &v, snap2).ok());

  // Dropping a connection with snapshots open must not wedge the server:
  // the handler releases them on disconnect.
  c2.Close();
  KvClient c4;
  ConnectClient(&c4);
  ASSERT_TRUE(c4.Get("snapkey", &v).ok());
  EXPECT_EQ("new", v);
}

TEST_F(KvServiceTest, StatsOverSocketIsShardRollup) {
  KvClient c;
  ConnectClient(&c);
  for (int i = 0; i < 64; i++) {
    ASSERT_TRUE(c.Put("stat" + std::to_string(i), "v").ok());
  }
  std::string json;
  ASSERT_TRUE(c.Stats(&json).ok());
  EXPECT_NE(std::string::npos, json.find("\"shard_count\":2")) << json.substr(0, 200);
  EXPECT_NE(std::string::npos, json.find("\"shards\":["));
}

TEST_F(KvServiceTest, MalformedOpcodeGetsBadRequestAndClose) {
  KvClient c;
  ConnectClient(&c);
  std::string resp;
  Status s = c.RawRequest(std::string(1, '\x63'), &resp);  // opcode 99
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_FALSE(resp.empty());
  EXPECT_EQ(kKvBadRequest, static_cast<uint8_t>(resp[0]));
  // After a desync the server closes; the next round trip fails.
  std::string v;
  EXPECT_FALSE(c.Get("any", &v).ok());
  EXPECT_FALSE(c.connected());
}

TEST_F(KvServiceTest, TruncatedBodyGetsBadRequest) {
  // A Get frame whose payload stops mid-snap_id.
  {
    KvClient c;
    ConnectClient(&c);
    std::string payload;
    payload.push_back(static_cast<char>(kKvGet));
    payload.append("\x01\x02\x03", 3);  // 3 of the 8 snap_id bytes
    std::string resp;
    ASSERT_TRUE(c.RawRequest(payload, &resp).ok());
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(kKvBadRequest, static_cast<uint8_t>(resp[0]));
  }
  // A Put whose key length points past the end of the payload.
  {
    KvClient c;
    ConnectClient(&c);
    std::string payload;
    payload.push_back(static_cast<char>(kKvPut));
    uint32_t huge = 1000;
    payload.append(reinterpret_cast<const char*>(&huge), 4);
    payload.append("shortkey", 8);
    std::string resp;
    ASSERT_TRUE(c.RawRequest(payload, &resp).ok());
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(kKvBadRequest, static_cast<uint8_t>(resp[0]));
  }
  // Trailing garbage after a well-formed request is also a decode failure.
  {
    KvClient c;
    ConnectClient(&c);
    KvRequest req;
    req.opcode = kKvStats;
    std::string payload = EncodeKvRequest(req) + "junk";
    std::string resp;
    ASSERT_TRUE(c.RawRequest(payload, &resp).ok());
    ASSERT_FALSE(resp.empty());
    EXPECT_EQ(kKvBadRequest, static_cast<uint8_t>(resp[0]));
  }
}

TEST_F(KvServiceTest, OversizedLengthPrefixClosesConnection) {
  int fd = ConnectRaw(service_->port());
  ASSERT_GE(fd, 0);
  uint32_t huge = kKvMaxFrameBytes + 1;
  ASSERT_EQ(4, ::send(fd, &huge, 4, MSG_NOSIGNAL));
  // The server rejects the header without reading (or allocating) the body
  // and closes. recv sees EOF (or a reset once the close races our send).
  char buf[16];
  ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_LE(n, 0);
  ::close(fd);

  // The service is still healthy for well-formed clients.
  KvClient c;
  ConnectClient(&c);
  ASSERT_TRUE(c.Put("still-alive", "yes").ok());
}

TEST_F(KvServiceTest, EmptyKeyAndBinaryValuesSurvive) {
  KvClient c;
  ConnectClient(&c);
  const char kBinary[] = "\x00\x01\xff\x7f zero \x00 embedded";
  std::string binary(kBinary, sizeof(kBinary) - 1);
  ASSERT_TRUE(c.Put("bin", binary).ok());
  std::string v;
  ASSERT_TRUE(c.Get("bin", &v).ok());
  EXPECT_EQ(binary, v);
  // Empty key: the store accepts it like any other key.
  ASSERT_TRUE(c.Put("", "empty-key").ok());
  ASSERT_TRUE(c.Get("", &v).ok());
  EXPECT_EQ("empty-key", v);
}

TEST_F(KvServiceTest, ConnectionCapShedsWithErrorFrame) {
  KvService capped(db_.get(), /*max_connections=*/2);
  ASSERT_TRUE(capped.Start("127.0.0.1", 0).ok());

  KvClient hog1, hog2;
  ASSERT_TRUE(hog1.Connect("127.0.0.1", capped.port()).ok());
  ASSERT_TRUE(hog2.Connect("127.0.0.1", capped.port()).ok());
  // Make both connections live so their handler threads are counted.
  ASSERT_TRUE(hog1.Put("h1", "v").ok());
  ASSERT_TRUE(hog2.Put("h2", "v").ok());

  // The third connection is shed: its first request fails fast instead of
  // hanging — usually with the server's overload error frame, though the
  // close racing the client's send can surface as a reset instead. Accept
  // bookkeeping is asynchronous, so poll briefly.
  bool shed = false;
  std::string v;
  for (int attempt = 0; attempt < 200 && !shed; attempt++) {
    KvClient extra;
    ASSERT_TRUE(extra.Connect("127.0.0.1", capped.port()).ok());
    shed = !extra.Get("h1", &v).ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(shed);
  EXPECT_GE(capped.overload_sheds(), 1u);  // the authoritative shed signal

  // Capacity frees when a hog leaves.
  hog1.Close();
  bool recovered = false;
  for (int attempt = 0; attempt < 200 && !recovered; attempt++) {
    KvClient again;
    ASSERT_TRUE(again.Connect("127.0.0.1", capped.port()).ok());
    recovered = again.Get("h2", &v).ok();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(recovered);
}

TEST_F(KvServiceTest, PingEchoesPayloadAndServerTimestamp) {
  // Wire-format unit check first: kPing encodes/decodes its echo payload,
  // binary bytes included.
  KvRequest req;
  req.opcode = kKvPing;
  req.key = std::string("\x00\x01\xffok", 5);
  KvRequest decoded;
  ASSERT_TRUE(DecodeKvRequest(Slice(EncodeKvRequest(req)), &decoded));
  EXPECT_EQ(kKvPing, decoded.opcode);
  EXPECT_EQ(req.key, decoded.key);

  KvClient c;
  ConnectClient(&c);
  uint64_t ts1 = 0, ts2 = 0;
  std::string echo;
  ASSERT_TRUE(c.Ping("hello", &ts1, &echo).ok());
  EXPECT_EQ("hello", echo);
  EXPECT_GT(ts1, 0u);
  // The timestamp is the server's monotonic clock: a later ping reads a
  // later (or equal) time. Empty echo payloads round-trip too.
  ASSERT_TRUE(c.Ping("", &ts2, &echo).ok());
  EXPECT_EQ("", echo);
  EXPECT_GE(ts2, ts1);
  EXPECT_TRUE(WaitFor([&] { return service_->stats()->Requests(RpcOp::kPing) == 2; }));
  // The client recorded both round trips in its ping series.
  EXPECT_EQ(2, static_cast<int>(c.OpLatency(KvClient::kClientPing).Num()));
}

TEST_F(KvServiceTest, RpcStatsCountRequestsStatusesAndBytes) {
  KvClient c;
  ConnectClient(&c);
  std::string v;
  ASSERT_TRUE(c.Put("rk1", "v").ok());
  ASSERT_TRUE(c.Put("rk2", "v").ok());
  ASSERT_TRUE(c.Put("rk3", "v").ok());
  ASSERT_TRUE(c.Get("rk1", &v).ok());
  EXPECT_TRUE(c.Get("rk-missing", &v).IsNotFound());
  // Unknown snapshot id is a bad request, labeled as such on the get series.
  EXPECT_FALSE(c.Get("rk1", &v, /*snap_id=*/424242).ok());

  const RpcServerStats& stats = *service_->stats();
  // Once the last request's record lands, everything before it has too:
  // the per-connection handler loop is sequential.
  ASSERT_TRUE(WaitFor(
      [&] { return stats.Responses(RpcOp::kGet, RpcStatusClass::kBadRequest) == 1; }));
  EXPECT_EQ(3u, stats.Requests(RpcOp::kPut));
  EXPECT_EQ(3u, stats.Requests(RpcOp::kGet));
  EXPECT_EQ(3u, stats.Responses(RpcOp::kPut, RpcStatusClass::kOk));
  EXPECT_EQ(1u, stats.Responses(RpcOp::kGet, RpcStatusClass::kOk));
  EXPECT_EQ(1u, stats.Responses(RpcOp::kGet, RpcStatusClass::kNotFound));
  EXPECT_EQ(1u, stats.Responses(RpcOp::kGet, RpcStatusClass::kBadRequest));
  EXPECT_EQ(6u, stats.TotalRequests());
  EXPECT_EQ(1u, stats.TotalErrors());
  // Byte counters include the 4-byte frame headers, so every request
  // contributes at least 5 bytes each way.
  EXPECT_GE(stats.TotalBytesIn(), 6u * 5u);
  EXPECT_GE(stats.TotalBytesOut(), 6u * 5u);
  // Latency histograms carry one sample per request on the op's series.
  Histogram h;
  stats.AggregateLatency(RpcOp::kPut, &h);
  EXPECT_EQ(3, static_cast<int>(h.Num()));
  EXPECT_GT(h.Sum(), 0.0);

  // An undecodable frame can't name an opcode: it lands in the "other"
  // series with bad_request status.
  KvClient raw;
  ConnectClient(&raw);
  std::string resp;
  ASSERT_TRUE(raw.RawRequest(std::string(1, '\x63'), &resp).ok());
  ASSERT_TRUE(WaitFor(
      [&] { return stats.Responses(RpcOp::kOther, RpcStatusClass::kBadRequest) == 1; }));
  EXPECT_EQ(2u, stats.TotalErrors());

  // Connection gauges: both clients counted; the service attached its
  // stats to the DB, so the sharded stats rollup document carries the
  // "rpc" block with these counters.
  EXPECT_GE(stats.Get(RpcCounter::kConnections), 2u);
  const std::string json = db_->GetProperty("clsm.stats.json");
  EXPECT_NE(std::string::npos, json.find("\"rpc\":{")) << json.substr(0, 400);
  EXPECT_NE(std::string::npos, json.find("\"requests_total\":7")) << json.substr(0, 400);
  EXPECT_NE(std::string::npos, json.find("\"op\":{\"get\":{"));
  EXPECT_NE(std::string::npos, json.find("\"not_found\":{\"total\":1}"));
  EXPECT_NE(std::string::npos, json.find("\"latency_us\":{"));
}

TEST(KvServiceObservability, SlowRequestCaptureAndTraceSpans) {
  ScratchDir dir("kvsvc-slow");
  Options options;
  options.write_buffer_size = 256 * 1024;
  // Admin server owns the slow ring the captured requests land in; perf
  // timers populate the embedded PerfContext snapshot.
  options.admin_port = 0;
  options.perf_level = PerfLevel::kEnableTimers;
  DB* raw = nullptr;
  ASSERT_TRUE(OpenShardedDb(DbVariant::kClsm, options, dir.path() + "/db", 2, &raw).ok());
  std::unique_ptr<DB> db(raw);

  KvServiceConfig cfg;
  cfg.slow_threshold_micros = 1;  // every request is "slow"
  cfg.trace_sample_rate = 1.0;    // trace every request
  cfg.trace = std::make_shared<TraceEventListener>();
  auto service = std::make_unique<KvService>(db.get(), cfg);
  ASSERT_TRUE(service->Start("127.0.0.1", 0).ok());

  KvClient c;
  ASSERT_TRUE(c.Connect("127.0.0.1", service->port()).ok());
  ASSERT_TRUE(c.Put("slowkey", "v").ok());
  std::string v;
  ASSERT_TRUE(c.Get("slowkey", &v).ok());

  const RpcServerStats& stats = *service->stats();
  ASSERT_TRUE(WaitFor([&] {
    return stats.Get(RpcCounter::kSlowRequests) == 2 && stats.Get(RpcCounter::kTraceSpans) == 2;
  }));
  EXPECT_GE(stats.Get(RpcCounter::kSlowReported), 1u);
  EXPECT_EQ(1'000'000u, stats.TraceSamplePpm());

  // Sampled spans landed in the shared Chrome-trace ring: the request
  // envelope, its phases, and the per-opcode marker.
  const std::string trace = cfg.trace->DumpChromeTrace();
  EXPECT_NE(std::string::npos, trace.find("\"rpc.req\"")) << trace.substr(0, 400);
  EXPECT_NE(std::string::npos, trace.find("\"rpc.db\""));
  EXPECT_NE(std::string::npos, trace.find("\"rpc.put\""));
  EXPECT_NE(std::string::npos, trace.find("\"rpc.get\""));

  // The slow counters surface through the DB's stats rollup; the records
  // themselves sit in the admin server's /slowops ring (covered by
  // admin_server_test against the HTTP surface).
  const std::string json = db->GetProperty("clsm.stats.json");
  EXPECT_NE(std::string::npos, json.find("\"slow_requests_total\":2"))
      << json.substr(0, 400);
  service.reset();  // stats/trace shared_ptrs outlive the service cleanly
}

TEST_F(KvServiceTest, ConcurrentClientsDontInterfere) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 400;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      KvClient c;
      ASSERT_TRUE(c.Connect("127.0.0.1", service_->port()).ok());
      std::string v;
      for (int i = 0; i < kOpsPerThread; i++) {
        std::string key = "t" + std::to_string(t) + "-k" + std::to_string(i);
        ASSERT_TRUE(c.Put(key, std::to_string(i)).ok());
        ASSERT_TRUE(c.Get(key, &v).ok());
        ASSERT_EQ(std::to_string(i), v);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  KvClient c;
  ConnectClient(&c);
  std::vector<std::pair<std::string, std::string>> out;
  ASSERT_TRUE(c.Scan("t", "u", kThreads * kOpsPerThread, 0, &out).ok());
  EXPECT_EQ(static_cast<size_t>(kThreads * kOpsPerThread), out.size());
}

}  // namespace
}  // namespace clsm
