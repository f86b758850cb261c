// Tests of the observability substrate: the lock-free sharded
// StatsRegistry and ShardedCounters, the structured JSON snapshot behind
// GetProperty("clsm.stats.json"), and the background StatsReporter.
// Correctness bar: counters and histogram totals must match exactly under
// multi-threaded load, the JSON must parse, and percentile series must be
// monotone (p50 <= p95 <= p99 <= p999 <= max).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/factory.h"
#include "src/core/stats.h"
#include "src/lsm/dbformat.h"
#include "src/obs/metrics.h"
#include "src/obs/rpc_stats.h"
#include "src/obs/stats_reporter.h"
#include "src/util/histogram.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

// --- A minimal strict JSON syntax checker (no dependency available; the
// exported snapshot must be consumable by any real parser, so reject
// trailing commas, bare NaN/inf, unquoted keys, etc.) ---
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!ParseValue()) {
      return false;
    }
    SkipWs();
    return pos_ == s_.size();
  }

 private:
  bool ParseValue() {
    if (pos_ >= s_.size()) {
      return false;
    }
    switch (s_[pos_]) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        return ParseString();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return ParseNumber();
    }
  }

  bool ParseObject() {
    pos_++;  // '{'
    SkipWs();
    if (Peek() == '}') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (Peek() != '"' || !ParseString()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      pos_++;
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == '}') {
        pos_++;
        return true;
      }
      return false;
    }
  }

  bool ParseArray() {
    pos_++;  // '['
    SkipWs();
    if (Peek() == ']') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (!ParseValue()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        pos_++;
        continue;
      }
      if (Peek() == ']') {
        pos_++;
        return true;
      }
      return false;
    }
  }

  bool ParseString() {
    pos_++;  // '"'
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (c == '"') {
        pos_++;
        return true;
      }
      if (c == '\\') {
        pos_++;
        if (pos_ >= s_.size()) {
          return false;
        }
      }
      pos_++;
    }
    return false;
  }

  bool ParseNumber() {
    size_t start = pos_;
    if (Peek() == '-') {
      pos_++;
    }
    while (pos_ < s_.size() && isdigit(static_cast<unsigned char>(s_[pos_]))) {
      pos_++;
    }
    if (Peek() == '.') {
      pos_++;
      while (pos_ < s_.size() && isdigit(static_cast<unsigned char>(s_[pos_]))) {
        pos_++;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      pos_++;
      if (Peek() == '+' || Peek() == '-') {
        pos_++;
      }
      while (pos_ < s_.size() && isdigit(static_cast<unsigned char>(s_[pos_]))) {
        pos_++;
      }
    }
    return pos_ > start && isdigit(static_cast<unsigned char>(s_[pos_ - 1]));
  }

  bool Literal(const char* lit) {
    size_t n = strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) {
      return false;
    }
    pos_ += n;
    return true;
  }

  char Peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < s_.size() && isspace(static_cast<unsigned char>(s_[pos_]))) {
      pos_++;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// Finds `"key":` after (optionally) an anchor substring and returns the
// number that follows; -1 if absent. Good enough to probe the known schema.
double NumberAt(const std::string& json, const std::string& anchor, const std::string& key) {
  size_t from = 0;
  if (!anchor.empty()) {
    from = json.find(anchor);
    if (from == std::string::npos) {
      return -1;
    }
  }
  std::string needle = "\"" + key + "\":";
  size_t at = json.find(needle, from);
  if (at == std::string::npos) {
    return -1;
  }
  return strtod(json.c_str() + at + needle.size(), nullptr);
}

// ---------------------------------------------------------------------------
// StatsRegistry unit tests
// ---------------------------------------------------------------------------

TEST(StatsRegistryTest, SingleThreadCounts) {
  StatsRegistry registry;
  for (uint64_t i = 0; i < 1000; i++) {
    registry.Record(OpMetric::kPut, 1000 + i);
  }
  registry.Record(OpMetric::kGet, 42);
  EXPECT_EQ(registry.Count(OpMetric::kPut), 1000u);
  EXPECT_EQ(registry.Count(OpMetric::kGet), 1u);
  EXPECT_EQ(registry.Count(OpMetric::kDelete), 0u);

  Histogram h;
  registry.AggregateInto(OpMetric::kPut, &h);
  EXPECT_GE(h.Average(), 1000.0);
  EXPECT_LE(h.Percentile(50), h.Percentile(95));
  EXPECT_LE(h.Percentile(95), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), h.Percentile(99.9));
}

TEST(StatsRegistryTest, EightThreadTotalsMatch) {
  StatsRegistry registry;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&registry, t] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        registry.Record(OpMetric::kPut, 100 + (i % 7) * 1000);
        if (i % 2 == 0) {
          registry.Record(OpMetric::kGet, 50 + t);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(registry.Count(OpMetric::kPut), kThreads * kPerThread);
  EXPECT_EQ(registry.Count(OpMetric::kGet), kThreads * (kPerThread / 2));

  // The aggregated histogram must retain every sample.
  Histogram h;
  registry.AggregateInto(OpMetric::kPut, &h);
  EXPECT_LE(h.Percentile(50), h.Percentile(95));
  EXPECT_LE(h.Percentile(95), h.Percentile(99));
  EXPECT_LE(h.Percentile(99), h.Percentile(99.9));

  registry.Reset();
  EXPECT_EQ(registry.Count(OpMetric::kPut), 0u);
  EXPECT_EQ(registry.Count(OpMetric::kGet), 0u);
}

// The one sharded-histogram primitive: merging every shard must keep the
// exact sample count and sum, and recover the extremes to bucket width
// even though no per-sample min/max is recorded.
TEST(ShardedHistogramsTest, MergeKeepsCountSumAndExtremesAcrossShards) {
  StatsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&registry, t] {
      for (uint64_t i = 0; i < 1000; i++) {
        registry.Record(OpMetric::kFlush, 500 + t * 1000 + i);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  Histogram h;
  registry.AggregateInto(OpMetric::kFlush, &h);
  EXPECT_EQ(h.Num(), kThreads * 1000.0);
  double sum = 0;
  for (int t = 0; t < kThreads; t++) {
    for (uint64_t i = 0; i < 1000; i++) {
      sum += static_cast<double>(500 + t * 1000 + i);
    }
  }
  EXPECT_DOUBLE_EQ(h.Sum(), sum);
  const int lo = Histogram::BucketIndex(500);
  const int hi = Histogram::BucketIndex(500 + (kThreads - 1) * 1000 + 999);
  EXPECT_EQ(h.Min(), lo > 0 ? Histogram::BucketLimit(lo - 1) : 0.0);
  EXPECT_EQ(h.Max(), Histogram::BucketLimit(hi));
}

// RpcServerStats keeps its per-opcode latency in the same primitive; the
// latency sample count is the request counter, so it must agree with the
// status-class counters recorded beside it under concurrent load.
TEST(ShardedHistogramsTest, RpcRequestCountIsTheLatencySampleCount) {
  RpcServerStats rpc;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&rpc, t] {
      for (int i = 0; i < kPerThread; i++) {
        const RpcStatusClass status =
            i % 4 == 0 ? RpcStatusClass::kNotFound : RpcStatusClass::kOk;
        rpc.RecordRequest(RpcOp::kGet, status, 1000 + t, 20, 300);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  const uint64_t total = uint64_t{kThreads} * kPerThread;
  EXPECT_EQ(rpc.Requests(RpcOp::kGet), total);
  EXPECT_EQ(rpc.Responses(RpcOp::kGet, RpcStatusClass::kOk) +
                rpc.Responses(RpcOp::kGet, RpcStatusClass::kNotFound),
            total);
  EXPECT_EQ(rpc.BytesIn(RpcOp::kGet), total * 20);
  EXPECT_EQ(rpc.BytesOut(RpcOp::kGet), total * 300);
  Histogram h;
  rpc.AggregateLatency(RpcOp::kGet, &h);
  EXPECT_EQ(h.Num(), static_cast<double>(total));

  rpc.Reset();
  EXPECT_EQ(rpc.TotalRequests(), 0u);
  EXPECT_EQ(rpc.TotalBytesIn(), 0u);
  Histogram empty;
  rpc.AggregateLatency(RpcOp::kGet, &empty);
  EXPECT_EQ(empty.Num(), 0.0);
}

TEST(StatsRegistryTest, OpMetricNamesAreStable) {
  // The JSON schema exposes these strings; renaming one is a breaking
  // change for consumers.
  EXPECT_STREQ(OpMetricName(OpMetric::kPut), "put");
  EXPECT_STREQ(OpMetricName(OpMetric::kGet), "get");
  EXPECT_STREQ(OpMetricName(OpMetric::kDelete), "delete");
  EXPECT_STREQ(OpMetricName(OpMetric::kRmw), "rmw");
  EXPECT_STREQ(OpMetricName(OpMetric::kIterNext), "iter_next");
  EXPECT_STREQ(OpMetricName(OpMetric::kWalAppend), "wal_append");
  EXPECT_STREQ(OpMetricName(OpMetric::kMemInsert), "mem_insert");
  EXPECT_STREQ(OpMetricName(OpMetric::kRollWait), "roll_wait");
  EXPECT_STREQ(OpMetricName(OpMetric::kFlush), "flush");
  EXPECT_STREQ(OpMetricName(OpMetric::kCompaction), "compaction");
}

// The sharded counter primitive: adds from many threads (landing on
// several shards) sum exactly, and Reset zeroes every shard.
TEST(ShardedCountersTest, EightThreadAddsSumExactlyAndResetZeroes) {
  enum class Series : int { kA = 0, kB, kC };
  ShardedCounters<Series, 3> counters;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&counters, t] {
      for (uint64_t i = 0; i < kPerThread; i++) {
        counters.Add(Series::kA);
        counters.Add(Series::kB, static_cast<uint64_t>(t) + 1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counters.Get(Series::kA), kThreads * kPerThread);
  EXPECT_EQ(counters.Get(Series::kB), kPerThread * (kThreads * (kThreads + 1) / 2));
  EXPECT_EQ(counters.Get(Series::kC), 0u);

  counters.Reset();
  EXPECT_EQ(counters.Get(Series::kA), 0u);
  EXPECT_EQ(counters.Get(Series::kB), 0u);
  // Counting resumes from zero on every shard after the reset.
  threads.clear();
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&counters] { counters.Add(Series::kC, 5); });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(counters.Get(Series::kA), 0u);
  EXPECT_EQ(counters.Get(Series::kC), 5u * kThreads);
}

TEST(ShardedCountersTest, DbCounterNamesAreUniqueAndNonEmpty) {
  // The stats export emits these strings as keys of one JSON object per
  // group; a duplicate would emit the same key twice.
  std::set<std::string> names;
  for (int i = 0; i < kNumDbCounters; i++) {
    const char* name = DbCounterName(static_cast<DbCounter>(i));
    ASSERT_NE(name, nullptr) << i;
    EXPECT_GT(std::strlen(name), 0u) << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate counter name " << name;
  }
  EXPECT_STREQ(DbCounterName(DbCounter::kPutsTotal), "puts_total");
  EXPECT_STREQ(DbCounterName(DbCounter::kStallMicros), "stall_micros");
  EXPECT_STREQ(DbCounterName(DbCounter::kRateLimitDelayMicros), "rate_limit_delay_micros");
}

// ---------------------------------------------------------------------------
// DB-level JSON snapshot tests
// ---------------------------------------------------------------------------

class StatsJsonTest : public ::testing::TestWithParam<DbVariant> {
 protected:
  StatsJsonTest() : dir_("stats") {}

  std::unique_ptr<DB> OpenFresh(const Options& options) {
    DB* raw = nullptr;
    Status s = OpenDb(GetParam(), options, dir_.path() + "/db", &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(raw);
  }

  ScratchDir dir_;
};

TEST_P(StatsJsonTest, JsonParsesAndCountersMatchUnderLoad) {
  Options options;
  options.write_buffer_size = 256 * 1024;  // force rolls + flushes
  std::unique_ptr<DB> db = OpenFresh(options);

  constexpr int kThreads = 8;
  constexpr uint64_t kPutsPerThread = 2000;
  constexpr uint64_t kGetsPerThread = 1000;
  constexpr uint64_t kDeletesPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&db, t] {
      WriteOptions wo;
      ReadOptions ro;
      std::string value(128, 'v');
      std::string out;
      char key[32];
      for (uint64_t i = 0; i < kPutsPerThread; i++) {
        snprintf(key, sizeof(key), "k%02d-%06llu", t, static_cast<unsigned long long>(i));
        ASSERT_TRUE(db->Put(wo, key, value).ok());
        if (i < kGetsPerThread) {
          db->Get(ro, key, &out);
        }
        if (i < kDeletesPerThread) {
          db->Delete(wo, key);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  db->WaitForMaintenance();

  std::string json = db->GetProperty("clsm.stats.json");
  ASSERT_FALSE(json.empty());
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;

  // Operation counters must be exact — every thread's ops accounted for.
  EXPECT_EQ(NumberAt(json, "\"counters\"", "puts_total"), kThreads * kPutsPerThread);
  EXPECT_EQ(NumberAt(json, "\"counters\"", "gets_total"), kThreads * kGetsPerThread);
  EXPECT_EQ(NumberAt(json, "\"counters\"", "deletes_total"), kThreads * kDeletesPerThread);

  // Latency histogram totals must match the counters (metrics default on).
  std::string put_anchor = "\"put\":{";
  ASSERT_NE(json.find(put_anchor), std::string::npos) << json;
  EXPECT_EQ(NumberAt(json, put_anchor, "count"), kThreads * kPutsPerThread);
  std::string get_anchor = "\"get\":{";
  ASSERT_NE(json.find(get_anchor), std::string::npos);
  EXPECT_EQ(NumberAt(json, get_anchor, "count"), kThreads * kGetsPerThread);
  std::string del_anchor = "\"delete\":{";
  ASSERT_NE(json.find(del_anchor), std::string::npos);
  EXPECT_EQ(NumberAt(json, del_anchor, "count"), kThreads * kDeletesPerThread);

  // Percentile series must be monotone for every op that recorded samples.
  for (const char* op : {"\"put\":{", "\"get\":{", "\"delete\":{"}) {
    double p50 = NumberAt(json, op, "p50");
    double p95 = NumberAt(json, op, "p95");
    double p99 = NumberAt(json, op, "p99");
    double p999 = NumberAt(json, op, "p999");
    double max = NumberAt(json, op, "max");
    EXPECT_GE(p50, 0.0) << op;
    EXPECT_LE(p50, p95) << op;
    EXPECT_LE(p95, p99) << op;
    EXPECT_LE(p99, p999) << op;
    EXPECT_LE(p999, max + 1e-9) << op;
  }

  // Structural keys of the schema.
  EXPECT_NE(json.find("\"levels\":["), std::string::npos);
  EXPECT_NE(json.find("\"flush\":{"), std::string::npos);
  EXPECT_NE(json.find("\"write_amp\":"), std::string::npos);
  EXPECT_NE(json.find("\"stall\":{"), std::string::npos);

  // With a 256KB buffer and ~2MB+ ingested, flushes must have happened and
  // the internal-phase histograms must have fired.
  EXPECT_GE(NumberAt(json, "\"flush\":{", "count"), 1.0);
  EXPECT_GE(NumberAt(json, "\"mem_insert\":{", "count"), 1.0);
  EXPECT_GE(NumberAt(json, "\"wal_append\":{", "count"), 1.0);
}

TEST_P(StatsJsonTest, MetricsOffZeroesLatencySeries) {
  Options options;
  options.latency_metrics = false;
  std::unique_ptr<DB> db = OpenFresh(options);
  WriteOptions wo;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(wo, "k" + std::to_string(i), "v").ok());
  }
  std::string json = db->GetProperty("clsm.stats.json");
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  // Counters still tick; histograms must not.
  EXPECT_EQ(NumberAt(json, "\"counters\"", "puts_total"), 100);
  EXPECT_EQ(NumberAt(json, "\"put\":{", "count"), 0);
}

TEST_P(StatsJsonTest, IteratorAndRmwSeriesRecord) {
  Options options;
  std::unique_ptr<DB> db = OpenFresh(options);
  WriteOptions wo;
  for (int i = 0; i < 200; i++) {
    char key[16];
    snprintf(key, sizeof(key), "k%04d", i);
    ASSERT_TRUE(db->Put(wo, key, "v").ok());
  }
  {
    std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
    int n = 0;
    for (it->SeekToFirst(); it->Valid(); it->Next()) {
      n++;
    }
    EXPECT_EQ(n, 200);
  }
  ASSERT_TRUE(db->ReadModifyWrite(wo, "k0000", [](const std::optional<Slice>&) {
                  return std::optional<std::string>("merged");
                }).ok());

  std::string json = db->GetProperty("clsm.stats.json");
  // The iterator wrapper records one kIterNext sample per Next/Seek.
  EXPECT_GE(NumberAt(json, "\"iter_next\":{", "count"), 200.0);
  EXPECT_GE(NumberAt(json, "\"rmw\":{", "count"), 1.0);
  EXPECT_EQ(NumberAt(json, "\"counters\"", "rmw_total"), 1);
}

// The output fdatasync of flushes and compactions is timed apart from the
// stage's wall time, as "sync_micros" beside "micros" in the flush group
// and in every levels[] entry. "subcompactions" counts the key ranges
// merged: the baselines merge unsplit, one range per non-trivial job.
TEST_P(StatsJsonTest, FlushAndCompactionSyncTimeExported) {
  Options options;
  options.write_buffer_size = 64 * 1024;
  options.l0_compaction_trigger = 2;
  std::unique_ptr<DB> db = OpenFresh(options);
  WriteOptions wo;
  const std::string value(200, 'v');
  // Scattered keys, so level-0 files overlap and compactions rewrite them
  // rather than moving files down.
  for (uint64_t i = 0; i < 6000; i++) {
    char key[32];
    snprintf(key, sizeof(key), "k%08llu",
             static_cast<unsigned long long>((i * 2654435761u) % 100000));
    ASSERT_TRUE(db->Put(wo, key, value).ok());
  }
  db->WaitForMaintenance();

  std::string json = db->GetProperty("clsm.stats.json");
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  ASSERT_GE(NumberAt(json, "\"flush\":{", "count"), 1.0) << json;
  const double flush_sync = NumberAt(json, "\"flush\":{", "sync_micros");
  EXPECT_GT(flush_sync, 0.0) << json;
  EXPECT_LE(flush_sync, NumberAt(json, "\"flush\":{", "micros"));

  double compaction_written = 0;
  double compaction_sync = 0;
  for (int level = 0; level < kNumLevels; level++) {
    const std::string anchor = "\"level\":" + std::to_string(level) + ",";
    const double sync = NumberAt(json, anchor, "sync_micros");
    ASSERT_GE(sync, 0.0) << "level " << level << ": " << json;
    EXPECT_LE(sync, NumberAt(json, anchor, "micros")) << "level " << level;
    const double merges =
        NumberAt(json, anchor, "compactions") - NumberAt(json, anchor, "trivial_moves");
    const double ranges = NumberAt(json, anchor, "subcompactions");
    if (GetParam() == DbVariant::kClsm) {
      EXPECT_GE(ranges, merges) << "level " << level;
    } else {
      EXPECT_EQ(ranges, merges) << "level " << level;
    }
    compaction_written += NumberAt(json, anchor, "bytes_written");
    compaction_sync += sync;
  }
  ASSERT_GT(compaction_written, 0.0) << json;
  EXPECT_GT(compaction_sync, 0.0) << json;
}

// The keys of the object that opens at `"group":{` (a flat object of
// scalars), sorted.
std::vector<std::string> GroupKeys(const std::string& json, const std::string& group) {
  std::vector<std::string> keys;
  size_t at = json.find("\"" + group + "\":{");
  if (at == std::string::npos) {
    return keys;
  }
  const size_t end = json.find('}', at);
  at += group.size() + 4;
  while (at < end) {
    const size_t close = json.find('"', at + 1);
    keys.push_back(json.substr(at + 1, close - at - 1));
    at = json.find(',', close);
    if (at == std::string::npos || at > end) {
      break;
    }
    at++;
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

// Golden key sets of the counters and stall groups, the same for cLSM and
// every baseline. perfbench/run.py and the CI schema checks read these
// keys (puts_total, gets_total, gets_from_disk, rmw_total, rmw_conflicts,
// getts_rollbacks, ...); adding a counter means adding it here.
TEST_P(StatsJsonTest, CounterAndStallKeySetsAreGolden) {
  std::unique_ptr<DB> db = OpenFresh(Options());
  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  const std::string json = db->GetProperty("clsm.stats.json");
  std::vector<std::string> counters = {
      "batches_total",     "compactions",      "deletes_total",  "flushes",
      "gets_from_disk",    "gets_from_imm",    "gets_from_mem",  "gets_total",
      "getts_rollbacks",   "iterators_created", "memtable_rolls", "puts_total",
      "rmw_conflicts",     "rmw_noop",         "rmw_total",      "slow_ops_dropped",
      "slow_ops_reported", "slow_ops_total",   "snapshots_acquired", "throttle_waits"};
  std::sort(counters.begin(), counters.end());
  EXPECT_EQ(GroupKeys(json, "counters"), counters) << json;
  const std::vector<std::string> stall = {"rate_limit_delay_micros", "rate_limit_waits",
                                          "stall_micros"};
  EXPECT_EQ(GroupKeys(json, "stall"), stall) << json;
}

// A KvService attaches its request stats late; every variant exports them
// as the "rpc" block and zeroes them with the rest of the interval state.
TEST_P(StatsJsonTest, AttachedRpcStatsExportAndReset) {
  Options options;
  std::unique_ptr<DB> db = OpenFresh(options);
  auto rpc = std::make_shared<RpcServerStats>();
  db->AttachRpcObservability(rpc, nullptr);
  rpc->RecordRequest(RpcOp::kGet, RpcStatusClass::kOk, 1000, 20, 300);

  std::string json = db->GetProperty("clsm.stats.json");
  JsonChecker checker(json);
  EXPECT_TRUE(checker.Valid()) << json;
  ASSERT_NE(json.find("\"rpc\":{"), std::string::npos) << json;
  EXPECT_EQ(NumberAt(json, "\"rpc\":{", "requests_total"), 1);

  db->ResetStats();
  EXPECT_EQ(rpc->TotalRequests(), 0u);
  json = db->GetProperty("clsm.stats.json");
  EXPECT_EQ(NumberAt(json, "\"rpc\":{", "requests_total"), 0);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, StatsJsonTest,
                         ::testing::Values(DbVariant::kClsm, DbVariant::kLevelDb,
                                           DbVariant::kRocksDb, DbVariant::kHyperLevelDb),
                         [](const ::testing::TestParamInfo<DbVariant>& info) {
                           return std::string(VariantName(info.param));
                         });

// ---------------------------------------------------------------------------
// StatsReporter
// ---------------------------------------------------------------------------

TEST(StatsReporterTest, DumpsPeriodicallyAndStops) {
  StatsReporter reporter("test", 1, [] { return std::string("{\"counters\":{\"puts_total\":123}}"); });
  // Periods are seconds; wait out at least one.
  for (int i = 0; i < 50 && reporter.NumDumps() == 0; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(reporter.NumDumps(), 1u);
  reporter.Stop();
  uint64_t dumps = reporter.NumDumps();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(reporter.NumDumps(), dumps);  // no dumps after Stop
}

TEST(StatsReporterTest, DbIntegrationStartsAndStops) {
  ScratchDir dir("reporter");
  Options options;
  options.stats_dump_period_sec = 1;
  DB* raw = nullptr;
  ASSERT_TRUE(OpenDb(DbVariant::kClsm, options, dir.path() + "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);
  // Write across at least one dump, then close mid-interval: destruction
  // with a live reporter must neither hang nor race the reporter thread's
  // render of the stats it reads — TSan covers this configuration.
  WriteOptions wo;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
  for (int i = 0; std::chrono::steady_clock::now() < deadline; i++) {
    ASSERT_TRUE(db->Put(wo, "k" + std::to_string(i), "v").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  db.reset();
}

}  // namespace
}  // namespace clsm
