// Tests of the periodic StatsReporter (src/obs/stats_reporter.h): the
// dump actually fires, period 0 spawns nothing, Stop() returns promptly
// mid-interval. CountersFromStatsJson — the one sampler behind both the
// reporter's interval line and `clsm_dump --watch` — is checked against
// live documents: a single DB, a ShardedClsm rollup, and a rollup with
// RpcServerStats attached. Also covers the DB-level reset surface:
// DB::ResetStats and the "clsm.stats.reset" property.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/factory.h"
#include "src/obs/rpc_stats.h"
#include "src/obs/stats_reporter.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

using Clock = std::chrono::steady_clock;

TEST(StatsReporterTest, PeriodicDumpFires) {
  std::atomic<uint64_t> renders{0};
  StatsReporter reporter("test", /*period_sec=*/1, [&] {
    renders++;
    return std::string("{}");
  });
  // One initial baseline render happens when the thread starts; the dump
  // itself lands after the first period. Poll generously (CI machines
  // stall).
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (reporter.NumDumps() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_GE(reporter.NumDumps(), 1u);
  reporter.Stop();
  EXPECT_GE(renders.load(), 2u);  // baseline + at least one interval
}

TEST(StatsReporterTest, PeriodZeroSpawnsNothing) {
  std::atomic<uint64_t> renders{0};
  {
    StatsReporter reporter("test", /*period_sec=*/0, [&] {
      renders++;
      return std::string("{}");
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(reporter.NumDumps(), 0u);
    reporter.Stop();  // must be a safe no-op
  }
  EXPECT_EQ(renders.load(), 0u) << "disabled reporter must not touch its callback";
}

TEST(StatsReporterTest, StopReturnsPromptlyMidInterval) {
  StatsReporter reporter("test", /*period_sec=*/600, [] { return std::string("{}"); });
  // Give the thread a moment to enter its interval wait, then interrupt.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto t0 = Clock::now();
  reporter.Stop();
  const auto elapsed = Clock::now() - t0;
  EXPECT_LT(elapsed, std::chrono::seconds(5)) << "Stop() must not wait out the interval";
  EXPECT_EQ(reporter.NumDumps(), 0u);
  reporter.Stop();  // idempotent
}

// ---------------------------------------------------------------------------
// CountersFromStatsJson against live clsm.stats.json documents.
// ---------------------------------------------------------------------------

// Every `"key":<uint>` in json[from, to), in document order.
std::vector<uint64_t> AllNumbers(const std::string& json, const std::string& key, size_t from = 0,
                                 size_t to = std::string::npos) {
  std::vector<uint64_t> out;
  const std::string needle = "\"" + key + "\":";
  for (size_t at = json.find(needle, from); at != std::string::npos && at < to;
       at = json.find(needle, at + 1)) {
    out.push_back(std::strtoull(json.c_str() + at + needle.size(), nullptr, 10));
  }
  return out;
}

uint64_t Sum(const std::vector<uint64_t>& v) {
  uint64_t n = 0;
  for (uint64_t x : v) {
    n += x;
  }
  return n;
}

// The first value of key at or after anchor (a group's opening).
uint64_t NumberAfter(const std::string& json, const std::string& anchor, const std::string& key) {
  const size_t from = json.find(anchor);
  EXPECT_NE(from, std::string::npos) << anchor;
  const std::vector<uint64_t> v = AllNumbers(json, key, from == std::string::npos ? 0 : from);
  return v.empty() ? ~0ull : v.front();
}

// Small buffers and a low level-1 budget so a few thousand puts flush and
// compact at several levels.
Options ChurnOptions() {
  Options options;
  options.write_buffer_size = 64 * 1024;
  options.l0_compaction_trigger = 2;
  options.level1_max_bytes = 128 * 1024;
  options.target_file_size = 64 * 1024;
  return options;
}

// Puts `puts` scattered keys with 200 B values, deletes the first
// `deletes`, reads the first `gets`, then drains maintenance.
void Churn(DB* db, int puts, int deletes, int gets) {
  const std::string value(200, 'v');
  std::string out;
  char key[32];
  for (int i = 0; i < puts; i++) {
    snprintf(key, sizeof(key), "k%08u", static_cast<unsigned>((i * 2654435761u) % 1000003));
    ASSERT_TRUE(db->Put(WriteOptions(), key, value).ok());
  }
  for (int i = 0; i < deletes; i++) {
    snprintf(key, sizeof(key), "k%08u", static_cast<unsigned>((i * 2654435761u) % 1000003));
    ASSERT_TRUE(db->Delete(WriteOptions(), key).ok());
  }
  for (int i = 0; i < gets; i++) {
    snprintf(key, sizeof(key), "k%08u", static_cast<unsigned>((i * 2654435761u) % 1000003));
    db->Get(ReadOptions(), key, &out);
  }
  db->WaitForMaintenance();
}

class CountersFromStatsJsonTest : public ::testing::TestWithParam<DbVariant> {};

TEST_P(CountersFromStatsJsonTest, SingleDbDocument) {
  ScratchDir dir("sampler");
  DB* raw = nullptr;
  ASSERT_TRUE(OpenDb(GetParam(), ChurnOptions(), dir.path() + "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);
  Churn(db.get(), 6000, 40, 300);

  const std::string json = db->GetProperty("clsm.stats.json");
  const ReporterCounters c = CountersFromStatsJson(json);
  EXPECT_EQ(c.writes, 6040u);
  EXPECT_EQ(c.gets, 300u);
  EXPECT_GE(c.flushes, 1u) << json;
  EXPECT_EQ(c.flushes, NumberAfter(json, "\"counters\":{", "flushes"));
  // The compaction total is the sum of the per-level counts, not any one
  // level's.
  const size_t levels = json.find("\"levels\":[");
  ASSERT_NE(levels, std::string::npos) << json;
  EXPECT_GE(c.compactions, 1u) << json;
  EXPECT_EQ(c.compactions, Sum(AllNumbers(json, "compactions", levels)));
  EXPECT_EQ(c.hard_stall_micros, NumberAfter(json, "\"stall\":{", "stall_micros"));
  EXPECT_EQ(c.rate_delay_micros, NumberAfter(json, "\"stall\":{", "rate_limit_delay_micros"));
  EXPECT_EQ(c.stall_micros, c.hard_stall_micros + c.rate_delay_micros);
  EXPECT_EQ(c.rpc_requests, 0u);
}

INSTANTIATE_TEST_SUITE_P(Variants, CountersFromStatsJsonTest,
                         ::testing::Values(DbVariant::kClsm, DbVariant::kLevelDb),
                         [](const ::testing::TestParamInfo<DbVariant>& info) {
                           return std::string(VariantName(info.param));
                         });

// The rollup document leads with the aggregated counters, so the sampler
// reads fleet totals, not shard 0's; an attached RpcServerStats renders
// once at the end, and its leading total is read rather than one opcode's
// requests_total.
TEST(CountersFromStatsJsonRollupTest, ShardedWithRpcStats) {
  constexpr int kShards = 4;
  ScratchDir dir("sampler-sharded");
  DB* raw = nullptr;
  ASSERT_TRUE(
      OpenShardedDb(DbVariant::kClsm, ChurnOptions(), dir.path() + "/db", kShards, &raw).ok());
  std::unique_ptr<DB> db(raw);
  Churn(db.get(), 12000, 40, 300);

  std::string json = db->GetProperty("clsm.stats.json");
  const size_t shards_at = json.find("\"shards\":[");
  ASSERT_NE(shards_at, std::string::npos) << json;
  ReporterCounters c = CountersFromStatsJson(json);
  EXPECT_EQ(c.writes, 12040u);
  EXPECT_EQ(c.gets, 300u);
  const std::vector<uint64_t> shard_puts = AllNumbers(json, "puts_total", shards_at);
  ASSERT_EQ(shard_puts.size(), static_cast<size_t>(kShards));
  EXPECT_LT(shard_puts[0], 12000u) << "the sampler must not read shard 0's counters";
  // Fleet totals: the rollup's compactions/flushes are the sums of every
  // shard's, and the compaction total also equals the rollup's levels.
  EXPECT_EQ(c.flushes, Sum(AllNumbers(json, "flushes", shards_at)));
  EXPECT_GE(c.compactions, 1u) << json;
  EXPECT_EQ(c.compactions, Sum(AllNumbers(json, "compactions", json.find("\"levels\":["),
                                          shards_at)));
  uint64_t shard_total = 0;
  for (size_t at = json.find("\"counters\":{", shards_at); at != std::string::npos;
       at = json.find("\"counters\":{", at + 1)) {
    shard_total += AllNumbers(json, "compactions", at).front();
  }
  EXPECT_EQ(c.compactions, shard_total);
  EXPECT_EQ(c.rpc_requests, 0u);

  auto rpc = std::make_shared<RpcServerStats>();
  db->AttachRpcObservability(rpc, nullptr);
  rpc->RecordRequest(RpcOp::kGet, RpcStatusClass::kOk, 1000, 20, 300);
  rpc->RecordRequest(RpcOp::kGet, RpcStatusClass::kNotFound, 1000, 20, 10);
  rpc->RecordRequest(RpcOp::kPut, RpcStatusClass::kOk, 1000, 300, 10);
  json = db->GetProperty("clsm.stats.json");
  const ReporterCounters with_rpc = CountersFromStatsJson(json);
  EXPECT_EQ(with_rpc.rpc_requests, 3u) << json;
  EXPECT_EQ(with_rpc.compactions, c.compactions);
  EXPECT_EQ(with_rpc.writes, c.writes);
}

// ---------------------------------------------------------------------------
// The DB-level reset surface (POST /control/stats/reset, clsm.stats.reset).
// ---------------------------------------------------------------------------

class ResetStatsTest : public ::testing::TestWithParam<DbVariant> {};

TEST_P(ResetStatsTest, ResetClearsCountersAndLatencies) {
  ScratchDir dir("reset");
  DB* raw = nullptr;
  ASSERT_TRUE(OpenDb(GetParam(), Options(), dir.path() + "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  std::string value;
  for (int i = 0; i < 25; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), "k" + std::to_string(i), "v").ok());
    db->Get(ReadOptions(), "k" + std::to_string(i), &value);
  }
  std::string stats = db->GetProperty("clsm.stats.json");
  EXPECT_NE(stats.find("\"puts_total\":25"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"gets_total\":25"), std::string::npos) << stats;

  db->ResetStats();
  stats = db->GetProperty("clsm.stats.json");
  EXPECT_NE(stats.find("\"puts_total\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"gets_total\":0"), std::string::npos) << stats;

  // Post-reset activity accumulates from zero — reset is not a latch.
  ASSERT_TRUE(db->Put(WriteOptions(), "after", "v").ok());
  stats = db->GetProperty("clsm.stats.json");
  EXPECT_NE(stats.find("\"puts_total\":1"), std::string::npos) << stats;
}

TEST_P(ResetStatsTest, ResetPropertyIsAnAlias) {
  ScratchDir dir("resetprop");
  DB* raw = nullptr;
  ASSERT_TRUE(OpenDb(GetParam(), Options(), dir.path() + "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  ASSERT_TRUE(db->Put(WriteOptions(), "k", "v").ok());
  EXPECT_EQ(db->GetProperty("clsm.stats.reset"), "OK");
  const std::string stats = db->GetProperty("clsm.stats.json");
  EXPECT_NE(stats.find("\"puts_total\":0"), std::string::npos) << stats;
}

INSTANTIATE_TEST_SUITE_P(Variants, ResetStatsTest,
                         ::testing::Values(DbVariant::kClsm, DbVariant::kLevelDb),
                         [](const ::testing::TestParamInfo<DbVariant>& info) {
                           return std::string(VariantName(info.param));
                         });

}  // namespace
}  // namespace clsm
