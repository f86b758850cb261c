// Tests of slow-op structured logging (src/obs/slow_op.h): operations
// crossing Options::slow_op_threshold_micros emit one OnSlowOperation
// record — driven here by a FaultInjectionEnv sync delay standing in for a
// degraded device — carrying latency, PerfContext phase detail and store
// state; dispatch is bounded by slow_op_max_per_sec; the bundled JSONL
// sink renders one line per record.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/baselines/factory.h"
#include "src/obs/slow_op.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

class SlowOpCollector : public EventListener {
 public:
  void OnSlowOperation(const SlowOpInfo& info) override {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(info);
  }

  std::vector<SlowOpInfo> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  size_t Count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<SlowOpInfo> records_;
};

TEST(SlowOpRateLimiterTest, FixedWindowBound) {
  SlowOpRateLimiter limiter(2);
  uint64_t t = 5'000'000;  // arbitrary window
  EXPECT_TRUE(limiter.Admit(t));
  EXPECT_TRUE(limiter.Admit(t + 1));
  EXPECT_FALSE(limiter.Admit(t + 2));
  EXPECT_FALSE(limiter.Admit(t + 3));
  EXPECT_EQ(limiter.suppressed(), 2u);
  // Next one-second window: the budget refills.
  EXPECT_TRUE(limiter.Admit(t + 1'000'000));
  EXPECT_TRUE(limiter.Admit(t + 1'000'001));
  EXPECT_FALSE(limiter.Admit(t + 1'000'002));
  EXPECT_EQ(limiter.suppressed(), 3u);
}

TEST(SlowOpRateLimiterTest, ZeroMeansSuppressEverything) {
  SlowOpRateLimiter limiter(0);
  EXPECT_FALSE(limiter.Admit(1));
  EXPECT_FALSE(limiter.Admit(2'000'000));
  EXPECT_EQ(limiter.suppressed(), 2u);
}

TEST(SlowOpKeyHashTest, PrefixOnlyAndStable) {
  const uint64_t h = SlowOpKeyPrefixHash(Slice("abcdefgh"));
  EXPECT_EQ(h, SlowOpKeyPrefixHash(Slice("abcdefgh-long-suffix-differs")));
  EXPECT_NE(h, SlowOpKeyPrefixHash(Slice("abcdefgX")));
  EXPECT_NE(SlowOpKeyPrefixHash(Slice("")), 0u);  // FNV offset basis
}

class SlowOpDbTest : public ::testing::TestWithParam<DbVariant> {
 protected:
  SlowOpDbTest() : dir_("slowop"), fault_env_(Env::Default()) {}

  std::unique_ptr<DB> OpenFresh(Options options, const std::string& tag) {
    options.env = &fault_env_;
    DB* raw = nullptr;
    Status s = OpenDb(GetParam(), options, dir_.path() + "/" + tag, &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(raw);
  }

  ScratchDir dir_;
  FaultInjectionEnv fault_env_;
};

TEST_P(SlowOpDbTest, DegradedSyncDeviceFiresStructuredRecords) {
  auto collector = std::make_shared<SlowOpCollector>();
  const std::string jsonl = dir_.path() + "/slow.jsonl";
  Options options;
  options.slow_op_threshold_micros = 1000;
  options.slow_op_max_per_sec = 1000;  // effectively unbounded here
  options.perf_level = PerfLevel::kEnableTimers;
  options.listeners.push_back(collector);
  options.listeners.push_back(std::make_shared<SlowOpJsonlSink>(jsonl, &fault_env_));
  std::unique_ptr<DB> db = OpenFresh(options, "degraded");

  // Writes are fast on a healthy device: nothing crosses 1ms.
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "healthy-key", "v").ok());

  // A degraded device adds 5ms per fsync; synchronous puts now pay it
  // inside the op and must self-report.
  fault_env_.DelaySyncs(5000);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  constexpr int kSlowPuts = 5;
  for (int i = 0; i < kSlowPuts; i++) {
    ASSERT_TRUE(db->Put(sync_wo, "slow-key-" + std::to_string(i), "v").ok());
  }
  // A synchronous RMW pays the same fsync and is one slow kRmw record.
  constexpr int kSlowRmws = 3;
  for (int i = 0; i < kSlowRmws; i++) {
    ASSERT_TRUE(db->ReadModifyWrite(sync_wo, "slow-rmw-" + std::to_string(i),
                                    [](const std::optional<Slice>&) {
                                      return std::optional<std::string>("v");
                                    })
                    .ok());
  }
  fault_env_.Heal();

  std::vector<SlowOpInfo> records = collector->Snapshot();
  ASSERT_GE(records.size(), static_cast<size_t>(kSlowPuts + kSlowRmws));
  size_t puts = 0;
  size_t rmws = 0;
  for (const SlowOpInfo& r : records) {
    EXPECT_TRUE(r.op == DbOpType::kPut || r.op == DbOpType::kRmw) << DbOpTypeName(r.op);
    (r.op == DbOpType::kPut ? puts : rmws)++;
    EXPECT_GE(r.latency_micros, 1000u);
    EXPECT_NE(r.key_prefix_hash, 0u);
    EXPECT_GE(r.l0_files, 0);
    // At kEnableTimers the snapshot explains the outlier: the WAL phase
    // (which contains the delayed sync wait) dominates.
    EXPECT_EQ(r.perf.level, PerfLevel::kEnableTimers);
    EXPECT_GE(r.perf.total_nanos, 1'000'000u);
    if (r.op == DbOpType::kPut) {
      EXPECT_GT(r.perf.wal_append_nanos, 0u);
    }
  }
  EXPECT_GE(puts, static_cast<size_t>(kSlowPuts));
  EXPECT_EQ(rmws, static_cast<size_t>(kSlowRmws));

  // Counters and the JSONL sink agree with the listener.
  const std::string stats = db->GetProperty("clsm.stats.json");
  EXPECT_NE(stats.find("\"slow_ops_total\""), std::string::npos);
  EXPECT_EQ(stats.find("\"slow_ops_total\":0,"), std::string::npos) << stats;
  db.reset();  // close the sink's file before reading it back
  std::ifstream in(jsonl);
  ASSERT_TRUE(in.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    lines++;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_TRUE(line.find("\"op\":\"put\"") != std::string::npos ||
                line.find("\"op\":\"rmw\"") != std::string::npos)
        << line;
    EXPECT_NE(line.find("\"latency_micros\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"key_prefix_hash\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"perf\""), std::string::npos) << line;
  }
  EXPECT_EQ(lines, records.size());
}

// Key of slow put i: its first 8 bytes encode i, so the key_prefix_hash of
// a record names the put behind it.
std::string SlowPutKey(int i) { return BigEndianKey(i) + "-slow"; }

// The index of the put behind each record: the i < puts whose key's prefix
// hash it carries, or -1.
std::vector<int> PutIndexOfRecords(const std::vector<SlowOpInfo>& records, int puts) {
  std::map<uint64_t, int> put_of_hash;
  for (int i = 0; i < puts; i++) {
    put_of_hash[SlowOpKeyPrefixHash(SlowPutKey(i))] = i;
  }
  EXPECT_EQ(static_cast<size_t>(puts), put_of_hash.size()) << "prefix hashes collide";
  std::vector<int> put_index;
  for (const SlowOpInfo& r : records) {
    auto it = put_of_hash.find(r.key_prefix_hash);
    put_index.push_back(it == put_of_hash.end() ? -1 : it->second);
  }
  return put_index;
}

TEST_P(SlowOpDbTest, RateBoundSuppressesButCounts) {
  auto collector = std::make_shared<SlowOpCollector>();
  Options options;
  options.slow_op_threshold_micros = 500;
  options.slow_op_max_per_sec = 1;  // one report per second, period
  options.listeners.push_back(collector);
  std::unique_ptr<DB> db = OpenFresh(options, "bounded");

  fault_env_.DelaySyncs(1000);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  constexpr int kSlowPuts = 30;
  for (int i = 0; i < kSlowPuts; i++) {
    ASSERT_TRUE(db->Put(sync_wo, SlowPutKey(i), "v").ok());
  }
  fault_env_.Heal();

  // 30 slow ops at >= 1ms each span at most a few one-second windows:
  // reports are bounded by the window count, far under the slow-op count.
  const size_t reported = collector->Count();
  EXPECT_GE(reported, 1u);
  EXPECT_LE(reported, 10u) << "rate bound failed to hold";
  EXPECT_LT(reported, static_cast<size_t>(kSlowPuts));
  // Every slow op is counted even when its record is suppressed; the two
  // counters expose the gap the bound created.
  const std::string stats = db->GetProperty("clsm.stats.json");
  char expect_total[64];
  snprintf(expect_total, sizeof(expect_total), "\"slow_ops_total\":%d", kSlowPuts);
  EXPECT_NE(stats.find(expect_total), std::string::npos) << stats;
  char expect_reported[64];
  snprintf(expect_reported, sizeof(expect_reported), "\"slow_ops_reported\":%zu", reported);
  EXPECT_NE(stats.find(expect_reported), std::string::npos) << stats;
  // Puts are reported in order and each record carries the cumulative
  // suppressed count: before put p, the r-th record, p puts ran and r were
  // reported, so it carries exactly p - r, wherever the window edges fell.
  const std::vector<SlowOpInfo> records = collector->Snapshot();
  const std::vector<int> put_index = PutIndexOfRecords(records, kSlowPuts);
  ASSERT_FALSE(records.empty());
  ASSERT_EQ(0, put_index.front()) << "the first slow put opens a window";
  for (size_t r = 0; r < records.size(); r++) {
    ASSERT_GE(put_index[r], static_cast<int>(r)) << r;
    EXPECT_EQ(static_cast<uint64_t>(put_index[r]) - r, records[r].suppressed)
        << "record " << r << " of put " << put_index[r];
  }
}

// A window edge between the first two slow puts: each opens its own window
// and is reported before anything was suppressed, so the last of the two
// records carries suppressed 0 (a check that the last record of two carries
// a nonzero count fails on this schedule); the other 28 puts fall in the
// second window and are suppressed.
TEST_P(SlowOpDbTest, RateBoundWindowEdgeBetweenFirstTwoPuts) {
  auto collector = std::make_shared<SlowOpCollector>();
  Options options;
  options.slow_op_threshold_micros = 500;
  options.slow_op_max_per_sec = 1;
  options.listeners.push_back(collector);
  std::unique_ptr<DB> db = OpenFresh(options, "edge");

  constexpr uint64_t kWindow = 1'000'000;  // the bound's window, microseconds
  constexpr uint64_t kEdge = 1'700'000'000 * kWindow;
  fault_env_.DelaySyncs(1000);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  constexpr int kSlowPuts = 30;
  fault_env_.SetNowMicros(kEdge - 1);  // the last microsecond of a window
  ASSERT_TRUE(db->Put(sync_wo, SlowPutKey(0), "v").ok());
  fault_env_.SetNowMicros(kEdge);
  for (int i = 1; i < kSlowPuts; i++) {
    ASSERT_TRUE(db->Put(sync_wo, SlowPutKey(i), "v").ok());
  }
  fault_env_.Heal();
  fault_env_.SetNowMicros(0);

  const std::vector<SlowOpInfo> records = collector->Snapshot();
  ASSERT_EQ(2u, records.size());
  EXPECT_EQ((std::vector<int>{0, 1}), PutIndexOfRecords(records, kSlowPuts));
  EXPECT_EQ(0u, records[0].suppressed);
  EXPECT_EQ(0u, records[1].suppressed);
  const std::string stats = db->GetProperty("clsm.stats.json");
  EXPECT_NE(stats.find("\"slow_ops_total\":30"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"slow_ops_reported\":2"), std::string::npos) << stats;
}

TEST_P(SlowOpDbTest, ThresholdZeroDisablesDispatch) {
  auto collector = std::make_shared<SlowOpCollector>();
  Options options;
  options.slow_op_threshold_micros = 0;  // default: off
  options.listeners.push_back(collector);
  std::unique_ptr<DB> db = OpenFresh(options, "off");

  fault_env_.DelaySyncs(2000);
  WriteOptions sync_wo;
  sync_wo.sync = true;
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(db->Put(sync_wo, "k" + std::to_string(i), "v").ok());
  }
  fault_env_.Heal();
  EXPECT_EQ(collector->Count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Variants, SlowOpDbTest, ::testing::ValuesIn(AllVariants()),
                         [](const ::testing::TestParamInfo<DbVariant>& info) {
                           std::string name = VariantName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace clsm
