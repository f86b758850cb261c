// ShardedClsm: hash routing, merged iteration, RMW routing, reopen, the
// cross-shard stats rollup, and — the property that distinguishes this
// layer from naive partitioning — the atomic snapshot cut: concurrent
// multi-shard writers plus snapshot scans must never observe a torn cut,
// under TSan too (the CI tsan job runs this binary). Every case runs with
// cLSM members and with LevelDB members: the router is variant-agnostic.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/factory.h"
#include "src/core/write_batch.h"
#include "src/server/http_client.h"
#include "src/shard/sharded_clsm.h"
#include "src/util/fault_env.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

// First unsigned integer following `"name":` (0 if absent).
uint64_t JsonU64(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

// First string value following `"name":` ("" if absent).
std::string JsonText(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":\"";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return "";
  }
  pos += needle.size();
  return json.substr(pos, json.find('"', pos) - pos);
}

class ShardedTest : public ::testing::TestWithParam<DbVariant> {
 protected:
  ShardedTest() : dir_("sharded") { options_.write_buffer_size = 256 * 1024; }

  std::unique_ptr<DB> Open(int shards, const std::string& name = "db") {
    DB* raw = nullptr;
    Status s = OpenShardedDb(GetParam(), options_, dir_.path() + "/" + name, shards, &raw);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return std::unique_ptr<DB>(raw);
  }

  static ShardedClsm* AsSharded(DB* db) { return static_cast<ShardedClsm*>(db); }

  // Two keys guaranteed to live on different shards (probes the router).
  static std::pair<std::string, std::string> CrossShardPair(ShardedClsm* db, int salt) {
    const std::string a = "pair-a-" + std::to_string(salt);
    for (int i = 0;; i++) {
      const std::string b = "pair-b-" + std::to_string(salt) + "-" + std::to_string(i);
      if (db->ShardFor(b) != db->ShardFor(a)) {
        return {a, b};
      }
    }
  }

  ScratchDir dir_;
  Options options_;
};

TEST_P(ShardedTest, RoutesAcrossShardsAndReadsBack) {
  auto db = Open(4);
  EXPECT_EQ("4", db->GetProperty("clsm.shard-count"));
  EXPECT_EQ(std::string("sharded-") + VariantName(GetParam()), db->Name());

  WriteOptions wo;
  ReadOptions ro;
  std::string v;
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(wo, "key" + std::to_string(i), "v" + std::to_string(i)).ok());
  }
  for (int i = 0; i < 2000; i += 17) {
    ASSERT_TRUE(db->Get(ro, "key" + std::to_string(i), &v).ok());
    EXPECT_EQ("v" + std::to_string(i), v);
  }
  ASSERT_TRUE(db->Delete(wo, "key100").ok());
  EXPECT_TRUE(db->Get(ro, "key100", &v).IsNotFound());

  // The hash must actually spread the keys: every shard holds some.
  ShardedClsm* sharded = AsSharded(db.get());
  std::set<size_t> used;
  for (int i = 0; i < 2000; i++) {
    used.insert(sharded->ShardFor("key" + std::to_string(i)));
  }
  EXPECT_EQ(4u, used.size());
}

TEST_P(ShardedTest, MergedIteratorYieldsGlobalOrder) {
  auto db = Open(3);
  WriteOptions wo;
  std::set<std::string> keys;
  for (int i = 0; i < 1000; i++) {
    std::string k = "scan" + std::to_string(i * 7 % 1000);
    keys.insert(k);
    ASSERT_TRUE(db->Put(wo, k, "v").ok());
  }
  std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
  it->SeekToFirst();
  for (const std::string& k : keys) {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(k, it->key().ToString());
    it->Next();
  }
  EXPECT_FALSE(it->Valid());

  // Range seek lands mid-stream in global order.
  it->Seek("scan5");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(*keys.lower_bound("scan5"), it->key().ToString());
}

TEST_P(ShardedTest, SnapshotPinsAllShards) {
  auto db = Open(4);
  ShardedClsm* sharded = AsSharded(db.get());
  auto [a, b] = CrossShardPair(sharded, 0);
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, a, "old-a").ok());
  ASSERT_TRUE(db->Put(wo, b, "old-b").ok());

  const Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put(wo, a, "new-a").ok());
  ASSERT_TRUE(db->Put(wo, b, "new-b").ok());

  ReadOptions rs;
  rs.snapshot = snap;
  std::string v;
  ASSERT_TRUE(db->Get(rs, a, &v).ok());
  EXPECT_EQ("old-a", v);
  ASSERT_TRUE(db->Get(rs, b, &v).ok());
  EXPECT_EQ("old-b", v);

  // An iterator over the explicit snapshot sees the pinned versions too.
  std::unique_ptr<Iterator> it(db->NewIterator(rs));
  it->Seek(a);
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ("old-a", it->value().ToString());
  db->ReleaseSnapshot(snap);

  ASSERT_TRUE(db->Get(ReadOptions(), a, &v).ok());
  EXPECT_EQ("new-a", v);
}

// The tentpole invariant. Writers publish ordered pairs across shard
// boundaries: first A = i, then B = i (different shards). Because writes
// hold the cut lock shared and GetSnapshot takes it exclusively, a write
// either completes before a cut or starts after it — so any snapshot that
// sees B = i must also see A >= i. The old sequential per-shard snapshot
// collection could cut between the two puts AND interleave with each one,
// tearing the order. Zero tolerance here; TSan must be clean.
TEST_P(ShardedTest, SnapshotCutIsAtomicAcrossShards) {
  auto db = Open(4);
  ShardedClsm* sharded = AsSharded(db.get());
  constexpr int kWriters = 4;
  constexpr int kRoundsPerWriter = 4000;

  std::vector<std::pair<std::string, std::string>> pairs;
  for (int w = 0; w < kWriters; w++) {
    pairs.push_back(CrossShardPair(sharded, w));
  }
  WriteOptions wo;
  for (auto& [a, b] : pairs) {
    ASSERT_TRUE(db->Put(wo, a, "0").ok());
    ASSERT_TRUE(db->Put(wo, b, "0").ok());
  }

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; w++) {
    writers.emplace_back([&, w] {
      WriteOptions wopt;
      for (int i = 1; i <= kRoundsPerWriter && !stop.load(std::memory_order_relaxed); i++) {
        ASSERT_TRUE(db->Put(wopt, pairs[w].first, std::to_string(i)).ok());
        ASSERT_TRUE(db->Put(wopt, pairs[w].second, std::to_string(i)).ok());
      }
    });
  }

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; r++) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Snapshot* snap = db->GetSnapshot();
        ReadOptions rs;
        rs.snapshot = snap;
        for (auto& [a, b] : pairs) {
          std::string va, vb;
          ASSERT_TRUE(db->Get(rs, a, &va).ok());
          ASSERT_TRUE(db->Get(rs, b, &vb).ok());
          if (std::stoi(vb) > std::stoi(va)) {
            torn.fetch_add(1);
          }
        }
        // The same invariant through the merged iterator (which takes its
        // own composite cut when no snapshot is given).
        std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
        for (auto& [a, b] : pairs) {
          std::string va, vb;
          it->Seek(a);
          ASSERT_TRUE(it->Valid() && it->key() == Slice(a));
          va = it->value().ToString();
          it->Seek(b);
          ASSERT_TRUE(it->Valid() && it->key() == Slice(b));
          vb = it->value().ToString();
          if (std::stoi(vb) > std::stoi(va)) {
            torn.fetch_add(1);
          }
        }
        db->ReleaseSnapshot(snap);
      }
    });
  }

  for (auto& w : writers) {
    w.join();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(0, torn.load());
}

// A batch spanning shards commits atomically with respect to cuts: the
// whole multi-shard Write holds the cut lock shared, so a snapshot sees
// either none or all of it.
TEST_P(ShardedTest, CrossShardBatchesAreAtomic) {
  auto db = Open(4);
  ShardedClsm* sharded = AsSharded(db.get());
  auto [a, b] = CrossShardPair(sharded, 7);
  WriteOptions wo;
  {
    WriteBatch init;
    init.Put(a, "0");
    init.Put(b, "0");
    ASSERT_TRUE(db->Write(wo, &init).ok());
  }

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 1; i < 20000 && !stop.load(std::memory_order_relaxed); i++) {
      WriteBatch batch;
      batch.Put(a, std::to_string(i));
      batch.Put(b, std::to_string(i));
      db->Write(wo, &batch);
    }
  });
  int torn = 0;
  for (int round = 0; round < 300; round++) {
    const Snapshot* snap = db->GetSnapshot();
    ReadOptions rs;
    rs.snapshot = snap;
    std::string va, vb;
    if (db->Get(rs, a, &va).ok() && db->Get(rs, b, &vb).ok() && va != vb) {
      torn++;
    }
    db->ReleaseSnapshot(snap);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_EQ(0, torn);
}

// Read-modify-write routes to the key's owning member: concurrent
// increments of counters spread over every shard never lose an update.
TEST_P(ShardedTest, RmwRoutesToOwningShard) {
  auto db = Open(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; t++) {
    threads.emplace_back([&] {
      WriteOptions wo;
      for (int i = 0; i < 500; i++) {
        ASSERT_TRUE(db->ReadModifyWrite(wo, "ctr" + std::to_string(i % 50),
                                        [](const std::optional<Slice>& cur)
                                            -> std::optional<std::string> {
                                          int v = cur ? std::stoi(cur->ToString()) : 0;
                                          return std::to_string(v + 1);
                                        })
                        .ok());
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  ReadOptions ro;
  std::string v;
  int total = 0;
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(db->Get(ro, "ctr" + std::to_string(i), &v).ok());
    total += std::stoi(v);
  }
  EXPECT_EQ(4 * 500, total);
}

TEST_P(ShardedTest, StatsRollupSumsShards) {
  auto db = Open(3);
  WriteOptions wo;
  ReadOptions ro;
  std::string v;
  for (int i = 0; i < 900; i++) {
    ASSERT_TRUE(db->Put(wo, "k" + std::to_string(i), "v").ok());
  }
  for (int i = 0; i < 90; i++) {
    db->Get(ro, "k" + std::to_string(i), &v);
  }

  const std::string json = db->GetProperty("clsm.stats.json");
  EXPECT_EQ(3u, JsonU64(json, "shard_count")) << json.substr(0, 200);
  // The rollup block aggregates the members: puts across all shards sum to
  // exactly what was written.
  EXPECT_EQ(900u, JsonU64(json, "puts_total")) << json.substr(0, 1000);
  EXPECT_EQ(90u, JsonU64(json, "gets_total"));
  // The per-shard breakdown rides along and its members sum to the rollup.
  size_t shards_pos = json.find("\"shards\":[");
  ASSERT_NE(std::string::npos, shards_pos);
  uint64_t sum = 0;
  size_t pos = shards_pos;
  while ((pos = json.find("\"puts_total\":", pos)) != std::string::npos) {
    sum += std::strtoull(json.c_str() + pos + strlen("\"puts_total\":"), nullptr, 10);
    pos++;
  }
  EXPECT_EQ(900u, sum);

  // ResetStats fans out to every member.
  db->ResetStats();
  EXPECT_EQ(0u, JsonU64(db->GetProperty("clsm.stats.json"), "puts_total"));
}

// errors.bg_severity_code is a ladder position (0 none .. 3 fatal), not a
// quantity: the rollup reports the worst member's code, as /health does,
// where a sum would leave the ladder. The bg_severity text reads "mixed"
// while members disagree and the common value once they agree.
TEST_P(ShardedTest, StatsRollupTakesWorstBackgroundSeverity) {
  // One fault env per member, so each injected failure lands on a chosen
  // shard. Declared before the DB, which runs on them until destroyed.
  FaultInjectionEnv envs[2] = {FaultInjectionEnv(Env::Default()),
                               FaultInjectionEnv(Env::Default())};
  ShardedOptions sopt;
  sopt.shards = 2;
  DB* raw = nullptr;
  ASSERT_TRUE(ShardedClsm::Open(
                  options_, sopt, dir_.path() + "/bgsev",
                  [&envs](const Options& o, const std::string& d, DB** out) {
                    Options member = o;
                    member.env = &envs[d.back() - '0'];  // dir ends in the shard index
                    return OpenDb(GetParam(), member, d, out);
                  },
                  &raw)
                  .ok());
  std::unique_ptr<DB> db(raw);
  ShardedClsm* sharded = AsSharded(db.get());
  WriteOptions wo;

  // Arms one Sync failure on member s and churns writes routed to it until
  // the flush boundary hits the failure and the member latches an error.
  auto latch = [&](int s) {
    DB* member = sharded->shard(s);
    envs[s].FailSyncs(1);
    for (int i = 0; i < 200000 && member->GetProperty("clsm.background-error") == "OK"; i++) {
      const std::string key = "churn" + std::to_string(i);
      if (sharded->ShardFor(key) == static_cast<size_t>(s) &&
          !db->Put(wo, key, std::string(64, 'c')).ok()) {
        break;
      }
    }
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (member->GetProperty("clsm.background-error") == "OK" &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_NE("OK", member->GetProperty("clsm.background-error"));
  };
  auto member_code = [&](int s) {
    return JsonU64(sharded->shard(s)->GetProperty("clsm.stats.json"), "bg_severity_code");
  };

  // The rollup document comes first in the sharded stats JSON, so the
  // first match of each field is the rollup's.
  std::string json = db->GetProperty("clsm.stats.json");
  EXPECT_EQ(0u, JsonU64(json, "bg_severity_code"));
  EXPECT_EQ("none", JsonText(json, "bg_severity"));

  latch(0);
  ASSERT_GE(member_code(0), 1u);
  EXPECT_EQ(0u, member_code(1));
  json = db->GetProperty("clsm.stats.json");
  EXPECT_EQ(member_code(0), JsonU64(json, "bg_severity_code"));
  EXPECT_EQ("mixed", JsonText(json, "bg_severity"));

  latch(1);
  ASSERT_GE(member_code(1), 1u);
  json = db->GetProperty("clsm.stats.json");
  EXPECT_EQ(std::max(member_code(0), member_code(1)), JsonU64(json, "bg_severity_code"));
  const std::string member0 = JsonText(sharded->shard(0)->GetProperty("clsm.stats.json"),
                                       "bg_severity");
  const std::string member1 = JsonText(sharded->shard(1)->GetProperty("clsm.stats.json"),
                                       "bg_severity");
  EXPECT_EQ(member0 == member1 ? member0 : "mixed", JsonText(json, "bg_severity"));
  envs[0].Heal();
  envs[1].Heal();
}

TEST_P(ShardedTest, AdminSurfaceServesRollupAndShardLabels) {
  options_.admin_port = 0;  // wrapper admin on an ephemeral port
  auto db = Open(2, "admin");
  const int port = std::atoi(db->GetProperty("clsm.admin-port").c_str());
  ASSERT_GT(port, 0);

  WriteOptions wo;
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(wo, "k" + std::to_string(i), "v").ok());
  }

  int code = 0;
  std::string body;
  ASSERT_TRUE(HttpGet("127.0.0.1", port, "/stats", &code, &body).ok());
  EXPECT_EQ(200, code);
  EXPECT_EQ(2u, JsonU64(body, "shard_count"));
  EXPECT_EQ(100u, JsonU64(body, "puts_total"));

  ASSERT_TRUE(HttpGet("127.0.0.1", port, "/metrics", &code, &body).ok());
  EXPECT_EQ(200, code);
  // Series carry per-shard labels; families are declared exactly once (a
  // concatenated-per-shard exposition would repeat the TYPE header and
  // break scrapers).
  EXPECT_NE(std::string::npos, body.find("shard=\"0\"")) << body.substr(0, 500);
  EXPECT_NE(std::string::npos, body.find("shard=\"1\""));
  const std::string type_line = "# TYPE clsm_puts_total counter";
  size_t first = body.find(type_line);
  ASSERT_NE(std::string::npos, first);
  EXPECT_EQ(std::string::npos, body.find(type_line, first + type_line.size()));

  ASSERT_TRUE(HttpGet("127.0.0.1", port, "/health", &code, &body).ok());
  EXPECT_EQ(200, code);

  // Members must NOT have spawned their own admin servers: the wrapper's
  // port is the only one.
  ShardedClsm* sharded = AsSharded(db.get());
  for (int s = 0; s < sharded->shards(); s++) {
    EXPECT_EQ("-1", sharded->shard(s)->GetProperty("clsm.admin-port"));
  }
}

TEST_P(ShardedTest, ReopenKeepsRouting) {
  auto db = Open(4, "reopen");
  WriteOptions wo;
  for (int i = 0; i < 5000; i++) {
    ASSERT_TRUE(db->Put(wo, "bulk" + std::to_string(i), std::string(64, 'b')).ok());
  }
  db->WaitForMaintenance();
  db.reset();

  db = Open(4, "reopen");
  ReadOptions ro;
  std::string v;
  for (int i = 0; i < 5000; i += 97) {
    ASSERT_TRUE(db->Get(ro, "bulk" + std::to_string(i), &v).ok()) << i;
  }
}

TEST_P(ShardedTest, SingleShardDegeneratesGracefully) {
  auto db = Open(1, "one");
  WriteOptions wo;
  ReadOptions ro;
  std::string v;
  ASSERT_TRUE(db->Put(wo, "k", "v").ok());
  ASSERT_TRUE(db->Get(ro, "k", &v).ok());
  const Snapshot* snap = db->GetSnapshot();
  ASSERT_TRUE(db->Put(wo, "k", "v2").ok());
  ReadOptions rs;
  rs.snapshot = snap;
  ASSERT_TRUE(db->Get(rs, "k", &v).ok());
  EXPECT_EQ("v", v);
  db->ReleaseSnapshot(snap);
  EXPECT_EQ("1", db->GetProperty("clsm.shard-count"));

  DB* raw = nullptr;
  EXPECT_FALSE(OpenShardedDb(GetParam(), options_, dir_.path() + "/zero", 0, &raw).ok());
}

INSTANTIATE_TEST_SUITE_P(Variants, ShardedTest,
                         ::testing::Values(DbVariant::kClsm, DbVariant::kLevelDb),
                         [](const ::testing::TestParamInfo<DbVariant>& info) {
                           return std::string(VariantName(info.param));
                         });

}  // namespace
}  // namespace clsm
