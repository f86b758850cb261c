// Tests of the optional/extension features: stats counters, linearizable
// snapshots (§3.2.1's strengthened getSnap), and the dedicated flush
// thread (§5.3's reserved-thread configuration).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

#include "src/core/clsm_db.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

std::unique_ptr<DB> OpenClsm(const std::string& path, const Options& options) {
  DB* raw = nullptr;
  Status s = ClsmDb::Open(options, path, &raw);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::unique_ptr<DB>(raw);
}

// The value of counter `name` in db's clsm.stats.json counters group, or
// -1 if absent.
int64_t Counter(DB* db, const std::string& name) {
  const std::string json = db->GetProperty("clsm.stats.json");
  const size_t group = json.find("\"counters\":{");
  const std::string needle = "\"" + name + "\":";
  const size_t at = group == std::string::npos ? group : json.find(needle, group);
  if (at == std::string::npos || at > json.find('}', group)) {
    return -1;
  }
  return std::strtoll(json.c_str() + at + needle.size(), nullptr, 10);
}

TEST(StatsTest, CountersTrackOperations) {
  ScratchDir dir("stats");
  Options options;
  auto db = OpenClsm(dir.path() + "/db", options);

  WriteOptions wo;
  ReadOptions ro;
  std::string v;
  for (int i = 0; i < 10; i++) {
    ASSERT_TRUE(db->Put(wo, "k" + std::to_string(i), "v").ok());
  }
  ASSERT_TRUE(db->Delete(wo, "k0").ok());
  for (int i = 0; i < 5; i++) {
    db->Get(ro, "k1", &v);
  }
  db->ReadModifyWrite(wo, "k1", [](const std::optional<Slice>&) -> std::optional<std::string> {
    return "rmw";
  });
  const Snapshot* snap = db->GetSnapshot();
  db->ReleaseSnapshot(snap);
  { std::unique_ptr<Iterator> it(db->NewIterator(ro)); }

  EXPECT_EQ(10, Counter(db.get(), "puts_total"));
  EXPECT_EQ(1, Counter(db.get(), "deletes_total"));
  EXPECT_EQ(5, Counter(db.get(), "gets_total"));
  EXPECT_EQ(1, Counter(db.get(), "rmw_total"));
  EXPECT_EQ(1, Counter(db.get(), "snapshots_acquired"));
  EXPECT_EQ(1, Counter(db.get(), "iterators_created"));
}

TEST(StatsTest, GetAttributionByComponent) {
  ScratchDir dir("statsattr");
  Options options;
  options.write_buffer_size = 64 * 1024;
  auto db = OpenClsm(dir.path() + "/db", options);

  WriteOptions wo;
  ReadOptions ro;
  std::string v;
  // Key written long ago ends up on disk after churn.
  ASSERT_TRUE(db->Put(wo, "old", "disk-resident").ok());
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db->Put(wo, "fill" + std::to_string(i), std::string(32, 'f')).ok());
  }
  db->WaitForMaintenance();
  ASSERT_TRUE(db->Put(wo, "fresh", "mem-resident").ok());

  ASSERT_TRUE(db->Get(ro, "fresh", &v).ok());
  ASSERT_TRUE(db->Get(ro, "old", &v).ok());
  // At least one get served from memory and one from disk.
  EXPECT_GE(Counter(db.get(), "gets_from_mem"), 1);
  EXPECT_GE(Counter(db.get(), "gets_from_disk"), 1);
}

TEST(LinearizableSnapshotTest, SnapshotNeverInThePast) {
  ScratchDir dir("linsnap");
  Options options;
  options.linearizable_snapshots = true;
  auto db = OpenClsm(dir.path() + "/db", options);
  ClsmDb* clsm = static_cast<ClsmDb*>(db.get());

  WriteOptions wo;
  for (int i = 0; i < 200; i++) {
    ASSERT_TRUE(db->Put(wo, "k", "v" + std::to_string(i)).ok());
    // With linearizable snapshots the scan timestamp must be >= the time
    // counter value before the call — i.e. include the put we just did.
    SequenceNumber before = std::stoull(db->GetProperty("clsm.last-ts"));
    SequenceNumber ts = clsm->AcquireScanTimestampForTest();
    EXPECT_GE(ts, before);
  }
}

TEST(LinearizableSnapshotTest, ReadYourOwnWritesThroughSnapshot) {
  ScratchDir dir("linsnap2");
  Options options;
  options.linearizable_snapshots = true;
  auto db = OpenClsm(dir.path() + "/db", options);

  WriteOptions wo;
  ReadOptions ro;
  for (int i = 0; i < 300; i++) {
    std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "mine").ok());
    const Snapshot* snap = db->GetSnapshot();
    ro.snapshot = snap;
    std::string v;
    // Linearizability: a snapshot taken after my put MUST see it (the
    // default serializable mode may legally miss it under concurrency; with
    // no concurrency both modes see it, so run some concurrent writers).
    Status s = db->Get(ro, key, &v);
    EXPECT_TRUE(s.ok()) << "linearizable snapshot missed own write " << i;
    db->ReleaseSnapshot(snap);
  }

  // Now with concurrent writer churn.
  std::atomic<bool> stop{false};
  std::thread churn([&] {
    WriteOptions cwo;
    int i = 0;
    while (!stop.load()) {
      db->Put(cwo, "churn" + std::to_string(i++ % 100), "x");
    }
  });
  for (int i = 0; i < 300; i++) {
    std::string key = "own" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, key, "mine").ok());
    const Snapshot* snap = db->GetSnapshot();
    ReadOptions rs;
    rs.snapshot = snap;
    std::string v;
    Status s = db->Get(rs, key, &v);
    EXPECT_TRUE(s.ok()) << "linearizable snapshot missed own write under churn " << i;
    db->ReleaseSnapshot(snap);
  }
  stop = true;
  churn.join();
}

TEST(DedicatedFlushThreadTest, FunctionalUnderChurn) {
  ScratchDir dir("flushthread");
  Options options;
  options.write_buffer_size = 128 * 1024;
  options.target_file_size = 128 * 1024;
  auto db = OpenClsm(dir.path() + "/db", options);

  WriteOptions wo;
  ReadOptions ro;
  // Heavy write churn: rolls/flushes on the flush thread race compactions
  // on the maintenance thread.
  for (int i = 0; i < 30000; i++) {
    ASSERT_TRUE(db->Put(wo, "key" + std::to_string(i % 5000), std::string(64, 'a' + i % 26)).ok());
  }
  db->WaitForMaintenance();
  std::string v;
  int found = 0;
  for (int i = 0; i < 5000; i += 97) {
    if (db->Get(ro, "key" + std::to_string(i), &v).ok()) {
      found++;
    }
  }
  EXPECT_GT(found, 50);
  EXPECT_GE(Counter(db.get(), "flushes"), 1) << db->GetProperty("clsm.stats.json");
}

TEST(DedicatedFlushThreadTest, ConcurrentReadersAndWriters) {
  ScratchDir dir("flushthread2");
  Options options;
  options.write_buffer_size = 128 * 1024;
  auto db = OpenClsm(dir.path() + "/db", options);

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    ReadOptions ro;
    std::string v;
    while (!stop.load()) {
      Status s = db->Get(ro, "probe", &v);
      if (!s.ok() && !s.IsNotFound()) {
        failed = true;
      }
    }
  });
  WriteOptions wo;
  ASSERT_TRUE(db->Put(wo, "probe", "v").ok());
  for (int i = 0; i < 20000; i++) {
    ASSERT_TRUE(db->Put(wo, "w" + std::to_string(i), std::string(64, 'w')).ok());
  }
  stop = true;
  reader.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace clsm
