// Tests of the thread-local PerfContext (src/obs/perf_context.h) and its
// wiring through the DB implementations:
//  * kDisabled is genuinely zero work — no probe touches the context;
//  * kEnableCounts populates the search counters on both the memtable and
//    the disk path, without any clock reads (timers stay 0);
//  * kEnableTimers: the contiguous phase timers of a Put or a batch Write
//    (throttle + lock_getts + mem_insert + wal_append) sum to the measured
//    total within 10% (averaged over many ops);
//  * a disk Get's table probes end at the filter or seek the index once
//    (index_seeks == probes - bloom_useful), and its filter, index-seek and
//    block-read timers nest inside the disk search;
//  * op entry resets the previous op's numbers;
//  * GetProperty("clsm.perf.json") renders the calling thread's snapshot.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/baselines/factory.h"
#include "src/core/write_batch.h"
#include "src/obs/perf_context.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

std::unique_ptr<DB> OpenFresh(DbVariant variant, Options options, const std::string& dir) {
  DB* raw = nullptr;
  Status s = OpenDb(variant, options, dir, &raw);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::unique_ptr<DB>(raw);
}

std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key-%08d", i);
  return buf;
}

TEST(PerfContextTest, DisabledTouchesNothing) {
  ScratchDir dir("perf-off");
  Options options;
  options.perf_level = PerfLevel::kDisabled;
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");
  ASSERT_TRUE(db->Put(WriteOptions(), Key(1), "v").ok());

  // Plant sentinels in this thread's context; ops against a perf-disabled
  // DB must neither reset them nor fire any probe. This is the observable
  // form of the "zero-cost-when-disabled" contract: the only write an op
  // performs is the level publish.
  PerfContext* ctx = GetPerfContext();
  ctx->skiplist_search_nodes = 777;
  ctx->mem_insert_nanos = 888;
  ctx->total_nanos = 999;

  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), Key(1), &value).ok());
  ASSERT_TRUE(db->Put(WriteOptions(), Key(2), "v").ok());

  EXPECT_EQ(ctx->level, PerfLevel::kDisabled);
  EXPECT_EQ(ctx->skiplist_search_nodes, 777u);
  EXPECT_EQ(ctx->mem_insert_nanos, 888u);
  EXPECT_EQ(ctx->total_nanos, 999u);
}

TEST(PerfContextTest, CountsPopulateWithoutTimers) {
  ScratchDir dir("perf-counts");
  Options options;
  options.perf_level = PerfLevel::kEnableCounts;
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "value").ok());
  }

  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), Key(50), &value).ok());
  PerfContext* ctx = GetPerfContext();
  EXPECT_EQ(ctx->level, PerfLevel::kEnableCounts);
  EXPECT_GE(ctx->memtable_probes, 1u);
  EXPECT_GT(ctx->skiplist_search_nodes, 0u);
  // Counts mode performs no clock reads: every timer is zero.
  EXPECT_EQ(ctx->total_nanos, 0u);
  EXPECT_EQ(ctx->mem_search_nanos, 0u);
  EXPECT_EQ(ctx->disk_search_nanos, 0u);
}

TEST(PerfContextTest, DiskReadCountersAttributeByLevel) {
  ScratchDir dir("perf-disk");
  Options options;
  options.perf_level = PerfLevel::kEnableCounts;
  options.block_cache_size = 0;  // force real block reads
  options.bloom_bits_per_key = 0;
  options.write_buffer_size = 32 * 1024;  // writes below spill to disk
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), std::string(128, 'v')).ok());
  }
  db->WaitForMaintenance();

  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), Key(123), &value).ok());
  PerfContext* ctx = GetPerfContext();
  uint64_t level_reads = 0;
  for (int l = 0; l < PerfContext::kMaxLevels; l++) {
    level_reads += ctx->table_reads_per_level[l];
  }
  EXPECT_GE(level_reads, 1u) << "flushed key should be served by an SSTable probe";
  EXPECT_GE(ctx->block_reads, 1u);
  EXPECT_GT(ctx->block_read_bytes, 0u);
}

// A Get of an absent key inside every probed table's range ends each table
// probe either at the filter (bloom_useful) or in a data block without
// the key (bloom_false_positives).
TEST(PerfContextTest, BloomCountersAccountForEveryAbsentKeyProbe) {
  ScratchDir dir("perf-bloom");
  Options options;
  options.perf_level = PerfLevel::kEnableCounts;
  options.write_buffer_size = 32 * 1024;
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(2 * i), std::string(128, 'v')).ok());
  }
  db->WaitForMaintenance();

  uint64_t probes = 0, useful = 0, false_positives = 0;
  std::string value;
  for (int i = 0; i < 1999; i++) {
    ASSERT_TRUE(db->Get(ReadOptions(), Key(2 * i + 1), &value).IsNotFound());
    const PerfContext* ctx = GetPerfContext();
    for (int l = 0; l < PerfContext::kMaxLevels; l++) {
      probes += ctx->table_reads_per_level[l];
    }
    useful += ctx->bloom_useful;
    false_positives += ctx->bloom_false_positives;
  }
  ASSERT_GT(probes, 1000u) << "absent keys should be searched on disk";
  EXPECT_EQ(probes, useful + false_positives);
  EXPECT_LT(false_positives, probes / 20);
}

// A table probe asks the table's Bloom filter first and seeks the index
// only if the filter lets the key through, so over present and absent keys
// alike index_seeks == probes - bloom_useful. At timers level the filter
// probe, index seek, block-cache work and block read of a disk Get are each
// timed, and so is a table's first open; being nested in the disk search
// they sum to at most its time.
TEST(PerfContextTest, DiskGetSplitsIntoFilterIndexSeekAndBlockRead) {
  ScratchDir dir("perf-split");
  Options options;
  options.perf_level = PerfLevel::kEnableCounts;
  options.write_buffer_size = 32 * 1024;
  options.block_cache_size = 0;  // every index seek reads its block
  {
    std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");
    for (int i = 0; i < 2000; i++) {
      ASSERT_TRUE(db->Put(WriteOptions(), Key(2 * i), std::string(128, 'v')).ok());
    }
    db->WaitForMaintenance();

    uint64_t probes = 0, useful = 0, seeks = 0;
    std::string value;
    for (int i = 0; i < 4000; i++) {
      const Status s = db->Get(ReadOptions(), Key(i), &value);
      ASSERT_TRUE(i % 2 == 0 ? s.ok() : s.IsNotFound()) << i;
      const PerfContext* ctx = GetPerfContext();
      for (int l = 0; l < PerfContext::kMaxLevels; l++) {
        probes += ctx->table_reads_per_level[l];
      }
      useful += ctx->bloom_useful;
      seeks += ctx->index_seeks;
    }
    ASSERT_GT(useful, 1000u) << "absent keys should be ruled out by the filters";
    ASSERT_GT(seeks, 1000u) << "present keys should be searched on disk";
    EXPECT_EQ(seeks, probes - useful);
  }

  // Reopened, the store opens each table on the first Get that probes it.
  options.perf_level = PerfLevel::kEnableTimers;
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");
  PerfContext* ctx = GetPerfContext();
  int disk_gets = 0, opening_gets = 0;
  std::string value;
  for (int i = 0; i < 4000; i += 2) {
    ASSERT_TRUE(db->Get(ReadOptions(), Key(i), &value).ok()) << i;
    if (ctx->disk_search_nanos == 0) {
      continue;  // served from the memtable
    }
    disk_gets++;
    if (ctx->table_open_nanos > 0) {
      opening_gets++;
    }
    EXPECT_GT(ctx->filter_probe_nanos, 0u) << i;
    EXPECT_GT(ctx->index_seek_nanos, 0u) << i;
    EXPECT_GT(ctx->block_cache_nanos, 0u) << i;
    EXPECT_GT(ctx->block_read_nanos, 0u) << i;
    EXPECT_LE(ctx->filter_probe_nanos + ctx->index_seek_nanos + ctx->block_cache_nanos +
                  ctx->block_read_nanos + ctx->table_open_nanos,
              ctx->disk_search_nanos)
        << i;
  }
  EXPECT_GT(disk_gets, 1000);
  EXPECT_GT(opening_gets, 0);
  EXPECT_LT(opening_gets, disk_gets) << "a table is opened once, not per Get";
}

TEST(PerfContextTest, PutPhaseTimersSumToTotalWithinTenPercent) {
  ScratchDir dir("perf-sum");
  Options options;
  options.perf_level = PerfLevel::kEnableTimers;
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");

  // The write-path phases are contiguous segments of the commit routine
  // that Put and batch Write share, so their sum tracks the op total for
  // both. A single op is too small to bound tightly (clock granularity);
  // the acceptance criterion is over the aggregate.
  PerfContext* ctx = GetPerfContext();
  constexpr int kOps = 4000;
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "batch Write" : "Put");
    uint64_t sum_total = 0, sum_phases = 0;
    for (int i = 0; i < kOps; i++) {
      if (batch) {
        WriteBatch b;
        for (int j = 0; j < 4; j++) {
          b.Put(Key(kOps + 4 * i + j), std::string(64, 'b'));
        }
        ASSERT_TRUE(db->Write(WriteOptions(), &b).ok());
      } else {
        ASSERT_TRUE(db->Put(WriteOptions(), Key(i), std::string(64, 'p')).ok());
      }
      EXPECT_EQ(ctx->level, PerfLevel::kEnableTimers);
      sum_total += ctx->total_nanos;
      sum_phases += ctx->throttle_nanos + ctx->lock_getts_nanos + ctx->mem_insert_nanos +
                    ctx->wal_append_nanos;
    }
    ASSERT_GT(sum_total, 0u);
    const double ratio = static_cast<double>(sum_phases) / static_cast<double>(sum_total);
    EXPECT_GT(ratio, 0.90) << "phases " << sum_phases << " vs total " << sum_total;
    EXPECT_LT(ratio, 1.10) << "phases " << sum_phases << " vs total " << sum_total;
  }
}

TEST(PerfContextTest, OpEntryResetsPreviousOp) {
  ScratchDir dir("perf-reset");
  Options options;
  options.perf_level = PerfLevel::kEnableTimers;
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");

  ASSERT_TRUE(db->Put(WriteOptions(), Key(1), "v").ok());
  PerfContext* ctx = GetPerfContext();
  EXPECT_GT(ctx->total_nanos, 0u);

  // A Get must describe only itself: the put's write-path timers vanish.
  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), Key(1), &value).ok());
  EXPECT_EQ(ctx->mem_insert_nanos, 0u);
  EXPECT_EQ(ctx->wal_append_nanos, 0u);
  EXPECT_GT(ctx->mem_search_nanos, 0u);
}

TEST(PerfContextTest, GetTimersSplitMemAndDisk) {
  ScratchDir dir("perf-get");
  Options options;
  options.perf_level = PerfLevel::kEnableTimers;
  options.write_buffer_size = 32 * 1024;  // spill the key space to disk
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");
  for (int i = 0; i < 1000; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), std::string(128, 'g')).ok());
  }
  db->WaitForMaintenance();

  // An early key now lives on disk: the memtable probe misses, the disk
  // search pays.
  std::string value;
  PerfContext* ctx = GetPerfContext();
  ASSERT_TRUE(db->Get(ReadOptions(), Key(0), &value).ok());
  EXPECT_GT(ctx->mem_search_nanos, 0u);
  EXPECT_GT(ctx->disk_search_nanos, 0u);
  EXPECT_GT(ctx->total_nanos, 0u);
}

TEST(PerfContextTest, PerfJsonPropertyRendersThisThreadsSnapshot) {
  ScratchDir dir("perf-json");
  Options options;
  options.perf_level = PerfLevel::kEnableTimers;
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");
  ASSERT_TRUE(db->Put(WriteOptions(), Key(1), "v").ok());

  std::string json = db->GetProperty("clsm.perf.json");
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"level\":\"counts+timers\""), std::string::npos) << json;
  for (const char* key :
       {"\"counters\"", "\"skiplist_search_nodes\"", "\"memtable_probes\"",
        "\"table_reads_per_level\"", "\"index_seeks\"", "\"block_reads\"",
        "\"block_read_bytes\"",
        "\"block_cache_hits\"", "\"bloom_useful\"", "\"bloom_false_positives\"",
        "\"timers_nanos\"", "\"total\"", "\"throttle\"", "\"memtable_roll_wait\"",
        "\"write_delay\"", "\"lock_getts\"", "\"shared_lock_wait\"", "\"mem_insert\"",
        "\"wal_append\"", "\"mem_search\"", "\"disk_search\"", "\"filter_probe\"",
        "\"index_seek\"", "\"block_cache\"", "\"block_read\"", "\"table_open\"",
        "\"crc_verify\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key << " in " << json;
  }
  // The put populated the write-path timers; they render as nonzero.
  EXPECT_EQ(json.find("\"total\":0,"), std::string::npos) << json;
}

// The baseline chassis feeds the same thread-local context (head-of-queue
// attribution for its group commit); at minimum a Get attributes search
// work and the property renders.
TEST(PerfContextTest, BaselineChassisPopulatesContext) {
  ScratchDir dir("perf-base");
  Options options;
  options.perf_level = PerfLevel::kEnableTimers;
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kLevelDb, options, dir.path() + "/db");
  for (int i = 0; i < 100; i++) {
    ASSERT_TRUE(db->Put(WriteOptions(), Key(i), "value").ok());
  }
  PerfContext* ctx = GetPerfContext();
  // This thread is the sole writer, hence always the queue head: its own
  // batch's memtable/WAL work is attributed.
  EXPECT_GT(ctx->total_nanos, 0u);
  EXPECT_GT(ctx->mem_insert_nanos, 0u);

  std::string value;
  ASSERT_TRUE(db->Get(ReadOptions(), Key(3), &value).ok());
  EXPECT_GE(ctx->memtable_probes, 1u);
  EXPECT_GT(ctx->mem_search_nanos, 0u);
  EXPECT_NE(db->GetProperty("clsm.perf.json").find("counts+timers"), std::string::npos);
}

// Two DBs at different levels on the same thread: each op runs at the
// level of the DB that executes it (the level publish at op entry).
TEST(PerfContextTest, LevelFollowsTheExecutingDb) {
  ScratchDir dir("perf-two");
  Options on;
  on.perf_level = PerfLevel::kEnableCounts;
  Options off;
  off.perf_level = PerfLevel::kDisabled;
  std::unique_ptr<DB> db_on = OpenFresh(DbVariant::kClsm, on, dir.path() + "/on");
  std::unique_ptr<DB> db_off = OpenFresh(DbVariant::kClsm, off, dir.path() + "/off");

  ASSERT_TRUE(db_on->Put(WriteOptions(), "k", "v").ok());
  EXPECT_EQ(GetPerfContext()->level, PerfLevel::kEnableCounts);
  ASSERT_TRUE(db_off->Put(WriteOptions(), "k", "v").ok());
  EXPECT_EQ(GetPerfContext()->level, PerfLevel::kDisabled);
}

}  // namespace
}  // namespace clsm
