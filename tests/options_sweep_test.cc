// Configuration-space sweep: the same black-box workload must pass under
// every meaningful combination of tuning knobs — tiny blocks, restart
// interval 1, no Bloom filters, no block cache, synchronous logging, WAL
// disabled, dedicated flush thread, linearizable snapshots. Catches
// configuration-dependent bugs that default-options tests never see.
#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/core/clsm_db.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

struct SweepCase {
  const char* name;
  Options options;
};

std::vector<SweepCase> SweepCases() {
  std::vector<SweepCase> cases;
  {
    SweepCase c{"defaults", Options()};
    cases.push_back(c);
  }
  {
    SweepCase c{"tiny_blocks", Options()};
    c.options.block_size = 256;
    c.options.block_restart_interval = 1;
    cases.push_back(c);
  }
  {
    SweepCase c{"no_bloom_no_cache", Options()};
    c.options.bloom_bits_per_key = 0;
    c.options.block_cache_size = 0;
    cases.push_back(c);
  }
  {
    SweepCase c{"sync_logging", Options()};
    c.options.sync_logging = true;
    cases.push_back(c);
  }
  {
    SweepCase c{"no_wal", Options()};
    c.options.disable_wal = true;
    cases.push_back(c);
  }
  {
    SweepCase c{"linearizable_snapshots", Options()};
    c.options.linearizable_snapshots = true;
    cases.push_back(c);
  }
  {
    SweepCase c{"tiny_everything", Options()};
    c.options.write_buffer_size = 16 * 1024;
    c.options.target_file_size = 16 * 1024;
    c.options.level1_max_bytes = 48 * 1024;
    c.options.block_size = 512;
    c.options.l0_compaction_trigger = 2;
    cases.push_back(c);
  }
  {
    SweepCase c{"paranoid_checks", Options()};
    c.options.paranoid_checks = true;
    cases.push_back(c);
  }
  {
    // The small files of tiny_everything, merged unsplit on one worker.
    SweepCase c{"one_compaction_thread", Options()};
    c.options.write_buffer_size = 16 * 1024;
    c.options.target_file_size = 16 * 1024;
    c.options.level1_max_bytes = 48 * 1024;
    c.options.l0_compaction_trigger = 2;
    c.options.compaction_threads = 1;
    cases.push_back(c);
  }
  return cases;
}

class OptionsSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(OptionsSweepTest, BlackBoxContractHolds) {
  ScratchDir dir("sweep");
  Options options = GetParam().options;
  if (options.write_buffer_size > 256 * 1024) {
    options.write_buffer_size = 256 * 1024;  // keep the test quick
  }
  DB* raw = nullptr;
  ASSERT_TRUE(ClsmDb::Open(options, dir.path() + "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  WriteOptions wo;
  ReadOptions ro;
  std::map<std::string, std::string> model;
  // Enough churn for rolls/flushes/compactions under the tiny configs.
  for (int i = 0; i < 8000; i++) {
    std::string k = "key" + std::to_string(i % 900);
    std::string v = "v" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, k, v).ok()) << GetParam().name;
    model[k] = v;
    if (i % 10 == 3) {
      std::string dk = "key" + std::to_string((i * 7) % 900);
      ASSERT_TRUE(db->Delete(wo, dk).ok());
      model.erase(dk);
    }
  }
  db->WaitForMaintenance();

  std::string v;
  for (const auto& [k, mv] : model) {
    ASSERT_TRUE(db->Get(ro, k, &v).ok()) << GetParam().name << " lost " << k;
    ASSERT_EQ(mv, v) << GetParam().name;
  }
  {
    std::unique_ptr<Iterator> it(db->NewIterator(ro));
    it->SeekToFirst();
    for (const auto& [k, mv] : model) {
      ASSERT_TRUE(it->Valid()) << GetParam().name;
      ASSERT_EQ(k, it->key().ToString()) << GetParam().name;
      it->Next();
    }
    ASSERT_FALSE(it->Valid()) << GetParam().name;
  }

  // RMW works in every configuration.
  ASSERT_TRUE(db->ReadModifyWrite(wo, "rmw-key",
                                  [](const std::optional<Slice>& cur)
                                      -> std::optional<std::string> {
                                    return cur ? cur->ToString() + "+1" : "1";
                                  })
                  .ok());

  // Persistence (skipped when the WAL is off and nothing was flushed —
  // disable_wal explicitly trades durability for speed).
  db.reset();
  ASSERT_TRUE(ClsmDb::Open(options, dir.path() + "/db", &raw).ok());
  db.reset(raw);
  if (!options.disable_wal) {
    for (const auto& [k, mv] : model) {
      ASSERT_TRUE(db->Get(ro, k, &v).ok()) << GetParam().name << " lost " << k << " on reopen";
      ASSERT_EQ(mv, v) << GetParam().name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Configs, OptionsSweepTest, ::testing::ValuesIn(SweepCases()),
                         [](const ::testing::TestParamInfo<SweepCase>& info) {
                           return info.param.name;
                         });

}  // namespace
}  // namespace clsm
