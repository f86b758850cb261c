// Unit tests for leveled input selection (VersionSet::PickCompaction):
// compact-pointer round-robin and wrap-around, level-0 overlap re-expansion,
// bounded input expansion, grandparent-driven output splitting
// (Compaction::ShouldStopBefore) and the trivial-move guard. Like
// compaction_scheduler_test these drive VersionSet::PickCompaction against
// synthetic version edits (metadata only) so every decision is
// deterministic; the end-to-end case runs a real DB.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/clsm_db.h"
#include "src/lsm/storage_engine.h"
#include "src/lsm/version_set.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

constexpr uint64_t kMiB = 1024 * 1024;

class CompactionPickerTest : public ::testing::Test {
 protected:
  CompactionPickerTest() : dir_("comppick") {}

  // Tests tweak options_ first, then open (the engine sanitizes its copy).
  void OpenEngine() {
    engine_ = std::make_unique<StorageEngine>(options_, dir_.path() + "/db");
    MemTable* recovered = nullptr;
    SequenceNumber max_seq = 0;
    ASSERT_TRUE(engine_->Open(&recovered, &max_seq).ok());
    if (recovered != nullptr) {
      recovered->Unref();
    }
  }

  VersionSet* versions() { return engine_->versions(); }

  const CompactionPickerLevelStats& PickerLevel(int level) {
    return versions()->picker_stats().levels[level];
  }

  // Adds a fake table file (metadata only — picking never opens files) at
  // `level` covering [begin, end]; returns its file number.
  uint64_t AddFakeFile(VersionEdit* edit, int level, const std::string& begin,
                       const std::string& end, uint64_t size) {
    const uint64_t number = versions()->NewFileNumber();
    InternalKey smallest(begin, kMaxSequenceNumber, kTypeValue);
    InternalKey largest(end, 0, kTypeValue);
    edit->AddFile(level, number, size, smallest, largest);
    return number;
  }

  ScratchDir dir_;
  Options options_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST_F(CompactionPickerTest, CompactPointerRoundRobinWrapsAround) {
  OpenEngine();
  // Three disjoint level-1 files over the 10 MiB target => score 1.2 and
  // an empty level 2, so each pick takes exactly one file and advances the
  // level's cursor; after the last file the cursor wraps to the first.
  VersionEdit edit;
  const uint64_t f1 = AddFakeFile(&edit, 1, "a", "b", 4 * kMiB);
  const uint64_t f2 = AddFakeFile(&edit, 1, "c", "d", 4 * kMiB);
  const uint64_t f3 = AddFakeFile(&edit, 1, "e", "f", 4 * kMiB);
  ASSERT_TRUE(versions()->LogAndApply(&edit).ok());

  const uint64_t expected[] = {f1, f2, f3, f1};
  for (uint64_t want : expected) {
    std::unique_ptr<Compaction> c(versions()->PickCompaction());
    ASSERT_NE(nullptr, c);
    EXPECT_EQ(1, c->level());
    EXPECT_EQ(2, c->output_level());
    ASSERT_EQ(1, c->num_input_files(0));
    EXPECT_EQ(want, c->input(0, 0)->number);
    EXPECT_EQ(0, c->num_input_files(1));
  }
  EXPECT_EQ(4u, PickerLevel(1).picks.load());
  EXPECT_EQ(0u, versions()->InFlightOverlapViolations());
}

TEST_F(CompactionPickerTest, LevelZeroOverlapReExpansionRestarts) {
  OpenEngine();
  // Four level-0 runs chained by transitive overlap: the seed is the newest
  // run [f,h]; pulling it in widens the range to [d,h], then [b,h], then
  // [a,h] — each widening restarts the scan until every run is an input.
  VersionEdit edit;
  AddFakeFile(&edit, 0, "a", "c", 4096);
  AddFakeFile(&edit, 0, "b", "e", 4096);
  AddFakeFile(&edit, 0, "d", "g", 4096);
  AddFakeFile(&edit, 0, "f", "h", 4096);
  ASSERT_TRUE(versions()->LogAndApply(&edit).ok());

  std::unique_ptr<Compaction> c(versions()->PickCompaction());
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(0, c->level());
  EXPECT_EQ(4, c->num_input_files(0));
  EXPECT_EQ(0u, versions()->InFlightOverlapViolations());
}

TEST_F(CompactionPickerTest, InputExpansionGrowsInputsUnderByteLimit) {
  options_.level1_max_bytes = 1 * kMiB;  // two 1 MiB L1 files => score 2.0
  OpenEngine();
  // Seed f1 [a,b] selects g1 [a,d] below; g1's range also covers f2 [c,d],
  // and pulling f2 in costs no additional level-2 data while staying under
  // the 25x target_file_size byte limit — so the picker must expand.
  VersionEdit edit;
  AddFakeFile(&edit, 1, "a", "b", 1 * kMiB);
  AddFakeFile(&edit, 1, "c", "d", 1 * kMiB);
  AddFakeFile(&edit, 2, "a", "d", 8 * kMiB);
  ASSERT_TRUE(versions()->LogAndApply(&edit).ok());

  std::unique_ptr<Compaction> c(versions()->PickCompaction());
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->level());
  EXPECT_EQ(2, c->num_input_files(0));
  EXPECT_EQ(1, c->num_input_files(1));
  EXPECT_EQ(1u, PickerLevel(1).expansions.load());
}

TEST_F(CompactionPickerTest, InputExpansionRespectsByteLimit) {
  options_.level1_max_bytes = 1 * kMiB;
  // 0.5 x 2 MiB target = 1 MiB expansion budget; the 8 MiB level-2 input
  // alone exceeds it, so the same shape as above must NOT expand.
  options_.expanded_compaction_factor = 0.5;
  OpenEngine();
  VersionEdit edit;
  AddFakeFile(&edit, 1, "a", "b", 1 * kMiB);
  AddFakeFile(&edit, 1, "c", "d", 1 * kMiB);
  AddFakeFile(&edit, 2, "a", "d", 8 * kMiB);
  ASSERT_TRUE(versions()->LogAndApply(&edit).ok());

  std::unique_ptr<Compaction> c(versions()->PickCompaction());
  ASSERT_NE(nullptr, c);
  EXPECT_EQ(1, c->num_input_files(0));
  EXPECT_EQ(1, c->num_input_files(1));
  EXPECT_EQ(0u, PickerLevel(1).expansions.load());
}

TEST_F(CompactionPickerTest, ShouldStopBeforeSplitsAtGrandparentBoundaries) {
  OpenEngine();
  // A level-1 job (output level 2) with ten 8 MiB grandparents at level 3.
  // The overlap bound is 10 x 2 MiB = 20 MiB, so every third grandparent
  // passed charges 24 MiB to the current output and forces a split.
  VersionEdit edit;
  AddFakeFile(&edit, 1, "a", "z", 12 * kMiB);
  for (int i = 0; i < 10; i++) {
    char name[8];
    std::snprintf(name, sizeof(name), "g%02d", i);
    AddFakeFile(&edit, 3, name, name, 8 * kMiB);
  }
  ASSERT_TRUE(versions()->LogAndApply(&edit).ok());

  std::unique_ptr<Compaction> c(versions()->PickCompaction());
  ASSERT_NE(nullptr, c);
  ASSERT_EQ(1, c->level());
  // Grandparent overlap was seeded and recorded at pick time.
  EXPECT_EQ(80u * kMiB, PickerLevel(1).grandparent_bytes.load());

  auto feed = [&](const std::string& user_key) {
    InternalKey ik(user_key, kMaxSequenceNumber, kTypeValue);
    return c->ShouldStopBefore(ik.Encode());
  };
  EXPECT_FALSE(feed("a"));     // before any grandparent; nothing charged
  EXPECT_FALSE(feed("g00x"));  // passed g00: 8 MiB <= 20 MiB
  EXPECT_FALSE(feed("g01x"));  // 16 MiB <= 20 MiB
  EXPECT_TRUE(feed("g02x"));   // 24 MiB > 20 MiB => cut, counter resets
  EXPECT_FALSE(feed("g03x"));  // fresh output: 8 MiB again
  EXPECT_TRUE(feed("g05x"));   // 24 MiB accumulated again => second cut
  EXPECT_EQ(2u, PickerLevel(1).output_splits.load());
}

TEST_F(CompactionPickerTest, TrivialMoveRefusedOverWideGrandparentRange) {
  OpenEngine();
  // Single level-1 file, empty level 2 — the historical picker would move
  // it down as-is, parking a file whose 64 MiB of level-3 overlap (bound:
  // 20 MiB) guarantees one oversized future compaction. The guard must
  // force a rewrite instead, and the block is counted.
  VersionEdit edit;
  AddFakeFile(&edit, 1, "a", "z", 12 * kMiB);
  for (int i = 0; i < 8; i++) {
    char name[8];
    std::snprintf(name, sizeof(name), "g%02d", i);
    AddFakeFile(&edit, 3, name, name, 8 * kMiB);
  }
  ASSERT_TRUE(versions()->LogAndApply(&edit).ok());

  std::unique_ptr<Compaction> c(versions()->PickCompaction());
  ASSERT_NE(nullptr, c);
  ASSERT_EQ(1, c->num_input_files(0));
  ASSERT_EQ(0, c->num_input_files(1));
  EXPECT_FALSE(c->IsTrivialMove());
  EXPECT_EQ(1u, PickerLevel(1).trivial_moves_blocked.load());
}

TEST_F(CompactionPickerTest, TrivialMoveAllowedUnderSmallGrandparentOverlap) {
  OpenEngine();
  VersionEdit edit;
  AddFakeFile(&edit, 1, "a", "z", 12 * kMiB);
  AddFakeFile(&edit, 3, "m", "n", 1 * kMiB);  // 1 MiB overlap <= 20 MiB bound
  ASSERT_TRUE(versions()->LogAndApply(&edit).ok());

  std::unique_ptr<Compaction> c(versions()->PickCompaction());
  ASSERT_NE(nullptr, c);
  ASSERT_EQ(1, c->num_input_files(0));
  ASSERT_EQ(0, c->num_input_files(1));
  EXPECT_TRUE(c->IsTrivialMove());
  EXPECT_EQ(0u, PickerLevel(1).trivial_moves_blocked.load());
}

// End-to-end: a small-file store under put/delete churn keeps every
// committed key readable and every deleted key gone (a deletion marker is
// dropped only where IsBaseLevelForKey proves nothing older lies below)
// and never violates the disjointness invariant.
TEST(CompactionEndToEndTest, StoreKeepsDataUnderChurn) {
  ScratchDir dir("comppick-e2e");
  Options options;
  options.write_buffer_size = 16 * 1024;
  options.target_file_size = 16 * 1024;
  options.level1_max_bytes = 48 * 1024;
  options.l0_compaction_trigger = 2;
  DB* raw = nullptr;
  ASSERT_TRUE(ClsmDb::Open(options, dir.path() + "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  WriteOptions wo;
  ReadOptions ro;
  std::map<std::string, std::string> model;
  for (int i = 0; i < 8000; i++) {
    std::string k = "key" + std::to_string(i % 700);
    std::string v = "value-" + std::to_string(i);
    ASSERT_TRUE(db->Put(wo, k, v).ok());
    model[k] = v;
    if (i % 9 == 5) {
      std::string dk = "key" + std::to_string((i * 13) % 700);
      ASSERT_TRUE(db->Delete(wo, dk).ok());
      model.erase(dk);
    }
  }
  db->WaitForMaintenance();

  std::string v;
  for (int i = 0; i < 700; i++) {
    const std::string k = "key" + std::to_string(i);
    auto it = model.find(k);
    if (it == model.end()) {
      ASSERT_TRUE(db->Get(ro, k, &v).IsNotFound()) << "resurrected " << k;
    } else {
      ASSERT_TRUE(db->Get(ro, k, &v).ok()) << "lost " << k;
      ASSERT_EQ(it->second, v);
    }
  }
  EXPECT_EQ("0", db->GetProperty("clsm.compaction-overlaps"));
}

}  // namespace
}  // namespace clsm
