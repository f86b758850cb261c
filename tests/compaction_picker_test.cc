// Unit tests for leveled input selection (VersionSet::PickCompaction):
// compact-pointer round-robin and wrap-around, level-0 overlap re-expansion,
// bounded input expansion, grandparent-driven output splitting
// (Compaction::ShouldStopBefore), the trivial-move guard, and a golden
// replay of every pick over seeded layouts. Like compaction_scheduler_test
// these drive VersionSet::PickCompaction against synthetic version edits
// (metadata only) so every decision is deterministic; the end-to-end case
// runs a real DB.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
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

  // Tests tweak options_ first, then open.
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
  // The expansion budget is 25 x target_file_size: 25 x 256 KiB = 6.25 MiB,
  // and the 8 MiB level-2 input alone exceeds it, so the same shape as
  // above must NOT expand.
  options_.target_file_size = 256 * 1024;
  options_.level1_max_bytes = 1 * kMiB;
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

  CompactionCursor cursor;
  auto feed = [&](const std::string& user_key) {
    InternalKey ik(user_key, kMaxSequenceNumber, kTypeValue);
    return c->ShouldStopBefore(&cursor, ik.Encode());
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

// Golden replay: seeded synthetic layouts (metadata only) driven through
// PickCompaction until no job is left or a per-layout cap is reached, with
// each job's synthetic result applied before the next pick. Every decision
// (input level, inputs, expansion, grandparent overlap, trivial move and
// its guard, output cuts) is printed and compared byte for byte with
// tests/golden/compaction_picker_replay.txt, so any change to the picker
// shows up as a reviewed diff of that file. On a mismatch the actual
// replay is written next to the test's temp dir for inspection.
class PickerReplay {
 public:
  PickerReplay(int layout, const std::string& dir)
      : layout_(layout), dir_(dir), rng_(0x9E3779B97F4A7C15ull * (layout + 1)) {}

  std::string Run() {
    Options options;
    options.target_file_size = (512 * 1024) << Uniform(3);
    options.level1_max_bytes = kMiB << Uniform(3);
    options.l0_compaction_trigger = 2 + 2 * static_cast<int>(Uniform(2));
    target_ = options.target_file_size;
    engine_ = std::make_unique<StorageEngine>(options, dir_);
    MemTable* recovered = nullptr;
    SequenceNumber max_seq = 0;
    EXPECT_TRUE(engine_->Open(&recovered, &max_seq).ok());
    if (recovered != nullptr) {
      recovered->Unref();
    }
    vset()->SetFileDeletionEnabled(false);  // the files never existed

    char line[160];
    std::snprintf(line, sizeof(line), "layout %02d target=%lluK l1=%lluK trigger=%d\n", layout_,
                  static_cast<unsigned long long>(options.target_file_size >> 10),
                  static_cast<unsigned long long>(options.level1_max_bytes >> 10),
                  options.l0_compaction_trigger);
    std::string out = line;
    BuildLayout(options);
    out += "  start " + vset()->LevelSummary() + "\n";

    int picks = 0;
    for (; picks < kMaxPicks; picks++) {
      const PickCounters before = SumPickCounters();
      std::unique_ptr<Compaction> c(vset()->PickCompaction());
      if (c == nullptr) {
        break;
      }
      const PickCounters after = SumPickCounters();
      std::snprintf(line, sizeof(line), "  pick %d L%d->L%d expanded=%llu gp=%lluK blocked=%llu\n",
                    picks, c->level(), c->output_level(),
                    static_cast<unsigned long long>(after.expansions - before.expansions),
                    static_cast<unsigned long long>((after.gp_bytes - before.gp_bytes) >> 10),
                    static_cast<unsigned long long>(after.blocked - before.blocked));
      out += line;
      out += DescribeAndApply(c.get());
    }
    out += "  end picks=" + std::to_string(picks) + " " + vset()->LevelSummary() + "\n";
    EXPECT_EQ(0u, vset()->InFlightOverlapViolations());
    return out;
  }

 private:
  static constexpr uint64_t kKeySpace = 1000000;
  static constexpr uint64_t kRecordBytes = 64 * 1024;
  static constexpr int kMaxPicks = 12;

  VersionSet* vset() { return engine_->versions(); }

  struct PickCounters {
    uint64_t expansions = 0;
    uint64_t gp_bytes = 0;
    uint64_t blocked = 0;
  };
  PickCounters SumPickCounters() {
    PickCounters sum;
    for (const CompactionPickerLevelStats& l : vset()->picker_stats().levels) {
      sum.expansions += l.expansions.load();
      sum.gp_bytes += l.grandparent_bytes.load();
      sum.blocked += l.trivial_moves_blocked.load();
    }
    return sum;
  }

  uint64_t Uniform(uint64_t n) {  // splitmix64: same stream on every platform
    uint64_t z = (rng_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (z ^ (z >> 31)) % n;
  }

  static std::string Key(uint64_t k) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "k%07llu", static_cast<unsigned long long>(k));
    return buf;
  }
  static uint64_t KeyNumber(const Slice& user_key) {
    return std::stoull(user_key.ToString().substr(1));
  }

  void AddFile(VersionEdit* edit, int level, uint64_t lo, uint64_t hi, uint64_t size) {
    const uint64_t number = vset()->NewFileNumber();
    labels_[number] = next_label_++;
    edit->AddFile(level, number, size, InternalKey(Key(lo), kMaxSequenceNumber, kTypeValue),
                  InternalKey(Key(hi), 0, kTypeValue));
  }

  // L0: up to 2x trigger overlapping runs. Levels 1..depth: disjoint files
  // filling 30%-200% of the level's target (10x fanout), at most 96 files
  // per level, and a random compact pointer on about half the levels.
  void BuildLayout(const Options& options) {
    VersionEdit edit;
    const uint64_t l0_files = Uniform(2 * options.l0_compaction_trigger + 1);
    for (uint64_t i = 0; i < l0_files; i++) {
      const uint64_t lo = Uniform(kKeySpace);
      const uint64_t hi = std::min(kKeySpace - 1, lo + 1 + Uniform(kKeySpace / 4));
      AddFile(&edit, 0, lo, hi, target_ / 4 + Uniform(target_ * 3 / 4));
    }
    const int depth = 1 + static_cast<int>(Uniform(4));
    uint64_t level_target = options.level1_max_bytes;
    for (int level = 1; level <= depth; level++, level_target *= 10) {
      const uint64_t bytes = level_target * (30 + Uniform(171)) / 100;
      const uint64_t n = std::max<uint64_t>(1, std::min<uint64_t>(96, bytes / target_));
      std::set<uint64_t> bounds;
      while (bounds.size() < 2 * n) {
        bounds.insert(Uniform(kKeySpace));
      }
      const uint64_t base = bytes / n;
      for (auto it = bounds.begin(); it != bounds.end();) {
        const uint64_t lo = *it++;
        const uint64_t hi = *it++;
        AddFile(&edit, level, lo, hi, base * 3 / 4 + Uniform(base / 2 + 1));
      }
      if (Uniform(2) == 0) {
        edit.SetCompactPointer(level, InternalKey(Key(Uniform(kKeySpace)), 0, kTypeValue));
      }
    }
    EXPECT_TRUE(vset()->LogAndApply(&edit).ok());
  }

  std::string Inputs(Compaction* c, int which) {
    std::string s = "[";
    for (int i = 0; i < c->num_input_files(which); i++) {
      s += (i > 0 ? " f" : "f") + std::to_string(labels_[c->input(which, i)->number]);
    }
    return s + "]";
  }

  // Prints the job's inputs and applies the result the engine would
  // produce: a trivial move relocates the file; otherwise the inputs' key
  // range is rewritten as evenly spaced 64 KiB records (1/8 dropped when
  // runs merge), cut at target_file_size and wherever ShouldStopBefore says.
  std::string DescribeAndApply(Compaction* c) {
    const CompactionPickerLevelStats& stats = vset()->picker_stats().levels[c->level()];
    const uint64_t splits_before = stats.output_splits.load();
    const bool move = c->IsTrivialMove();
    int outputs = 0;
    if (move) {
      const FileMetaData* f = c->input(0, 0);
      c->edit()->RemoveFile(c->level(), f->number);
      c->edit()->AddFile(c->output_level(), f->number, f->file_size, f->smallest, f->largest);
      outputs = 1;
    } else {
      uint64_t lo = kKeySpace;
      uint64_t hi = 0;
      for (int which = 0; which < 2; which++) {
        for (int i = 0; i < c->num_input_files(which); i++) {
          lo = std::min(lo, KeyNumber(c->input(which, i)->smallest.user_key()));
          hi = std::max(hi, KeyNumber(c->input(which, i)->largest.user_key()));
        }
      }
      const uint64_t in_bytes = static_cast<uint64_t>(c->TotalInputBytes());
      const bool merges = c->level() == 0 || c->num_input_files(1) > 0;
      const uint64_t out_bytes = in_bytes - (merges ? in_bytes / 8 : 0);
      const uint64_t records = std::min(
          hi - lo + 1, std::max<uint64_t>(1, (out_bytes + kRecordBytes - 1) / kRecordBytes));
      c->AddInputDeletions(c->edit());
      CompactionCursor cursor;
      bool open = false;
      uint64_t first = 0, last = 0, size = 0;
      auto finish = [&] {
        AddFile(c->edit(), c->output_level(), first, last, size);
        outputs++;
        open = false;
      };
      for (uint64_t i = 0; i < records; i++) {
        const uint64_t k = records == 1 ? lo : lo + (hi - lo) * i / (records - 1);
        const InternalKey ik(Key(k), 1, kTypeValue);
        if (open && c->ShouldStopBefore(&cursor, ik.Encode())) {
          finish();
        }
        if (!open) {
          open = true;
          first = k;
          size = 0;
        }
        last = k;
        size += out_bytes / records + (i < out_bytes % records ? 1 : 0);
        if (size >= target_) {
          finish();
        }
      }
      if (open) {
        finish();
      }
    }
    char line[160];
    std::snprintf(line, sizeof(line), "    bytes=%lldK move=%d outputs=%d splits=%llu\n",
                  static_cast<long long>(c->TotalInputBytes() >> 10), move ? 1 : 0, outputs,
                  static_cast<unsigned long long>(stats.output_splits.load() - splits_before));
    std::string out = "    in0=" + Inputs(c, 0) + " in1=" + Inputs(c, 1) + "\n" + line;
    EXPECT_TRUE(vset()->LogAndApply(c->edit()).ok());
    return out;
  }

  const int layout_;
  const std::string dir_;
  uint64_t rng_;
  uint64_t target_ = 0;
  std::unique_ptr<StorageEngine> engine_;
  std::map<uint64_t, int> labels_;  // file number -> creation order in this layout
  int next_label_ = 0;
};

TEST(CompactionPickerGoldenTest, SeededLayoutReplayMatchesGolden) {
  ScratchDir dir("comppick-golden");
  std::string actual;
  for (int layout = 0; layout < 44; layout++) {
    actual += PickerReplay(layout, dir.path() + "/layout" + std::to_string(layout)).Run();
  }

  const std::string golden_path = GoldenPath("compaction_picker_replay.txt");
  std::string golden;
  if (FILE* f = std::fopen(golden_path.c_str(), "rb")) {
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      golden.append(buf, n);
    }
    std::fclose(f);
  }
  if (actual == golden) {
    return;
  }
  const std::string actual_path = ::testing::TempDir() + "compaction_picker_replay.actual";
  if (FILE* f = std::fopen(actual_path.c_str(), "wb")) {
    std::fwrite(actual.data(), 1, actual.size(), f);
    std::fclose(f);
  }
  size_t at = 0;
  while (at < actual.size() && at < golden.size() && actual[at] == golden[at]) {
    at++;
  }
  const size_t line_start = actual.rfind('\n', at == 0 ? 0 : at - 1);
  const size_t from = line_start == std::string::npos ? 0 : line_start + 1;
  ADD_FAILURE() << "picker replay differs from " << golden_path << " (" << golden.size()
                << " bytes) at byte " << at << "; actual replay (" << actual.size()
                << " bytes) written to " << actual_path << "\n  golden: "
                << golden.substr(from, golden.find('\n', from) - from)
                << "\n  actual: " << actual.substr(from, actual.find('\n', from) - from);
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
