// Key-range subcompactions: a merge split into ranges must emit exactly the
// entries the unsplit merge emits. Seeded layouts of real tables (level 0
// over level 1 over level 2) are compacted as one level-0 -> level-1 job
// run as 1, 2, 3 and 4 ranges on a live worker pool, and the concatenated
// outputs are compared entry for entry. The layouts hold a snapshot below
// the newest versions, deletion markers at and above the base level, and
// at every level-1 file boundary one user key whose many versions straddle
// it — the boundaries are where the ranges are cut.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/lsm/filename.h"
#include "src/lsm/storage_engine.h"
#include "src/table/table.h"
#include "src/table/table_builder.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

constexpr int kKeySpace = 3000;
constexpr int kLevel1Files = 6;
constexpr int kLevel0Files = 4;
constexpr int kStraddleVersions = 24;  // per boundary key, half on each side

std::string Key(int k) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05d", k);
  return buf;
}

struct Entry {
  std::string user_key;
  SequenceNumber seq;
  ValueType type;
  std::string value;
};

// Builds one seeded layout in a fresh engine, picks its level-0 job and
// runs it as `ranges` key ranges; returns the job's outputs, in edit order.
class SplitMergeRun {
 public:
  SplitMergeRun(int layout, const std::string& dir) : rng_(0x9E3779B97F4A7C15ull * (layout + 1)) {
    options_.target_file_size = 4 * 1024;
    options_.l0_compaction_trigger = 2;
    engine_ = std::make_unique<StorageEngine>(options_, dir);
    MemTable* recovered = nullptr;
    SequenceNumber max_seq = 0;
    EXPECT_TRUE(engine_->Open(&recovered, &max_seq).ok());
    if (recovered != nullptr) {
      recovered->Unref();
    }
  }

  // Returns the output files of the job; *entries receives their entries
  // concatenated in edit order.
  std::vector<FileMetaData> Run(SequenceNumber smallest_snapshot, int ranges,
                                std::vector<std::string>* entries) {
    BuildLayout();
    std::unique_ptr<Compaction> c(engine_->versions()->PickCompaction());
    EXPECT_NE(nullptr, c);
    if (c == nullptr) {
      return {};
    }
    EXPECT_EQ(0, c->level());
    EXPECT_EQ(kLevel0Files, c->num_input_files(0));
    EXPECT_EQ(kLevel1Files, c->num_input_files(1));
    EXPECT_EQ(static_cast<size_t>(ranges - 1), c->RangeCuts(ranges).size());

    // Idle workers take the ranges this thread offers; they find no job of
    // their own, since the picked one owns levels 0 and 1.
    engine_->StartCompactionScheduler(
        4, [smallest_snapshot] { return smallest_snapshot; }, nullptr);
    EXPECT_TRUE(engine_->RunCompaction(c.get(), smallest_snapshot, ranges).ok());
    EXPECT_EQ(static_cast<uint64_t>(ranges),
              engine_->compaction_stats()->level(0).subcompactions.load());

    std::vector<FileMetaData> outputs;
    for (const auto& [level, meta] : c->edit()->new_files()) {
      EXPECT_EQ(1, level);
      outputs.push_back(meta);
    }
    for (const FileMetaData& f : outputs) {
      std::unique_ptr<RandomAccessFile> file;
      EXPECT_TRUE(
          engine_->env()->NewRandomAccessFile(TableFileName(engine_->dbname(), f.number), &file).ok());
      BlockCache block_cache(0);
      Table* raw = nullptr;
      EXPECT_TRUE(Table::Open(engine_->options(), engine_->icmp(), nullptr, &block_cache,
                              std::move(file), f.file_size, &raw)
                      .ok());
      std::unique_ptr<Table> table(raw);
      if (table == nullptr) {
        continue;
      }
      std::unique_ptr<Iterator> it(table->NewIterator(ReadOptions()));
      for (it->SeekToFirst(); it->Valid(); it->Next()) {
        entries->push_back(it->key().ToString() + "=" + it->value().ToString());
      }
      EXPECT_TRUE(it->status().ok());
    }
    return outputs;
  }

 private:
  uint64_t Uniform(uint64_t n) {  // splitmix64: same stream on every platform
    uint64_t z = (rng_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (z ^ (z >> 31)) % n;
  }

  // Writes `entries` (any order) as one table at `level`.
  void AddTable(VersionEdit* edit, int level, std::vector<Entry> entries) {
    const InternalKeyComparator* icmp = engine_->icmp();
    std::sort(entries.begin(), entries.end(), [icmp](const Entry& a, const Entry& b) {
      return icmp->Compare(InternalKey(a.user_key, a.seq, a.type).Encode(),
                           InternalKey(b.user_key, b.seq, b.type).Encode()) < 0;
    });
    const uint64_t number = engine_->versions()->NewFileNumber();
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(
        engine_->env()->NewWritableFile(TableFileName(engine_->dbname(), number), &file).ok());
    TableBuilder builder(engine_->options(), icmp, nullptr, file.get());
    for (const Entry& e : entries) {
      builder.Add(InternalKey(e.user_key, e.seq, e.type).Encode(), e.value);
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Sync().ok());
    ASSERT_TRUE(file->Close().ok());
    const Entry& first = entries.front();
    const Entry& last = entries.back();
    edit->AddFile(level, number, builder.FileSize(),
                  InternalKey(first.user_key, first.seq, first.type),
                  InternalKey(last.user_key, last.seq, last.type));
  }

  Entry Random(int k, SequenceNumber seq, int deletion_percent, size_t value_size) {
    const bool deletion = static_cast<int>(Uniform(100)) < deletion_percent;
    return Entry{Key(k), seq, deletion ? kTypeDeletion : kTypeValue,
                 deletion ? std::string() : std::string(value_size, 'a' + seq % 26)};
  }

  // Sequence bands: level 2 below 10000, level 1 in [10000, 20000), level-0
  // file j in [20000 + 10000 j, 30000 + 10000 j).
  void BuildLayout() {
    VersionEdit edit;
    // Level 2, the grandparents: three files with gaps between them, so the
    // base-level test answers both ways; large enough to cut outputs.
    SequenceNumber seq = 1;
    for (int f = 0; f < 3; f++) {
      std::vector<Entry> entries;
      for (int k = 100 + f * 1100; k <= 600 + f * 1100; k += 2) {
        entries.push_back(Entry{Key(k), seq++, kTypeValue, std::string(300, 'g')});
      }
      AddTable(&edit, 2, entries);
    }
    // Level 1: disjoint files over equal key spans; boundary key b (the
    // first key of file f) has versions on both sides of the boundary.
    const int span = kKeySpace / kLevel1Files;
    std::vector<std::vector<Entry>> level1(kLevel1Files);
    seq = 10000;
    for (int f = 0; f < kLevel1Files; f++) {
      for (int i = 0; i < 60; i++) {
        const int k = f * span + 1 + static_cast<int>(Uniform(span - 1));
        level1[f].push_back(Random(k, seq++, 15, 40));
      }
    }
    for (int f = 1; f < kLevel1Files; f++) {
      for (int v = 0; v < kStraddleVersions; v++) {
        // Older versions open file f, newer ones close file f - 1.
        level1[v < kStraddleVersions / 2 ? f : f - 1].push_back(Random(f * span, seq++, 25, 40));
      }
    }
    for (int f = 0; f < kLevel1Files; f++) {
      AddTable(&edit, 1, level1[f]);
    }
    // Level 0: overlapping files over the whole key space, newest last,
    // with more versions of the boundary keys.
    for (int j = 0; j < kLevel0Files; j++) {
      seq = 20000 + 10000 * j;
      std::vector<Entry> entries;
      for (int i = 0; i < 150; i++) {
        entries.push_back(Random(static_cast<int>(Uniform(kKeySpace)), seq++, 20, 40));
      }
      for (int f = 1; f < kLevel1Files; f++) {
        entries.push_back(Random(f * span, seq++, 30, 40));
      }
      AddTable(&edit, 0, entries);
    }
    ASSERT_TRUE(engine_->versions()->LogAndApply(&edit).ok());
  }

  uint64_t rng_;
  Options options_;
  std::unique_ptr<StorageEngine> engine_;
};

TEST(SubcompactionTest, SplitMergeEqualsSequentialMerge) {
  ScratchDir dir("subcompaction");
  // No snapshot, then snapshots inside the level-0, level-1 and oldest
  // level-0 bands: each keeps more shadowed versions and markers.
  const SequenceNumber snapshots[] = {kMaxSequenceNumber, 45000, 15000, 25000};
  for (int layout = 0; layout < 8; layout++) {
    SCOPED_TRACE("layout " + std::to_string(layout));
    const SequenceNumber snapshot = snapshots[layout % 4];
    std::vector<std::string> sequential;
    for (int ranges = 1; ranges <= 4; ranges++) {
      SCOPED_TRACE("ranges " + std::to_string(ranges));
      SplitMergeRun run(layout,
                        dir.path() + "/l" + std::to_string(layout) + "r" + std::to_string(ranges));
      std::vector<std::string> entries;
      const std::vector<FileMetaData> outputs = run.Run(snapshot, ranges, &entries);
      ASSERT_FALSE(outputs.empty());
      // The outputs are sorted and disjoint within the edit.
      const InternalKeyComparator icmp(BytewiseComparator());
      for (size_t i = 0; i < outputs.size(); i++) {
        EXPECT_LE(icmp.Compare(outputs[i].smallest.Encode(), outputs[i].largest.Encode()), 0);
        if (i > 0) {
          EXPECT_LT(icmp.Compare(outputs[i - 1].largest.Encode(), outputs[i].smallest.Encode()),
                    0)
              << i;
        }
      }
      if (ranges == 1) {
        sequential = entries;
        // The layout exercises the drop rule: something was dropped.
        const int inputs = kLevel0Files * (150 + kLevel1Files - 1) + kLevel1Files * 60 +
                           (kLevel1Files - 1) * kStraddleVersions;
        EXPECT_LT(sequential.size(), static_cast<size_t>(inputs));
      } else {
        ASSERT_EQ(sequential.size(), entries.size());
        for (size_t i = 0; i < entries.size(); i++) {
          ASSERT_EQ(sequential[i], entries[i]) << "entry " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace clsm
