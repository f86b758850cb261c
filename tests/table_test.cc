#include <gtest/gtest.h>

#include <map>
#include <memory>

#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/table/bloom.h"
#include "src/table/cache.h"
#include "src/table/filter_block.h"
#include "src/table/merging_iterator.h"
#include "src/table/table.h"
#include "src/table/table_builder.h"
#include "src/util/coding.h"
#include "src/util/env.h"
#include "src/util/random.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

TEST(BlockTest, EmptyBlock) {
  Options options;
  BlockBuilder builder(&options, BytewiseComparator());
  Slice raw = builder.Finish();
  std::string copy = raw.ToString();
  BlockContents contents{Slice(copy), false, false};
  Block block(contents);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

class BlockRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(BlockRoundTripTest, RoundTripWithRestartInterval) {
  Options options;
  options.block_restart_interval = GetParam();
  BlockBuilder builder(&options, BytewiseComparator());

  std::map<std::string, std::string> model;
  Random rnd(GetParam());
  for (int i = 0; i < 1000; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key%06d", i * 3);
    std::string value(rnd.Uniform(64), static_cast<char>('a' + (i % 26)));
    model[key] = value;
  }
  for (const auto& [k, v] : model) {
    builder.Add(k, v);
  }
  std::string copy = builder.Finish().ToString();
  BlockContents contents{Slice(copy), false, false};
  Block block(contents);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));

  // Full forward scan.
  iter->SeekToFirst();
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(k, iter->key().ToString());
    EXPECT_EQ(v, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());

  // Seeks, including between-keys probes.
  iter->Seek("key000300");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key000300", iter->key().ToString());
  iter->Seek("key0003000");  // between key000300 and key000303
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key000303", iter->key().ToString());
  iter->Seek("zzz");
  EXPECT_FALSE(iter->Valid());

  // Backward scan.
  iter->SeekToLast();
  for (auto it = model.rbegin(); it != model.rend(); ++it) {
    ASSERT_TRUE(iter->Valid());
    EXPECT_EQ(it->first, iter->key().ToString());
    iter->Prev();
  }
  EXPECT_FALSE(iter->Valid());
}

INSTANTIATE_TEST_SUITE_P(RestartIntervals, BlockRoundTripTest, ::testing::Values(1, 2, 16, 128));

TEST(BloomTest, EmptyFilter) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::string filter;
  policy->CreateFilter(nullptr, 0, &filter);
  EXPECT_FALSE(policy->KeyMayMatch("hello", filter));
}

TEST(BloomTest, NoFalseNegatives) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::vector<std::string> keys;
  std::vector<Slice> key_slices;
  for (int i = 0; i < 10000; i++) {
    keys.push_back("bloom-key-" + std::to_string(i * 7));
  }
  for (const auto& k : keys) {
    key_slices.push_back(Slice(k));
  }
  std::string filter;
  policy->CreateFilter(key_slices.data(), static_cast<int>(key_slices.size()), &filter);
  for (const auto& k : keys) {
    EXPECT_TRUE(policy->KeyMayMatch(k, filter)) << "false negative for " << k;
  }
}

TEST(BloomTest, FalsePositiveRateIsReasonable) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::vector<std::string> keys;
  std::vector<Slice> key_slices;
  for (int i = 0; i < 10000; i++) {
    keys.push_back("member-" + std::to_string(i));
  }
  for (const auto& k : keys) {
    key_slices.push_back(Slice(k));
  }
  std::string filter;
  policy->CreateFilter(key_slices.data(), static_cast<int>(key_slices.size()), &filter);
  int false_positives = 0;
  for (int i = 0; i < 10000; i++) {
    std::string probe = "nonmember-" + std::to_string(i);
    if (policy->KeyMayMatch(probe, filter)) {
      false_positives++;
    }
  }
  // 10 bits/key gives ~1% theoretical; allow generous slack.
  EXPECT_LT(false_positives, 400);
}

TEST(FilterBlockTest, SingleChunk) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  FilterBlockBuilder builder(policy.get());
  builder.StartBlock(100);
  builder.AddKey("foo");
  builder.AddKey("bar");
  builder.AddKey("box");
  builder.StartBlock(200);
  builder.AddKey("box");
  builder.StartBlock(300);
  builder.AddKey("hello");
  Slice block = builder.Finish();
  FilterBlockReader reader(policy.get(), block);
  EXPECT_TRUE(reader.KeyMayMatch(100, "foo"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "bar"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "box"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "hello"));
  EXPECT_TRUE(reader.KeyMayMatch(100, "box"));
  EXPECT_FALSE(reader.KeyMayMatch(100, "missing"));
  EXPECT_FALSE(reader.KeyMayMatch(100, "other"));
}

TEST(CacheTest, HitAndMiss) {
  std::unique_ptr<Cache> cache(NewLRUCache(1000));
  auto encode_key = [](int k) {
    std::string s;
    PutFixed32(&s, k);
    return s;
  };
  auto insert = [&](int key, int value, int charge = 1) {
    std::string k = encode_key(key);
    cache->Release(cache->Insert(k, reinterpret_cast<void*>(static_cast<intptr_t>(value)), charge,
                                 [](const Slice&, void*) {}));
  };
  auto lookup = [&](int key) -> int {
    std::string k = encode_key(key);
    Cache::Handle* h = cache->Lookup(k);
    if (h == nullptr) {
      return -1;
    }
    int v = static_cast<int>(reinterpret_cast<intptr_t>(cache->Value(h)));
    cache->Release(h);
    return v;
  };

  EXPECT_EQ(-1, lookup(100));
  insert(100, 101);
  EXPECT_EQ(101, lookup(100));
  insert(100, 102);  // overwrite
  EXPECT_EQ(102, lookup(100));
  cache->Erase(encode_key(100));
  EXPECT_EQ(-1, lookup(100));
}

TEST(CacheTest, EvictionRespectsPins) {
  std::unique_ptr<Cache> cache(NewLRUCache(16));  // tiny per-shard capacity
  std::string pinned_key;
  PutFixed32(&pinned_key, 7);
  Cache::Handle* pinned =
      cache->Insert(pinned_key, reinterpret_cast<void*>(intptr_t{7}), 1, [](const Slice&, void*) {});
  // Flood the cache far past capacity.
  for (int i = 100; i < 400; i++) {
    std::string k;
    PutFixed32(&k, i);
    cache->Release(cache->Insert(k, reinterpret_cast<void*>(static_cast<intptr_t>(i)), 1,
                                 [](const Slice&, void*) {}));
  }
  // The pinned entry must still be retrievable through its handle.
  EXPECT_EQ(7, static_cast<int>(reinterpret_cast<intptr_t>(cache->Value(pinned))));
  cache->Release(pinned);
}

class TableRoundTripTest : public ::testing::Test {
 protected:
  TableRoundTripTest() : dir_("table"), env_(Env::Default()) {}

  ScratchDir dir_;
  Env* env_;
};

TEST_F(TableRoundTripTest, BuildOpenIterateGet) {
  Options options;
  options.block_size = 1024;  // force many blocks
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));

  std::map<std::string, std::string> model;
  for (int i = 0; i < 5000; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08d", i * 2);
    model[key] = "value-" + std::to_string(i);
  }

  std::string fname = dir_.path() + "/t.sst";
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(fname, &file).ok());
    TableBuilder builder(options, BytewiseComparator(), policy.get(), file.get());
    for (const auto& [k, v] : model) {
      builder.Add(k, v);
    }
    ASSERT_TRUE(builder.Finish().ok());
    EXPECT_EQ(model.size(), builder.NumEntries());
    ASSERT_TRUE(file->Close().ok());
  }

  uint64_t file_size;
  ASSERT_TRUE(env_->GetFileSize(fname, &file_size).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
  std::unique_ptr<Cache> block_cache(NewLRUCache(1 << 20));

  Table* table_raw = nullptr;
  ASSERT_TRUE(Table::Open(options, BytewiseComparator(), policy.get(), block_cache.get(),
                          file.get(), file_size, &table_raw)
                  .ok());
  std::unique_ptr<Table> table(table_raw);

  // Full scan matches the model.
  ReadOptions ro;
  {
    std::unique_ptr<Iterator> iter(table->NewIterator(ro));
    iter->SeekToFirst();
    for (const auto& [k, v] : model) {
      ASSERT_TRUE(iter->Valid());
      EXPECT_EQ(k, iter->key().ToString());
      EXPECT_EQ(v, iter->value().ToString());
      iter->Next();
    }
    EXPECT_FALSE(iter->Valid());
  }

  // Point gets through InternalGet.
  struct Result {
    bool found = false;
    std::string key, value;
  };
  auto handler = [](void* arg, const Slice& k, const Slice& v) {
    Result* r = reinterpret_cast<Result*>(arg);
    r->found = true;
    r->key = k.ToString();
    r->value = v.ToString();
  };
  for (int i = 0; i < 5000; i += 97) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08d", i * 2);
    Result r;
    ASSERT_TRUE(table->InternalGet(ro, key, &r, handler).ok());
    ASSERT_TRUE(r.found);
    EXPECT_EQ(key, r.key);
    EXPECT_EQ(model[key], r.value);
  }

  // Reads served twice hit the block cache (usage grows then stabilizes).
  size_t usage_after = block_cache->TotalCharge();
  EXPECT_GT(usage_after, 0u);
}

// Forwards to a real file and counts the Flush calls made on it.
class CountingWritableFile final : public WritableFile {
 public:
  explicit CountingWritableFile(std::unique_ptr<WritableFile> base) : base_(std::move(base)) {}

  Status Append(const Slice& data) override { return base_->Append(data); }
  Status Close() override { return base_->Close(); }
  Status Flush() override {
    flushes++;
    return base_->Flush();
  }
  Status Sync() override { return base_->Sync(); }

  int flushes = 0;

 private:
  std::unique_ptr<WritableFile> base_;
};

TEST_F(TableRoundTripTest, BuilderLeavesFlushingToTheFile) {
  // A multi-MiB table of 4 KiB blocks: the builder only appends, so the
  // file's buffer, not one write per block, decides when bytes leave.
  Options options;
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::map<std::string, std::string> model;
  Random rnd(301);
  for (int i = 0; i < 14000; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08d", i);
    std::string value(256, '\0');
    for (char& c : value) {
      c = static_cast<char>('a' + rnd.Uniform(26));
    }
    model[key] = value;
  }

  std::string fname = dir_.path() + "/stream.sst";
  {
    std::unique_ptr<WritableFile> base;
    ASSERT_TRUE(env_->NewWritableFile(fname, &base).ok());
    CountingWritableFile file(std::move(base));
    TableBuilder builder(options, BytewiseComparator(), policy.get(), &file);
    for (const auto& [k, v] : model) {
      builder.Add(k, v);
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_GT(builder.FileSize(), 3u << 20);
    EXPECT_EQ(0, file.flushes);
    ASSERT_TRUE(file.Sync().ok());
    ASSERT_TRUE(file.Close().ok());
  }

  uint64_t file_size;
  ASSERT_TRUE(env_->GetFileSize(fname, &file_size).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
  Table* table_raw = nullptr;
  ASSERT_TRUE(Table::Open(options, BytewiseComparator(), policy.get(), nullptr, file.get(),
                          file_size, &table_raw)
                  .ok());
  std::unique_ptr<Table> table(table_raw);
  std::unique_ptr<Iterator> iter(table->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(iter->Valid());
    ASSERT_EQ(k, iter->key().ToString());
    ASSERT_EQ(v, iter->value().ToString());
    iter->Next();
  }
  EXPECT_FALSE(iter->Valid());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableRoundTripTest, CorruptFooterIsRejected) {
  std::string fname = dir_.path() + "/bad.sst";
  ASSERT_TRUE(WriteStringToFileSync(env_, std::string(2000, 'g'), fname).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
  Options options;
  Table* table = nullptr;
  Status s = Table::Open(options, BytewiseComparator(), nullptr, nullptr, file.get(), 2000, &table);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(nullptr, table);
}

TEST(MergingIteratorTest, MergesSortedStreams) {
  Options options;
  options.block_restart_interval = 4;
  // Build three blocks with interleaved keys and merge their iterators.
  std::vector<std::string> storage;
  std::vector<Iterator*> children;
  for (int c = 0; c < 3; c++) {
    BlockBuilder builder(&options, BytewiseComparator());
    for (int i = 0; i < 100; i++) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%05d", i * 3 + c);
      builder.Add(key, "v");
    }
    storage.push_back(builder.Finish().ToString());
  }
  std::vector<std::unique_ptr<Block>> blocks;
  for (auto& s : storage) {
    BlockContents contents{Slice(s), false, false};
    blocks.push_back(std::make_unique<Block>(contents));
    children.push_back(blocks.back()->NewIterator(BytewiseComparator()));
  }
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(BytewiseComparator(), children.data(), 3));
  merged->SeekToFirst();
  for (int i = 0; i < 300; i++) {
    ASSERT_TRUE(merged->Valid());
    char key[32];
    std::snprintf(key, sizeof(key), "key%05d", i);
    EXPECT_EQ(key, merged->key().ToString());
    merged->Next();
  }
  EXPECT_FALSE(merged->Valid());

  // Directional switches.
  merged->Seek("key00150");
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("key00150", merged->key().ToString());
  merged->Prev();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("key00149", merged->key().ToString());
  merged->Next();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("key00150", merged->key().ToString());
}

}  // namespace
}  // namespace clsm
