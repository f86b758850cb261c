#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "src/obs/perf_context.h"
#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/table/bloom.h"
#include "src/table/cache.h"
#include "src/table/format.h"
#include "src/table/merging_iterator.h"
#include "src/table/table.h"
#include "src/table/table_builder.h"
#include "src/util/env.h"
#include "src/util/hash.h"
#include "src/util/random.h"
#include "tests/test_util.h"

// This binary replaces the global operator new and delete to count heap
// allocations: per thread (what one call allocates) and live in the
// process (what a scope leaves behind).
namespace {
thread_local uint64_t tls_allocations = 0;
std::atomic<int64_t> live_allocations{0};

void* CountedAlloc(std::size_t size) noexcept {
  tls_allocations++;
  live_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void CountedFree(void* p) noexcept {
  if (p != nullptr) {
    live_allocations.fetch_sub(1, std::memory_order_relaxed);
    std::free(p);
  }
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept { return CountedAlloc(size); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { CountedFree(p); }

namespace clsm {
namespace {

// A block holding a copy of bytes, owned by the caller.
std::unique_ptr<Block> CopyOf(const Slice& bytes) {
  return std::unique_ptr<Block>(Block::Copy(bytes));
}

TEST(BlockTest, EmptyBlock) {
  Options options;
  BlockBuilder builder(&options, BytewiseComparator());
  std::unique_ptr<Block> block = CopyOf(builder.Finish());
  std::unique_ptr<Iterator> iter(block->NewIterator(BytewiseComparator()));
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
  std::unique_ptr<Block> block = CopyOf(builder.Finish());
  std::unique_ptr<Iterator> iter(block->NewIterator(BytewiseComparator()));

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

// A filter over keys, built as a table builder builds one: from their hashes.
std::string FilterOver(const FilterPolicy& policy, const std::vector<std::string>& keys) {
  std::vector<uint32_t> hashes;
  for (const std::string& k : keys) {
    hashes.push_back(policy.KeyHash(k));
  }
  std::string filter;
  policy.CreateFilter(hashes.data(), hashes.size(), &filter);
  return filter;
}

TEST(BloomTest, EmptyFilter) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  const std::string filter = FilterOver(*policy, {});
  EXPECT_FALSE(policy->KeyMayMatch("hello", filter));
}

TEST(BloomTest, NoFalseNegatives) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::vector<std::string> keys;
  for (int i = 0; i < 10000; i++) {
    keys.push_back("bloom-key-" + std::to_string(i * 7));
  }
  const std::string filter = FilterOver(*policy, keys);
  for (const auto& k : keys) {
    EXPECT_TRUE(policy->KeyMayMatch(k, filter)) << "false negative for " << k;
  }
}

TEST(BloomTest, FalsePositiveRateIsReasonable) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::vector<std::string> keys;
  for (int i = 0; i < 10000; i++) {
    keys.push_back("member-" + std::to_string(i));
  }
  const std::string filter = FilterOver(*policy, keys);
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

// Filters the size of one data block (15 keys, as a 4 KiB block of 256-byte
// values holds) over integer keys in three layouts, each probed with every
// absent key inside its range and within 15 of either end: a small table's
// filter, and the layout tables carried when each block had its own.
TEST(BloomTest, StructuredKeysInBlockSizedFilters) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  constexpr int kKeysPerFilter = 15;
  constexpr int kFilters = 1000;
  struct Layout {
    const char* name;
    uint64_t (*gap)(Random*);
  };
  const Layout layouts[] = {
      {"dense", [](Random*) -> uint64_t { return 1; }},
      {"stride 10", [](Random*) -> uint64_t { return 10; }},
      {"random gaps 1-20", [](Random* rnd) -> uint64_t { return 1 + rnd->Uniform(20); }},
  };
  for (const Layout& layout : layouts) {
    Random rnd(301);
    uint64_t next = kKeysPerFilter;
    int probes = 0;
    int false_positives = 0;
    for (int f = 0; f < kFilters; f++) {
      std::vector<uint64_t> members;
      std::vector<std::string> keys;
      for (int i = 0; i < kKeysPerFilter; i++) {
        members.push_back(next);
        keys.push_back(BigEndianKey(next));
        next += layout.gap(&rnd);
      }
      const std::string filter = FilterOver(*policy, keys);
      for (const std::string& k : keys) {
        ASSERT_TRUE(policy->KeyMayMatch(k, filter)) << layout.name;
      }
      size_t m = 0;
      for (uint64_t v = members.front() - kKeysPerFilter; v <= members.back() + kKeysPerFilter;
           v++) {
        if (m < members.size() && members[m] == v) {
          m++;
          continue;
        }
        probes++;
        if (policy->KeyMayMatch(BigEndianKey(v), filter)) {
          false_positives++;
        }
      }
    }
    // 10 bits/key gives ~1% in theory.
    EXPECT_LT(false_positives, probes * 3 / 100)
        << layout.name << ": " << false_positives << " false positives in " << probes
        << " probes";
  }
}

// One filter the size of a 2 MiB table's (~7.5K keys of 256-byte values):
// integer keys at stride 2, probed with every odd key between them.
TEST(BloomTest, TableSizedFilterOverStridedIntegerKeys) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  constexpr uint64_t kKeys = 7500;
  std::vector<std::string> keys;
  for (uint64_t i = 0; i < kKeys; i++) {
    keys.push_back(BigEndianKey(2 * i));
  }
  const std::string filter = FilterOver(*policy, keys);
  EXPECT_EQ(kKeys * 10 / 8 + 1, filter.size()) << "10 bits per key and the probe count";
  for (const std::string& k : keys) {
    ASSERT_TRUE(policy->KeyMayMatch(k, filter));
  }
  uint64_t false_positives = 0;
  for (uint64_t i = 0; i < kKeys; i++) {
    if (policy->KeyMayMatch(BigEndianKey(2 * i + 1), filter)) {
      false_positives++;
    }
  }
  EXPECT_LT(false_positives, kKeys * 2 / 100) << false_positives << " in " << kKeys;
}

// The hash filters used before it was finalized, under the name they had
// then: a policy that hashes as the current one does not.
class UnmixedBloomPolicy final : public FilterPolicy {
 public:
  const char* Name() const override { return "clsm.BuiltinBloomFilter"; }

  uint32_t KeyHash(const Slice& key) const override {
    return Hash(key.data(), key.size(), 0xbc9f1d34);
  }

  void CreateFilter(const uint32_t* hashes, size_t n, std::string* dst) const override {
    const size_t bytes = (std::max<size_t>(n * 10, 64) + 7) / 8;
    const size_t bits = bytes * 8;
    const size_t init_size = dst->size();
    dst->resize(init_size + bytes, 0);
    dst->push_back(static_cast<char>(kProbes));
    char* array = &(*dst)[init_size];
    for (size_t i = 0; i < n; i++) {
      uint32_t h = hashes[i];
      const uint32_t delta = (h >> 17) | (h << 15);
      for (int j = 0; j < kProbes; j++) {
        const uint32_t bitpos = h % bits;
        array[bitpos / 8] |= (1 << (bitpos % 8));
        h += delta;
      }
    }
  }

  bool HashMayMatch(uint32_t h, const Slice& filter) const override {
    const size_t bits = (filter.size() - 1) * 8;
    const uint32_t delta = (h >> 17) | (h << 15);
    for (int j = 0; j < kProbes; j++) {
      const uint32_t bitpos = h % bits;
      if ((filter[bitpos / 8] & (1 << (bitpos % 8))) == 0) {
        return false;
      }
      h += delta;
    }
    return true;
  }

 private:
  static constexpr int kProbes = 6;  // 10 bits/key * ln 2, rounded down
};

// A one-entry block holding value: a cache value the tests can tell apart.
Block* ValueBlock(int value) {
  Options options;
  BlockBuilder builder(&options, BytewiseComparator());
  builder.Add("v", std::to_string(value));
  return Block::Copy(builder.Finish());
}

int BlockValue(Block* block) {
  std::unique_ptr<Iterator> iter(block->NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  return std::stoi(iter->value().ToString());
}

TEST(CacheTest, HitAndMiss) {
  BlockCache cache(1000);
  auto insert = [&](uint64_t offset, int value) {
    Block* block = ValueBlock(value);
    cache.Insert(1, offset, block);
    BlockCache::Release(block);
  };
  auto lookup = [&](uint64_t table_id, uint64_t offset) -> int {
    Block* block = cache.Lookup(table_id, offset);
    if (block == nullptr) {
      return -1;
    }
    int v = BlockValue(block);
    BlockCache::Release(block);
    return v;
  };

  EXPECT_EQ(-1, lookup(1, 100));
  insert(100, 101);
  EXPECT_EQ(101, lookup(1, 100));
  EXPECT_EQ(-1, lookup(2, 100));  // another table's block at the same offset
  insert(100, 102);  // overwrite
  EXPECT_EQ(102, lookup(1, 100));
}

TEST(CacheTest, EvictionRespectsPins) {
  BlockCache cache(16);  // tiny per-shard capacity
  auto insert = [&](uint64_t offset, int value) {
    Block* block = ValueBlock(value);
    cache.Insert(1, offset, block);
    BlockCache::Release(block);
  };
  Block* pinned = ValueBlock(7);
  cache.Insert(1, 7, pinned);
  // Flood the cache far past capacity.
  for (int i = 100; i < 400; i++) {
    insert(i, i);
  }
  // The pinned block must still be readable.
  EXPECT_EQ(7, BlockValue(pinned));
  // Replacing the entry takes it out of the cache; its block lives on.
  insert(7, 8);
  EXPECT_EQ(7, BlockValue(pinned));
  BlockCache::Release(pinned);
}

// Four threads pin and release blocks through a cache of 32 bytes per
// shard (about two blocks) while their own inserts evict and replace the
// same blocks: Release drops pins with no lock while an insert takes the
// blocks out of the cache under the shard mutex, and whichever of the two
// drops the last reference frees the block. Every pinned block must read
// its value; after the join the cache fits its capacity, and once it is
// destroyed every block is freed.
TEST(CacheTest, LockFreeReleaseRacesEviction) {
  constexpr size_t kCapacity = 16 * 32;
  constexpr int kThreads = 4;
  constexpr int kKeys = 64;
  const int64_t live_before = live_allocations.load();
  {
    BlockCache cache(kCapacity);
    std::atomic<int> ready{0};
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        Random rnd(401 + t);
        Block* held[2] = {nullptr, nullptr};  // pins outlive the next insert
        ready++;
        while (ready.load() < kThreads) {
        }
        for (int i = 0; i < 20000; i++) {
          const int key = static_cast<int>(rnd.Uniform(kKeys));
          Block* block = cache.Lookup(1, key);
          if (block == nullptr) {
            block = ValueBlock(key);
            cache.Insert(1, key, block);
          }
          if (BlockValue(block) != key) {
            wrong++;
          }
          if (held[i % 2] != nullptr) {
            BlockCache::Release(held[i % 2]);
          }
          held[i % 2] = block;
        }
        for (Block* block : held) {
          BlockCache::Release(block);
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    EXPECT_EQ(0, wrong.load());
    EXPECT_LE(cache.TotalCharge(), kCapacity);
  }
  EXPECT_EQ(live_before, live_allocations.load()) << "blocks left allocated";
}

// keys k00000000, k00000002, ... each with a value of value_size bytes.
std::map<std::string, std::string> EvenKeys(int n, size_t value_size) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < n; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08d", i * 2);
    std::string value = "value-" + std::to_string(i);
    value.resize(std::max(value.size(), value_size), '.');
    model[key] = value;
  }
  return model;
}

// Point-reads key through InternalGet: its value, or "NOTFOUND".
std::string TableGet(Table* table, const std::string& key) {
  struct Probe {
    Slice key;
    std::string value = "NOTFOUND";
  } probe{key};
  auto handler = [](void* arg, const Slice& k, const Slice& v) {
    Probe* p = reinterpret_cast<Probe*>(arg);
    if (k != p->key) {
      return false;
    }
    p->value = v.ToString();
    return true;
  };
  Status s = table->InternalGet(ReadOptions(), key, &probe, handler);
  return s.ok() ? probe.value : s.ToString();
}

class TableRoundTripTest : public ::testing::Test {
 protected:
  TableRoundTripTest() : dir_("table"), env_(Env::Default()) {}

  // Writes model as table `name` with the default Bloom policy and opens
  // it through block_cache.
  std::unique_ptr<Table> BuildTable(const std::string& name, const Options& options,
                                    const std::map<std::string, std::string>& model,
                                    BlockCache* block_cache) {
    const std::string fname = dir_.path() + "/" + name;
    std::unique_ptr<WritableFile> out;
    EXPECT_TRUE(env_->NewWritableFile(fname, &out).ok());
    TableBuilder builder(options, BytewiseComparator(), policy_.get(), out.get());
    for (const auto& [k, v] : model) {
      builder.Add(k, v);
    }
    EXPECT_TRUE(builder.Finish().ok());
    EXPECT_EQ(model.size(), builder.NumEntries());
    EXPECT_TRUE(out->Close().ok());

    uint64_t file_size = 0;
    EXPECT_TRUE(env_->GetFileSize(fname, &file_size).ok());
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
    Table* table = nullptr;
    EXPECT_TRUE(Table::Open(options, BytewiseComparator(), policy_.get(), block_cache,
                            std::move(file), file_size, &table)
                    .ok());
    return std::unique_ptr<Table>(table);
  }

  ScratchDir dir_;
  Env* env_;
  std::unique_ptr<const FilterPolicy> policy_{NewBloomFilterPolicy(10)};
};

TEST_F(TableRoundTripTest, BuildOpenIterateGet) {
  Options options;
  options.block_size = 1024;  // force many blocks
  std::map<std::string, std::string> model = EvenKeys(5000, 0);
  BlockCache block_cache(1 << 20);
  std::unique_ptr<Table> table = BuildTable("t.sst", options, model, &block_cache);
  ASSERT_NE(nullptr, table);

  // Full scan matches the model.
  {
    std::unique_ptr<Iterator> iter(table->NewIterator(ReadOptions()));
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
  for (int i = 0; i < 5000; i += 97) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08d", i * 2);
    EXPECT_EQ(model[key], TableGet(table.get(), key));
  }

  // The blocks read are cached.
  EXPECT_GT(block_cache.TotalCharge(), 0u);
}

// A zero-capacity cache caches nothing: every probe reads its block, even
// the second probe of the same key.
TEST_F(TableRoundTripTest, ZeroCapacityCacheReadsEveryBlock) {
  Options options;
  options.block_size = 1024;
  std::map<std::string, std::string> model = EvenKeys(2000, 0);
  BlockCache block_cache(0);
  std::unique_ptr<Table> table = BuildTable("zero.sst", options, model, &block_cache);
  ASSERT_NE(nullptr, table);

  uint64_t probes = 0;
  PerfContextStartOp(PerfLevel::kEnableCounts);
  for (int round = 0; round < 2; round++) {
    for (int i = 0; i < 2000; i += 37) {
      char key[32];
      std::snprintf(key, sizeof(key), "k%08d", i * 2);
      EXPECT_EQ(model[key], TableGet(table.get(), key));
      probes++;
    }
  }
  const PerfContext counts = *GetPerfContext();
  PerfContextStartOp(PerfLevel::kDisabled);
  EXPECT_EQ(probes, counts.block_reads);
  EXPECT_EQ(0u, counts.block_cache_hits);
  EXPECT_EQ(0u, block_cache.TotalCharge());
}

// Four readers mix point gets and full scans over a table of 1 KiB blocks
// through a 4 KiB cache. A shard (256 B) keeps no block once it is
// unpinned, so each block is evicted as its last reader lets go. Most gets
// go to the first four blocks: readers then miss the same block at about
// the same time, and each inserts its own copy, replacing (evicting) the
// copy another reader still reads. Every value read must be right, and the
// cache must fit its capacity once no reader pins a block.
TEST_F(TableRoundTripTest, ConcurrentReadersThroughATinyCache) {
  Options options;
  options.block_size = 1024;
  const std::map<std::string, std::string> model = EvenKeys(2000, 100);
  const std::vector<std::pair<std::string, std::string>> entries(model.begin(), model.end());
  constexpr int kHotKeys = 36;  // ~9 entries per block
  constexpr size_t kCapacity = 4 << 10;
  BlockCache block_cache(kCapacity);
  std::unique_ptr<Table> table = BuildTable("tiny.sst", options, model, &block_cache);
  ASSERT_NE(nullptr, table);

  constexpr int kReaders = 4;
  std::atomic<int> ready{0};
  std::atomic<int> wrong{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; t++) {
    readers.emplace_back([&, t] {
      Random rnd(301 + t);
      ready++;
      while (ready.load() < kReaders) {
      }
      for (int round = 0; round < 4; round++) {
        for (int i = 0; i < 5000; i++) {
          const int n = i % 4 == 0 ? static_cast<int>(entries.size()) : kHotKeys;
          const auto& [k, v] = entries[rnd.Uniform(n)];
          if (TableGet(table.get(), k) != v) {
            wrong++;
          }
        }
        std::unique_ptr<Iterator> iter(table->NewIterator(ReadOptions()));
        iter->SeekToFirst();
        for (const auto& [k, v] : entries) {
          if (!iter->Valid() || iter->key() != Slice(k) || iter->value() != Slice(v)) {
            wrong++;
            break;
          }
          iter->Next();
        }
        if (iter->Valid() || !iter->status().ok()) {
          wrong++;
        }
      }
    });
  }
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(0, wrong.load());
  EXPECT_LE(block_cache.TotalCharge(), kCapacity);
}

// A point lookup allocates only what it caches: on a block-cache hit it
// makes no heap allocation (both seeks run in place on a reused key
// buffer), and on a miss at most two, the block (header and bytes in one)
// and, when the shard's hash table grows, its bucket array. The keys are
// 16 bytes, like an 8-byte user key and its tag, too long for a
// std::string to keep inline.
TEST_F(TableRoundTripTest, PointLookupAllocatesOnlyWhatItCaches) {
  Options options;
  options.block_size = 1024;
  std::map<std::string, std::string> model;
  for (int i = 0; i < 4000; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "key-%012d", i);
    model[key] = std::string(64, 'v');
  }
  for (const size_t capacity : {size_t{1} << 20, size_t{4} << 10}) {
    SCOPED_TRACE(capacity);
    BlockCache block_cache(capacity);
    std::unique_ptr<Table> table =
        BuildTable("alloc-" + std::to_string(capacity) + ".sst", options, model, &block_cache);
    ASSERT_NE(nullptr, table);
    auto handler = [](void* arg, const Slice& k, const Slice&) {
      return k == *reinterpret_cast<const Slice*>(arg);
    };
    // Allocations made by one lookup of key, which must be found.
    auto allocations = [&](const std::string& key) {
      Slice probe(key);
      const uint64_t before = tls_allocations;
      const Status s = table->InternalGet(ReadOptions(), probe, &probe, handler);
      const uint64_t made = tls_allocations - before;
      EXPECT_TRUE(s.ok());
      return made;
    };
    std::vector<std::string> keys;
    for (const auto& [k, v] : model) {
      keys.push_back(k);
    }
    allocations(keys[0]);  // grows this thread's key buffer
    uint64_t most_per_miss = 0;
    for (size_t i = 0; i < keys.size(); i += 20) {  // every 20th key: a block not read yet
      most_per_miss = std::max(most_per_miss, allocations(keys[i]));
      if (capacity > (size_t{64} << 10)) {
        EXPECT_EQ(0u, allocations(keys[i])) << keys[i] << ": a cache hit";
      }
    }
    EXPECT_LE(most_per_miss, 2u);
  }
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
  BlockCache block_cache(0);
  Table* table_raw = nullptr;
  ASSERT_TRUE(Table::Open(options, BytewiseComparator(), policy.get(), &block_cache,
                          std::move(file), file_size, &table_raw)
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

// Sums the filter and read counters of a run of InternalGet probes on this
// thread.
struct ProbeTotals {
  uint64_t useful = 0;
  uint64_t false_positives = 0;
  uint64_t index_seeks = 0;
  uint64_t block_reads = 0;
};
ProbeTotals ProbeCounts(Table* table, const std::vector<std::string>& keys, bool expect_found) {
  auto handler = [](void* arg, const Slice& k, const Slice&) {
    const bool matched = k == *reinterpret_cast<Slice*>(arg);
    *reinterpret_cast<Slice*>(arg) = matched ? Slice("found") : Slice();
    return matched;
  };
  ProbeTotals totals;
  PerfContextStartOp(PerfLevel::kEnableCounts);
  for (const std::string& key : keys) {
    Slice probe(key);
    EXPECT_TRUE(table->InternalGet(ReadOptions(), key, &probe, handler).ok());
    EXPECT_EQ(expect_found, probe == Slice("found"));
  }
  const PerfContext& ctx = *GetPerfContext();
  totals.useful = ctx.bloom_useful;
  totals.false_positives = ctx.bloom_false_positives;
  totals.index_seeks = ctx.index_seeks;
  totals.block_reads = ctx.block_reads;
  PerfContextStartOp(PerfLevel::kDisabled);
  return totals;
}

// The metaindex of table file fname: each key and the handle it names.
std::map<std::string, BlockHandle> MetaIndexOf(Env* env, const std::string& fname) {
  std::map<std::string, BlockHandle> entries;
  uint64_t size = 0;
  EXPECT_TRUE(env->GetFileSize(fname, &size).ok());
  std::unique_ptr<RandomAccessFile> file;
  EXPECT_TRUE(env->NewRandomAccessFile(fname, &file).ok());
  char space[Footer::kEncodedLength];
  Slice input;
  EXPECT_TRUE(
      file->Read(size - Footer::kEncodedLength, Footer::kEncodedLength, &input, space).ok());
  Footer footer;
  EXPECT_TRUE(footer.DecodeFrom(&input).ok());
  Block* raw = nullptr;
  EXPECT_TRUE(Block::Read(file.get(), ReadOptions(), footer.metaindex_handle(), &raw).ok());
  std::unique_ptr<Block> meta(raw);
  std::unique_ptr<Iterator> iter(meta->NewIterator(BytewiseComparator()));
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    Slice v = iter->value();
    EXPECT_TRUE(entries[iter->key().ToString()].DecodeFrom(&v).ok());
  }
  return entries;
}

// A table carries one filter over all its keys under FilterMetaKey, sized
// by the key count alone (no per-block filters, no offset array). The
// filter is probed before the index: a key it rules out seeks no index and
// reads no block; one it lets through seeks the index once.
TEST_F(TableRoundTripTest, OneFilterOverTheWholeTable) {
  Options options;
  options.block_size = 1024;  // ~70 data blocks
  constexpr int kKeys = 5000;
  const std::map<std::string, std::string> model = EvenKeys(kKeys, 0);
  BlockCache block_cache(0);
  std::unique_ptr<Table> table = BuildTable("full.sst", options, model, &block_cache);
  ASSERT_NE(nullptr, table);

  const std::map<std::string, BlockHandle> meta = MetaIndexOf(env_, dir_.path() + "/full.sst");
  ASSERT_EQ(1u, meta.size());
  EXPECT_EQ("fullfilter.clsm.BuiltinBloomFilter2", meta.begin()->first);
  EXPECT_EQ(FilterMetaKey(*policy_), meta.begin()->first);
  EXPECT_EQ(kKeys * 10 / 8 + 1, meta.begin()->second.size()) << "10 bits per key, probe count";

  std::vector<std::string> present, absent;
  for (const auto& [k, v] : model) {
    present.push_back(k);
  }
  for (int i = 0; i < kKeys; i++) {
    char key[32];
    std::snprintf(key, sizeof(key), "k%08d", 2 * i + 1);
    absent.push_back(key);
  }
  const ProbeTotals hits = ProbeCounts(table.get(), present, true);
  EXPECT_EQ(0u, hits.useful);
  EXPECT_EQ(0u, hits.false_positives);
  EXPECT_EQ(present.size(), hits.index_seeks);
  EXPECT_EQ(present.size(), hits.block_reads);

  const ProbeTotals misses = ProbeCounts(table.get(), absent, false);
  EXPECT_EQ(absent.size(), misses.useful + misses.false_positives);
  EXPECT_EQ(misses.false_positives, misses.index_seeks);
  EXPECT_EQ(misses.false_positives, misses.block_reads);
  EXPECT_LT(misses.false_positives, absent.size() * 2 / 100);
}

// A filter stored under another policy's name (here the unmixed hash's) is
// never probed: the table is read unfiltered, so every key is found and no
// probe is skipped.
TEST_F(TableRoundTripTest, OtherPolicysFilterIsIgnoredNotMisread) {
  Options options;
  std::vector<std::string> present, absent;
  for (uint64_t i = 0; i < 2000; i++) {
    present.push_back(BigEndianKey(2 * i));
    absent.push_back(BigEndianKey(2 * i + 1));
  }
  std::string fname = dir_.path() + "/old.sst";
  UnmixedBloomPolicy old_policy;
  {
    std::unique_ptr<WritableFile> file;
    ASSERT_TRUE(env_->NewWritableFile(fname, &file).ok());
    TableBuilder builder(options, BytewiseComparator(), &old_policy, file.get());
    for (const std::string& k : present) {
      builder.Add(k, std::string(256, 'v'));
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE(file->Close().ok());
  }
  uint64_t file_size;
  ASSERT_TRUE(env_->GetFileSize(fname, &file_size).ok());
  BlockCache block_cache(0);
  auto open = [&](const FilterPolicy* policy) {
    std::unique_ptr<RandomAccessFile> file;
    EXPECT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
    Table* table = nullptr;
    EXPECT_TRUE(Table::Open(options, BytewiseComparator(), policy, &block_cache, std::move(file),
                            file_size, &table)
                    .ok());
    return std::unique_ptr<Table>(table);
  };

  // The old filter is there: read with its own policy it skips probes.
  std::unique_ptr<Table> as_written = open(&old_policy);
  const ProbeTotals filtered = ProbeCounts(as_written.get(), absent, false);
  EXPECT_GT(filtered.useful, 0u);
  EXPECT_EQ(absent.size(), filtered.useful + filtered.false_positives);

  std::unique_ptr<Table> table = open(policy_.get());
  const ProbeTotals hits = ProbeCounts(table.get(), present, true);
  EXPECT_EQ(0u, hits.useful);
  EXPECT_EQ(0u, hits.false_positives);
  const ProbeTotals misses = ProbeCounts(table.get(), absent, false);
  EXPECT_EQ(0u, misses.useful);
  EXPECT_EQ(0u, misses.false_positives) << "an unfiltered read is no false positive";
  EXPECT_EQ(absent.size(), misses.index_seeks);
}

// tests/golden/per_block_filter.sst was written by the table builder of the
// per-block filter layout (one filter per 2 KiB of file offsets, under
// "filter.clsm.BuiltinBloomFilter2"; see tests/golden/README.md). The
// reader finds no filter under its key and reads the table unfiltered:
// every key is found with its value and no probe is skipped.
TEST_F(TableRoundTripTest, PerBlockFilterTableIsReadUnfiltered) {
  const std::string fname = GoldenPath("per_block_filter.sst");
  const std::map<std::string, BlockHandle> meta = MetaIndexOf(env_, fname);
  ASSERT_EQ(1u, meta.size());
  EXPECT_EQ("filter.clsm.BuiltinBloomFilter2", meta.begin()->first);

  uint64_t file_size = 0;
  ASSERT_TRUE(env_->GetFileSize(fname, &file_size).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
  BlockCache block_cache(1 << 20);
  Table* raw = nullptr;
  ASSERT_TRUE(Table::Open(Options(), BytewiseComparator(), policy_.get(), &block_cache,
                          std::move(file), file_size, &raw)
                  .ok());
  std::unique_ptr<Table> table(raw);

  constexpr uint64_t kKeys = 1000;
  std::vector<std::string> present, absent;
  for (uint64_t i = 0; i < kKeys; i++) {
    present.push_back(BigEndianKey(2 * i));
    absent.push_back(BigEndianKey(2 * i + 1));
    ASSERT_EQ(GoldenValue(i), TableGet(table.get(), present.back())) << i;
  }
  const ProbeTotals hits = ProbeCounts(table.get(), present, true);
  EXPECT_EQ(0u, hits.useful);
  EXPECT_EQ(0u, hits.false_positives);
  EXPECT_EQ(kKeys, hits.index_seeks);
  const ProbeTotals misses = ProbeCounts(table.get(), absent, false);
  EXPECT_EQ(0u, misses.useful);
  EXPECT_EQ(0u, misses.false_positives);
  EXPECT_EQ(kKeys, misses.index_seeks);
}

TEST_F(TableRoundTripTest, CorruptFooterIsRejected) {
  std::string fname = dir_.path() + "/bad.sst";
  ASSERT_TRUE(WriteStringToFileSync(env_, std::string(2000, 'g'), fname).ok());
  std::unique_ptr<RandomAccessFile> file;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &file).ok());
  Options options;
  BlockCache block_cache(0);
  Table* table = nullptr;
  Status s = Table::Open(options, BytewiseComparator(), nullptr, &block_cache, std::move(file),
                         2000, &table);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsCorruption());
  EXPECT_EQ(nullptr, table);
}

TEST(MergingIteratorTest, MergesSortedStreams) {
  Options options;
  options.block_restart_interval = 4;
  // Build three blocks with interleaved keys and merge their iterators.
  std::vector<std::unique_ptr<Block>> blocks;
  std::vector<Iterator*> children;
  for (int c = 0; c < 3; c++) {
    BlockBuilder builder(&options, BytewiseComparator());
    for (int i = 0; i < 100; i++) {
      char key[32];
      std::snprintf(key, sizeof(key), "key%05d", i * 3 + c);
      builder.Add(key, "v");
    }
    blocks.push_back(CopyOf(builder.Finish()));
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
