// Sharded LRU cache of data blocks: the "large RAM cache" the paper's disk
// component leans on (§2.3). Open tables are not cached here; each live
// file owns its Table. 16-way sharding keeps mutex hold times out of the
// measured concurrency paths.
#ifndef CLSM_TABLE_CACHE_H_
#define CLSM_TABLE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

namespace clsm {

class Block;

// Blocks keyed by (table id, block offset), each charged its Block::size().
// Each of the 16 shards holds at most ceil(capacity / 16) bytes of blocks
// no reader pins; capacity 0 caches nothing. Thread-safe.
class BlockCache {
 public:
  // A pinned entry: its block stays alive, even once evicted, until the
  // entry is released.
  struct Entry;

  explicit BlockCache(size_t capacity);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Id for a newly opened table, unique within this cache.
  uint64_t NewTableId() { return next_table_id_.fetch_add(1, std::memory_order_relaxed); }

  // The cached block's entry, pinned, or nullptr on a miss.
  Entry* Lookup(uint64_t table_id, uint64_t offset);

  // Takes ownership of block, caches it (replacing any block under the same
  // key) and returns it pinned. The block is deleted once it is out of the
  // cache and unpinned.
  Entry* Insert(uint64_t table_id, uint64_t offset, Block* block);

  void Release(Entry* entry);
  static Block* Value(Entry* entry);

  // Bytes of blocks in the cache, pinned ones included.
  size_t TotalCharge() const;

 private:
  class Shard;

  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> next_table_id_{1};
};

}  // namespace clsm

#endif  // CLSM_TABLE_CACHE_H_
