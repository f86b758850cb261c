// Sharded LRU cache of data blocks: the "large RAM cache" the paper's disk
// component leans on (§2.3). Open tables are not cached here; each live
// file owns its Table. A Block is its own cache entry: the cache links it
// in place and pins it through one atomic word, so a hit takes its shard's
// mutex once (lookup) and a release takes none.
#ifndef CLSM_TABLE_CACHE_H_
#define CLSM_TABLE_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/table/block.h"

namespace clsm {

// Blocks keyed by (table id, block offset), each charged its Block::size().
// Each of the 16 shards holds at most ceil(capacity / 16) bytes of blocks,
// pinned ones included: an insert evicts the least recently used blocks,
// pinned or not, until its shard fits. An evicted or replaced block lives
// on while pinned and is freed by its last Release; capacity 0 caches
// nothing. Blocks are freed outside the shard mutex. Thread-safe.
class BlockCache {
 public:
  explicit BlockCache(size_t capacity);
  ~BlockCache();

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  // Id for a newly opened table, unique within this cache.
  uint64_t NewTableId() { return next_table_id_.fetch_add(1, std::memory_order_relaxed); }

  // The cached block, pinned, or nullptr on a miss.
  Block* Lookup(uint64_t table_id, uint64_t offset);

  // Caches block, which the caller holds one pin on and no cache holds,
  // under the key, replacing any block cached there. The caller keeps its
  // pin.
  void Insert(uint64_t table_id, uint64_t offset, Block* block);

  // Drops one pin; frees the block if that was the last pin of a block no
  // cache holds. Takes no lock.
  static void Release(Block* block) {
    if (block->refs_.fetch_sub(Block::kPin, std::memory_order_acq_rel) == Block::kPin) {
      delete block;
    }
  }

  // Bytes of blocks in the cache, pinned ones included.
  size_t TotalCharge() const;

 private:
  class Shard;

  std::unique_ptr<Shard[]> shards_;
  std::atomic<uint64_t> next_table_id_{1};
};

}  // namespace clsm

#endif  // CLSM_TABLE_CACHE_H_
