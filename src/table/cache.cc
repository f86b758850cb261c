#include "src/table/cache.h"

#include <cassert>
#include <mutex>

namespace clsm {

namespace {

// murmur3's 64-bit finalizer over both key halves: the shard (top bits) and
// the bucket (low bits) both depend on every bit of the key.
uint32_t HashKey(uint64_t table_id, uint64_t offset) {
  uint64_t h = table_id * 0x9e3779b97f4a7c15ull ^ offset;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<uint32_t>(h);
}

constexpr int kNumShardBits = 4;
constexpr int kNumShards = 1 << kNumShardBits;

uint32_t ShardOf(uint32_t hash) { return hash >> (32 - kNumShardBits); }

}  // namespace

// One shard: a chained hash table and an LRU list of every block it holds,
// bounded by capacity_. The shards share one array; a cache line each keeps
// a hot shard's lock off its neighbours' lines.
//
// A block is in the shard exactly while its kInCache bit is set; only the
// shard, under its mutex, sets or clears that bit or adds a pin to a cached
// block, while Release drops pins with no lock. Whichever of the two takes
// refs_ to 0 frees the block, so a block leaves the shard under the mutex
// and is freed after it.
class alignas(64) BlockCache::Shard {
 public:
  Shard() { Resize(); }

  ~Shard() {
    for (Block* b = lru_head_; b != nullptr;) {
      Block* next = b->next_;
      assert(b->refs_.load(std::memory_order_relaxed) == Block::kInCache);  // still pinned?
      delete b;
      b = next;
    }
    delete[] buckets_;
  }

  void SetCapacity(size_t capacity) { capacity_ = capacity; }

  Block* Lookup(uint64_t table_id, uint64_t offset, uint32_t hash) {
    std::lock_guard<std::mutex> l(mutex_);
    Block* b = *FindPointer(table_id, offset, hash);
    if (b != nullptr) {
      b->refs_.fetch_add(Block::kPin, std::memory_order_relaxed);
      Unlink(b);
      Append(b);
    }
    return b;
  }

  void Insert(Block* b) {
    if (capacity_ == 0) {
      return;  // caches nothing: b dies with its last pin
    }
    b->refs_.fetch_add(Block::kInCache, std::memory_order_relaxed);
    Block* dead = nullptr;  // blocks to free once the mutex is released
    {
      std::lock_guard<std::mutex> l(mutex_);
      Block** ptr = FindPointer(b->table_id_, b->offset_, b->hash_);
      Block* old = *ptr;
      b->next_hash_ = old == nullptr ? nullptr : old->next_hash_;
      *ptr = b;
      if (old != nullptr) {
        Drop(old, &dead);
      } else if (++elems_ > length_) {
        Resize();
      }
      Append(b);
      usage_ += b->size();
      while (usage_ > capacity_) {
        Block* oldest = lru_head_;
        *FindPointer(oldest->table_id_, oldest->offset_, oldest->hash_) = oldest->next_hash_;
        --elems_;
        Drop(oldest, &dead);
      }
    }
    while (dead != nullptr) {
      Block* next = dead->next_hash_;
      delete dead;
      dead = next;
    }
  }

  size_t TotalCharge() const {
    std::lock_guard<std::mutex> l(mutex_);
    return usage_;
  }

 private:
  // Takes b, already unlinked from the hash table, out of the shard. If no
  // reader pins it, it is pushed onto *dead to be freed after the mutex.
  void Drop(Block* b, Block** dead) {
    Unlink(b);
    usage_ -= b->size();
    if (b->refs_.fetch_sub(Block::kInCache, std::memory_order_acq_rel) == Block::kInCache) {
      b->next_hash_ = *dead;
      *dead = b;
    }
  }

  // Detaches b from the LRU list.
  void Unlink(Block* b) {
    (b->prev_ != nullptr ? b->prev_->next_ : lru_head_) = b->next_;
    (b->next_ != nullptr ? b->next_->prev_ : lru_tail_) = b->prev_;
  }

  // Makes b the most recently used block.
  void Append(Block* b) {
    b->next_ = nullptr;
    b->prev_ = lru_tail_;
    (lru_tail_ != nullptr ? lru_tail_->next_ : lru_head_) = b;
    lru_tail_ = b;
  }

  // Hand-rolled chained hash table: ~10% faster than std::unordered_map
  // for this access pattern (LevelDB heritage).
  Block** FindPointer(uint64_t table_id, uint64_t offset, uint32_t hash) {
    Block** ptr = &buckets_[hash & (length_ - 1)];
    while (*ptr != nullptr && !((*ptr)->hash_ == hash && (*ptr)->table_id_ == table_id &&
                                (*ptr)->offset_ == offset)) {
      ptr = &(*ptr)->next_hash_;
    }
    return ptr;
  }

  void Resize() {
    uint32_t new_length = 4;
    while (new_length < elems_) {
      new_length *= 2;
    }
    Block** new_buckets = new Block*[new_length]();
    for (uint32_t i = 0; i < length_; i++) {
      Block* b = buckets_[i];
      while (b != nullptr) {
        Block* next = b->next_hash_;
        Block** ptr = &new_buckets[b->hash_ & (new_length - 1)];
        b->next_hash_ = *ptr;
        *ptr = b;
        b = next;
      }
    }
    delete[] buckets_;
    buckets_ = new_buckets;
    length_ = new_length;
  }

  size_t capacity_ = 0;

  mutable std::mutex mutex_;
  size_t usage_ = 0;
  // LRU list of every block in the shard: head is the oldest, tail newest.
  Block* lru_head_ = nullptr;
  Block* lru_tail_ = nullptr;
  uint32_t length_ = 0;
  uint32_t elems_ = 0;
  Block** buckets_ = nullptr;
};

BlockCache::BlockCache(size_t capacity) : shards_(new Shard[kNumShards]) {
  const size_t per_shard = (capacity + (kNumShards - 1)) / kNumShards;
  for (int s = 0; s < kNumShards; s++) {
    shards_[s].SetCapacity(per_shard);
  }
}

BlockCache::~BlockCache() = default;

Block* BlockCache::Lookup(uint64_t table_id, uint64_t offset) {
  const uint32_t hash = HashKey(table_id, offset);
  return shards_[ShardOf(hash)].Lookup(table_id, offset, hash);
}

void BlockCache::Insert(uint64_t table_id, uint64_t offset, Block* block) {
  block->table_id_ = table_id;
  block->offset_ = offset;
  block->hash_ = HashKey(table_id, offset);
  shards_[ShardOf(block->hash_)].Insert(block);
}

size_t BlockCache::TotalCharge() const {
  size_t total = 0;
  for (int s = 0; s < kNumShards; s++) {
    total += shards_[s].TotalCharge();
  }
  return total;
}

}  // namespace clsm
