#include "src/table/cache.h"

#include <cassert>
#include <mutex>

#include "src/table/block.h"

namespace clsm {

// Cache entry. Entries are kept in a doubly-linked LRU list and a chained
// hash table. An entry is "in the cache" until replaced or evicted; it and
// its block are deleted when it is no longer in the cache and no reader
// pins it.
struct BlockCache::Entry {
  Block* block = nullptr;
  uint64_t table_id = 0;
  uint64_t offset = 0;
  Entry* next_hash = nullptr;
  Entry* next = nullptr;
  Entry* prev = nullptr;
  uint32_t hash = 0;
  uint32_t refs = 0;  // pins, plus one while in the cache
  bool in_cache = false;

  bool Is(uint64_t id, uint64_t off, uint32_t h) const {
    return hash == h && table_id == id && offset == off;
  }
};

namespace {

using Entry = BlockCache::Entry;

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

// Hand-rolled chained hash table: ~10% faster than std::unordered_map for
// this access pattern (LevelDB heritage).
class EntryTable {
 public:
  EntryTable() { Resize(); }
  ~EntryTable() { delete[] list_; }

  Entry* Lookup(uint64_t table_id, uint64_t offset, uint32_t hash) {
    return *FindPointer(table_id, offset, hash);
  }

  // Links h in and returns the entry it replaces, if any.
  Entry* Insert(Entry* h) {
    Entry** ptr = FindPointer(h->table_id, h->offset, h->hash);
    Entry* old = *ptr;
    h->next_hash = (old == nullptr ? nullptr : old->next_hash);
    *ptr = h;
    if (old == nullptr && ++elems_ > length_) {
      Resize();
    }
    return old;
  }

  void Remove(Entry* h) {
    Entry** ptr = FindPointer(h->table_id, h->offset, h->hash);
    assert(*ptr == h);
    *ptr = h->next_hash;
    --elems_;
  }

 private:
  Entry** FindPointer(uint64_t table_id, uint64_t offset, uint32_t hash) {
    Entry** ptr = &list_[hash & (length_ - 1)];
    while (*ptr != nullptr && !(*ptr)->Is(table_id, offset, hash)) {
      ptr = &(*ptr)->next_hash;
    }
    return ptr;
  }

  void Resize() {
    uint32_t new_length = 4;
    while (new_length < elems_) {
      new_length *= 2;
    }
    Entry** new_list = new Entry*[new_length]();
    for (uint32_t i = 0; i < length_; i++) {
      Entry* h = list_[i];
      while (h != nullptr) {
        Entry* next = h->next_hash;
        Entry** ptr = &new_list[h->hash & (new_length - 1)];
        h->next_hash = *ptr;
        *ptr = h;
        h = next;
      }
    }
    delete[] list_;
    list_ = new_list;
    length_ = new_length;
  }

  uint32_t length_ = 0;
  uint32_t elems_ = 0;
  Entry** list_ = nullptr;
};

}  // namespace

// One shard: an LRU list of unpinned entries, bounded by capacity_. The
// shards share one array; a cache line each keeps a hot shard's lock off
// its neighbours' lines.
class alignas(64) BlockCache::Shard {
 public:
  Shard() {
    lru_.next = lru_.prev = &lru_;
    in_use_.next = in_use_.prev = &in_use_;
  }

  ~Shard() {
    assert(in_use_.next == &in_use_);  // Error if a reader still pins an entry
    while (lru_.next != &lru_) {
      Erase(lru_.next);
    }
  }

  void SetCapacity(size_t capacity) { capacity_ = capacity; }

  Entry* Lookup(uint64_t table_id, uint64_t offset, uint32_t hash) {
    std::lock_guard<std::mutex> l(mutex_);
    Entry* e = table_.Lookup(table_id, offset, hash);
    if (e != nullptr) {
      Ref(e);
    }
    return e;
  }

  // e is new and pinned once by the caller.
  void Insert(Entry* e) {
    if (capacity_ == 0) {
      return;  // caches nothing: e dies with its last pin
    }
    std::lock_guard<std::mutex> l(mutex_);
    e->refs++;
    e->in_cache = true;
    LRU_Append(&in_use_, e);
    usage_ += e->block->size();
    Entry* replaced = table_.Insert(e);
    if (replaced != nullptr) {
      FinishErase(replaced);
    }
    EvictOverflow();
  }

  void Release(Entry* e) {
    std::lock_guard<std::mutex> l(mutex_);
    Unref(e);
    EvictOverflow();
  }

  size_t TotalCharge() const {
    std::lock_guard<std::mutex> l(mutex_);
    return usage_;
  }

 private:
  static void LRU_Remove(Entry* e) {
    e->next->prev = e->prev;
    e->prev->next = e->next;
  }

  // Makes e the newest entry of list.
  static void LRU_Append(Entry* list, Entry* e) {
    e->next = list;
    e->prev = list->prev;
    e->prev->next = e;
    e->next->prev = e;
  }

  void Ref(Entry* e) {
    if (e->refs == 1 && e->in_cache) {  // If on lru_ list, move to in_use_ list.
      LRU_Remove(e);
      LRU_Append(&in_use_, e);
    }
    e->refs++;
  }

  void Unref(Entry* e) {
    assert(e->refs > 0);
    e->refs--;
    if (e->refs == 0) {
      assert(!e->in_cache);
      delete e->block;
      delete e;
    } else if (e->in_cache && e->refs == 1) {
      // No longer in use; move to lru_ list.
      LRU_Remove(e);
      LRU_Append(&lru_, e);
    }
  }

  // Takes e, already unlinked from table_, out of the cache; its block
  // lives on while pinned.
  void FinishErase(Entry* e) {
    assert(e->in_cache);
    LRU_Remove(e);
    e->in_cache = false;
    usage_ -= e->block->size();
    Unref(e);
  }

  void Erase(Entry* e) {
    table_.Remove(e);
    FinishErase(e);
  }

  // Evicts the oldest unpinned entries while the shard is over capacity.
  void EvictOverflow() {
    while (usage_ > capacity_ && lru_.next != &lru_) {
      assert(lru_.next->refs == 1);
      Erase(lru_.next);
    }
  }

  size_t capacity_ = 0;

  mutable std::mutex mutex_;
  size_t usage_ = 0;

  // Dummy head of LRU list: lru_.prev is newest, lru_.next is oldest.
  // Entries have refs==1 and in_cache==true.
  Entry lru_;
  // Dummy head of in-use list: entries readers pin.
  Entry in_use_;

  EntryTable table_;
};

BlockCache::BlockCache(size_t capacity) : shards_(new Shard[kNumShards]) {
  const size_t per_shard = (capacity + (kNumShards - 1)) / kNumShards;
  for (int s = 0; s < kNumShards; s++) {
    shards_[s].SetCapacity(per_shard);
  }
}

BlockCache::~BlockCache() = default;

Entry* BlockCache::Lookup(uint64_t table_id, uint64_t offset) {
  const uint32_t hash = HashKey(table_id, offset);
  return shards_[ShardOf(hash)].Lookup(table_id, offset, hash);
}

Entry* BlockCache::Insert(uint64_t table_id, uint64_t offset, Block* block) {
  Entry* e = new Entry;
  e->block = block;
  e->table_id = table_id;
  e->offset = offset;
  e->hash = HashKey(table_id, offset);
  e->refs = 1;  // the caller's pin
  shards_[ShardOf(e->hash)].Insert(e);
  return e;
}

void BlockCache::Release(Entry* entry) { shards_[ShardOf(entry->hash)].Release(entry); }

Block* BlockCache::Value(Entry* entry) { return entry->block; }

size_t BlockCache::TotalCharge() const {
  size_t total = 0;
  for (int s = 0; s < kNumShards; s++) {
    total += shards_[s].TotalCharge();
  }
  return total;
}

}  // namespace clsm
