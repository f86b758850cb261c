// Sharded LRU cache of data blocks: the "large RAM cache" the paper's disk
// component leans on (§2.3). Open tables are not cached here; each live
// file owns its Table. 16-way sharding keeps mutex hold times out of the
// measured concurrency paths.
#ifndef CLSM_TABLE_CACHE_H_
#define CLSM_TABLE_CACHE_H_

#include <cstdint>

#include "src/util/slice.h"

namespace clsm {

class Cache {
 public:
  Cache() = default;
  virtual ~Cache();

  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;

  // Opaque handle to a cached entry.
  struct Handle {};

  // Insert key->value with the given charge against capacity. The returned
  // handle pins the entry; caller must Release() it. deleter is invoked when
  // the entry is evicted and unpinned.
  virtual Handle* Insert(const Slice& key, void* value, size_t charge,
                         void (*deleter)(const Slice& key, void* value)) = 0;

  // Returns nullptr on miss; otherwise a pinned handle (must be Released).
  virtual Handle* Lookup(const Slice& key) = 0;

  virtual void Release(Handle* handle) = 0;
  virtual void* Value(Handle* handle) = 0;

  // New numeric id, for partitioning the key space among multiple clients.
  virtual uint64_t NewId() = 0;

  virtual size_t TotalCharge() const = 0;
};

// LRU cache with the given total capacity (bytes of charge).
Cache* NewLRUCache(size_t capacity);

}  // namespace clsm

#endif  // CLSM_TABLE_CACHE_H_
