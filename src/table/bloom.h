// Bloom filter policy (paper §4 cites Bloom [14] as one of the inherited
// LevelDB read optimizations). Double-hashing variant over a finalized
// Hash() (see BloomHash in bloom.cc). A table carries one filter over all
// its keys, built from one 32-bit hash per key, so a table builder buffers
// hashes rather than key bytes.
#ifndef CLSM_TABLE_BLOOM_H_
#define CLSM_TABLE_BLOOM_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "src/util/slice.h"

namespace clsm {

class FilterPolicy {
 public:
  virtual ~FilterPolicy() = default;

  // Names the hash and the filter encoding; a table stores its filter
  // under FilterMetaKey(*this).
  virtual const char* Name() const = 0;

  // The hash a filter is built from and probed with.
  virtual uint32_t KeyHash(const Slice& key) const = 0;

  // Append to *dst a filter summarizing the keys whose hashes are
  // hashes[0..n-1].
  virtual void CreateFilter(const uint32_t* hashes, size_t n, std::string* dst) const = 0;

  // Must return true if hash was among those the filter was built from;
  // may return true for others (false positive).
  virtual bool HashMayMatch(uint32_t hash, const Slice& filter) const = 0;

  bool KeyMayMatch(const Slice& key, const Slice& filter) const {
    return HashMayMatch(KeyHash(key), filter);
  }
};

// Metaindex key of a table's filter: one filter over every key of the
// table. A table that stores only the per-2-KiB-block filters of earlier
// releases ("filter." + Name()) has no entry under this key and is read
// unfiltered until a compaction rewrites it.
inline std::string FilterMetaKey(const FilterPolicy& policy) {
  return std::string("fullfilter.") + policy.Name();
}

// Returns a new policy using ~bits_per_key bits per key. Caller owns it.
const FilterPolicy* NewBloomFilterPolicy(int bits_per_key);

}  // namespace clsm

#endif  // CLSM_TABLE_BLOOM_H_
