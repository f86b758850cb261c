// Bloom filter policy (paper §4 cites Bloom [14] as one of the inherited
// LevelDB read optimizations). Double-hashing variant over a finalized
// Hash() (see BloomHash in bloom.cc).
#ifndef CLSM_TABLE_BLOOM_H_
#define CLSM_TABLE_BLOOM_H_

#include <string>

#include "src/util/slice.h"

namespace clsm {

class FilterPolicy {
 public:
  virtual ~FilterPolicy() = default;

  virtual const char* Name() const = 0;

  // Append to *dst a filter summarizing keys[0..n-1].
  virtual void CreateFilter(const Slice* keys, int n, std::string* dst) const = 0;

  // Must return true if key was in the key list the filter was built from;
  // may return true for keys that were not (false positive).
  virtual bool KeyMayMatch(const Slice& key, const Slice& filter) const = 0;
};

// Returns a new policy using ~bits_per_key bits per key. Caller owns it.
const FilterPolicy* NewBloomFilterPolicy(int bits_per_key);

}  // namespace clsm

#endif  // CLSM_TABLE_BLOOM_H_
