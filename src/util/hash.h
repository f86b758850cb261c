// Non-cryptographic hashing for Bloom filters, shard routing and lock
// striping.
#ifndef CLSM_UTIL_HASH_H_
#define CLSM_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>

#include "src/util/slice.h"

namespace clsm {

uint32_t Hash(const char* data, size_t n, uint32_t seed);

inline uint32_t Hash(const Slice& s, uint32_t seed = 0xbc9f1d34) {
  return Hash(s.data(), s.size(), seed);
}

}  // namespace clsm

#endif  // CLSM_UTIL_HASH_H_
