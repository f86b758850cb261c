// CRC32C (Castagnoli) checksums guarding WAL records and SSTable blocks.
// Extend uses the SSE4.2 crc32 instruction (8 bytes per step) when the CPU
// has it, chosen once at first use, and a byte-at-a-time table loop
// otherwise. Both give identical results. The masked form matches LevelDB
// so that stored CRCs of CRC-bearing data stay robust.
#ifndef CLSM_UTIL_CRC32C_H_
#define CLSM_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace clsm {
namespace crc32c {

// Returns the crc32c of concat(A, data[0,n-1]) where init_crc is the
// crc32c of some string A.
uint32_t Extend(uint32_t init_crc, const char* data, size_t n);

inline uint32_t Value(const char* data, size_t n) { return Extend(0, data, n); }

namespace internal {

// The portable table loop that Extend falls back to. Exposed so tests and
// micro-benchmarks can hold the accelerated path against it.
uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n);

}  // namespace internal

static const uint32_t kMaskDelta = 0xa282ead8ul;

// Return a masked representation of crc. Stored CRCs are masked because
// computing the CRC of a string that itself contains CRCs is error-prone.
inline uint32_t Mask(uint32_t crc) { return ((crc >> 15) | (crc << 17)) + kMaskDelta; }

inline uint32_t Unmask(uint32_t masked_crc) {
  uint32_t rot = masked_crc - kMaskDelta;
  return ((rot >> 17) | (rot << 15));
}

}  // namespace crc32c
}  // namespace clsm

#endif  // CLSM_UTIL_CRC32C_H_
