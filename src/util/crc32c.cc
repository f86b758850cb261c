#include "src/util/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace clsm {
namespace crc32c {

namespace {

// Generate the lookup table for the Castagnoli polynomial at startup.
constexpr uint32_t kCastagnoli = 0x82f63b78;

std::array<uint32_t, 256> MakeTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; i++) {
    uint32_t crc = i;
    for (int k = 0; k < 8; k++) {
      crc = (crc & 1) ? (crc >> 1) ^ kCastagnoli : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = MakeTable();
  return table;
}

#if defined(__x86_64__)
// The SSE4.2 crc32 instruction computes the same Castagnoli CRC over 8
// bytes per step. Loads go through memcpy, so any start alignment is fine;
// the little-endian word feeds its bytes in memory order, exactly as the
// table loop does.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t init_crc, const char* data,
                                                       size_t n) {
  uint64_t crc = init_crc ^ 0xffffffffu;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, data, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; n > 0; data++, n--) {
    crc32 = _mm_crc32_u8(crc32, static_cast<uint8_t>(*data));
  }
  return crc32 ^ 0xffffffffu;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

ExtendFn ChooseExtend() {
#if defined(__x86_64__)
  // May run from another translation unit's static initializer, before
  // libgcc has filled in the CPU model it reads.
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) {
    return ExtendSse42;
  }
#endif
  return internal::ExtendPortable;
}

}  // namespace

namespace internal {

uint32_t ExtendPortable(uint32_t init_crc, const char* data, size_t n) {
  const auto& table = Table();
  uint32_t crc = init_crc ^ 0xffffffffu;
  const uint8_t* p = reinterpret_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; i++) {
    crc = table[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

}  // namespace internal

uint32_t Extend(uint32_t init_crc, const char* data, size_t n) {
  static const ExtendFn extend = ChooseExtend();
  return extend(init_crc, data, n);
}

}  // namespace crc32c
}  // namespace clsm
