#include "src/table/bloom.h"

#include "src/util/hash.h"

namespace clsm {

namespace {

// Hash() leaves keys that differ only in a few bytes (neighboring 8-byte
// big-endian integers, say) differing only in a few hash bits, which then
// fall on the same bit offsets of a small filter; murmur3's fmix32
// finalizer spreads every input bit over the whole word.
uint32_t BloomHash(const Slice& key) {
  uint32_t h = Hash(key.data(), key.size(), 0xbc9f1d34);
  h ^= h >> 16;
  h *= 0x85ebca6b;
  h ^= h >> 13;
  h *= 0xc2b2ae35;
  h ^= h >> 16;
  return h;
}

class BloomFilterPolicy final : public FilterPolicy {
 public:
  explicit BloomFilterPolicy(int bits_per_key) : bits_per_key_(bits_per_key) {
    // Round down k to reduce probing cost a little.
    k_ = static_cast<size_t>(bits_per_key * 0.69);  // 0.69 =~ ln(2)
    if (k_ < 1) {
      k_ = 1;
    }
    if (k_ > 30) {
      k_ = 30;
    }
  }

  // The name versions the hash ("clsm.BuiltinBloomFilter" was the earlier,
  // unmixed one): a filter stored under another name is never probed.
  const char* Name() const override { return "clsm.BuiltinBloomFilter2"; }

  uint32_t KeyHash(const Slice& key) const override { return BloomHash(key); }

  void CreateFilter(const uint32_t* hashes, size_t n, std::string* dst) const override {
    // Compute bloom filter size (in both bits and bytes).
    size_t bits = n * bits_per_key_;
    // A tiny filter has a huge false-positive rate; enforce a floor.
    if (bits < 64) {
      bits = 64;
    }
    size_t bytes = (bits + 7) / 8;
    bits = bytes * 8;

    const size_t init_size = dst->size();
    dst->resize(init_size + bytes, 0);
    dst->push_back(static_cast<char>(k_));  // Remember # of probes
    char* array = &(*dst)[init_size];
    for (size_t i = 0; i < n; i++) {
      // Double-hashing: one hash, rotated delta per probe.
      uint32_t h = hashes[i];
      const uint32_t delta = (h >> 17) | (h << 15);
      for (size_t j = 0; j < k_; j++) {
        const uint32_t bitpos = h % bits;
        array[bitpos / 8] |= (1 << (bitpos % 8));
        h += delta;
      }
    }
  }

  bool HashMayMatch(uint32_t h, const Slice& bloom_filter) const override {
    const size_t len = bloom_filter.size();
    if (len < 2) {
      return false;
    }

    const char* array = bloom_filter.data();
    const size_t bits = (len - 1) * 8;

    const size_t k = static_cast<uint8_t>(array[len - 1]);
    if (k > 30) {
      // Reserved for potential new encodings; treat as a match.
      return true;
    }

    const uint32_t delta = (h >> 17) | (h << 15);
    for (size_t j = 0; j < k; j++) {
      const uint32_t bitpos = h % bits;
      if ((array[bitpos / 8] & (1 << (bitpos % 8))) == 0) {
        return false;
      }
      h += delta;
    }
    return true;
  }

 private:
  int bits_per_key_;
  size_t k_;
};

}  // namespace

const FilterPolicy* NewBloomFilterPolicy(int bits_per_key) {
  return new BloomFilterPolicy(bits_per_key);
}

}  // namespace clsm
