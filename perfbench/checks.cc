#include "checks.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

namespace {

constexpr size_t kFillerBegin = 32;
constexpr size_t kSealedBytes = 248;

uint64_t Load64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void Store64(char* p, uint64_t v) { std::memcpy(p, &v, sizeof(v)); }

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Position-dependent 64-bit checksum of the first 248 bytes (31 words):
// any single flipped bit, swapped word or truncation changes it.
uint64_t Checksum(const char* p) {
  uint64_t h = 0x6a09e667f3bcc908ULL;
  for (size_t i = 0; i < kSealedBytes; i += 8) {
    h = Mix(h ^ Load64(p + i) ^ (i * 0x9e3779b97f4a7c15ULL));
  }
  return h;
}

}  // namespace

void EncodeKey(uint64_t index, char out[kKeySize]) {
  for (size_t i = 0; i < kKeySize; i++) {
    out[i] = static_cast<char>(index >> (8 * (kKeySize - 1 - i)));
  }
}

std::string EncodeKey(uint64_t index) {
  std::string key(kKeySize, '\0');
  EncodeKey(index, key.data());
  return key;
}

bool DecodeKey(std::string_view key, uint64_t* index) {
  if (key.size() != kKeySize) {
    return false;
  }
  uint64_t v = 0;
  for (char c : key) {
    v = (v << 8) | static_cast<uint8_t>(c);
  }
  *index = v;
  return true;
}

void MakeValue(const ValueFields& f, uint64_t filler, std::string* out) {
  out->resize(kValueSize);
  char* p = out->data();
  EncodeKey(f.key_index, p);
  Store64(p + 8, f.version);
  Store64(p + 16, f.tag);
  Store64(p + 24, f.counter);
  uint64_t x = filler;
  for (size_t i = kFillerBegin; i < kSealedBytes; i += 8) {
    x += 0x9e3779b97f4a7c15ULL;
    Store64(p + i, Mix(x));
  }
  Store64(p + kSealedBytes, Checksum(p));
}

const char* CheckValue(uint64_t key_index, std::string_view value, ValueFields* out) {
  if (value.size() != kValueSize) {
    return "value has the wrong length";
  }
  const char* p = value.data();
  if (Load64(p + kSealedBytes) != Checksum(p)) {
    return "value checksum mismatch";
  }
  uint64_t written_for = 0;
  DecodeKey(value.substr(0, kKeySize), &written_for);
  if (written_for != key_index) {
    return "value belongs to another key";
  }
  out->key_index = written_for;
  out->version = Load64(p + 8);
  out->tag = Load64(p + 16);
  out->counter = Load64(p + 24);
  if (out->version == 0) {
    return "value has version 0";
  }
  return nullptr;
}

void RewriteValue(uint64_t version, uint64_t counter, std::string* value) {
  char* p = value->data();
  Store64(p + 8, version);
  Store64(p + 24, counter);
  Store64(p + kSealedBytes, Checksum(p));
}

const char* CheckScan(uint64_t start, uint32_t limit, uint64_t num_keys, bool batch_groups,
                      const Rows& rows, size_t count) {
  const uint64_t expected = start >= num_keys ? 0 : std::min<uint64_t>(limit, num_keys - start);
  if (count < expected) {
    return "scan returned too few keys";
  }
  if (count > expected) {
    return "scan returned too many keys";
  }
  uint64_t group = UINT64_MAX;
  uint64_t group_tag = 0;
  for (size_t i = 0; i < count; i++) {
    uint64_t index = 0;
    if (!DecodeKey(rows[i].first, &index) || index != start + i) {
      return "scan skipped, repeated or reordered a key";
    }
    ValueFields f;
    if (const char* why = CheckValue(index, rows[i].second, &f)) {
      return why;
    }
    if (!batch_groups || !IsGroupKey(index)) {
      continue;
    }
    if (GroupOf(index) != group) {
      group = GroupOf(index);
      group_tag = f.tag;
    }
    if (f.tag != group_tag || (f.tag >> 32) != group) {
      return "scan saw a torn batch";
    }
  }
  return nullptr;
}

const char* CheckCounterSum(uint64_t counter_sum, uint64_t increments) {
  return counter_sum == increments ? nullptr : "counters do not sum to the acknowledged increments";
}

}  // namespace perfbench
