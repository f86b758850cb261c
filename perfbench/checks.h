// Self-describing keys and values, and the checkers that decide whether an
// answer the store gave back is correct. Nothing here links against the
// engine: the checks must not trust the code they are checking.
//
// Key:   8 bytes, big-endian key index (byte order == numeric order).
// Value: 256 bytes (paper §5.1):
//   [0,8)     the key it was written for
//   [8,16)    version: per-key write count, preload writes version 1
//   [16,24)   tag: equal across the members of one atomic batch
//   [24,32)   counter: the read-modify-write counter
//   [32,248)  filler
//   [248,256) checksum of bytes [0,248)
// Integers are little-endian.
#ifndef CLSM_PERFBENCH_CHECKS_H_
#define CLSM_PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

constexpr size_t kKeySize = 8;
constexpr size_t kValueSize = 256;

// In the txn_mixed layout every run of 8 keys holds one 4-key batch group
// (offsets 0-3, always written together by one atomic WriteBatch) followed
// by 4 read-modify-write counters (offsets 4-7).
constexpr uint64_t kGroupStride = 8;
constexpr uint64_t kGroupSize = 4;
inline bool IsGroupKey(uint64_t index) { return index % kGroupStride < kGroupSize; }
inline uint64_t GroupOf(uint64_t index) { return index / kGroupStride; }
// The tag every member of group g carries after the batch that gave the
// group version v; distinct batches on one group never share a tag.
inline uint64_t GroupTag(uint64_t group, uint64_t version) { return (group << 32) | version; }

void EncodeKey(uint64_t index, char out[kKeySize]);
std::string EncodeKey(uint64_t index);
bool DecodeKey(std::string_view key, uint64_t* index);

struct ValueFields {
  uint64_t key_index = 0;
  uint64_t version = 0;
  uint64_t tag = 0;
  uint64_t counter = 0;
};

// Fills *out with the 256-byte value for `f`; `filler` seeds the filler
// bytes (any value gives a valid, distinct payload).
void MakeValue(const ValueFields& f, uint64_t filler, std::string* out);

// Parses a value read back for key `key_index`. Returns nullptr and fills
// *out when the value is well formed, has a good checksum and was written
// for that key; otherwise returns a static description of the defect.
const char* CheckValue(uint64_t key_index, std::string_view value, ValueFields* out);

// Rewrites version and counter of a well-formed value and re-seals its
// checksum (the read-modify-write increment).
void RewriteValue(uint64_t version, uint64_t counter, std::string* value);

using Rows = std::vector<std::pair<std::string, std::string>>;

// Checks one range scan that asked for up to `limit` keys from key index
// `start` in a store holding exactly the keys [0, num_keys). The answer
// must be the keys start, start+1, ... in order (short only at the end of
// the key space), each with a valid value. With `batch_groups`, the members
// of one batch group in the answer must all carry that group's same tag: a
// scan is a snapshot, so it may never see a batch half applied. Returns
// nullptr when correct, else a static description of the first defect.
// Only the first `count` rows are the answer (callers reuse the buffer).
const char* CheckScan(uint64_t start, uint32_t limit, uint64_t num_keys, bool batch_groups,
                      const Rows& rows, size_t count);

// The closing counter audit: the counters must sum to the number of
// increments the clients saw succeed.
const char* CheckCounterSum(uint64_t counter_sum, uint64_t increments);

}  // namespace perfbench

#endif  // CLSM_PERFBENCH_CHECKS_H_
