// Internal key format shared by the memtable, SSTables and compaction.
//
// Every stored entry is a (user key, timestamp, type) triple — the paper's
// key-timestamp-value multi-versioning (§3.2). Timestamps are the 56-bit
// sequence numbers produced by the global time counter; the low byte tags
// the entry as a value or a deletion marker (the ⊥ of §2.1). Internal keys
// order by user key ascending, then timestamp DESCENDING, so the newest
// version of a key is encountered first.
#ifndef CLSM_LSM_DBFORMAT_H_
#define CLSM_LSM_DBFORMAT_H_

#include <cstdint>
#include <string>

#include "src/table/bloom.h"
#include "src/util/coding.h"
#include "src/util/comparator.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace clsm {

typedef uint64_t SequenceNumber;

// Number of on-disk levels (C1..Cn of §2.3). Fixed at compile time; the
// Options level-sizing knobs control how they fill.
constexpr int kNumLevels = 7;
// Level-0 compaction triggers (paper/LevelDB defaults; overridable).
constexpr int kL0CompactionTrigger = 4;

// Leaves room for the type tag in the packed 64-bit form.
static const SequenceNumber kMaxSequenceNumber = ((0x1ull << 56) - 1);

enum ValueType : uint8_t {
  kTypeDeletion = 0x0,
  kTypeValue = 0x1,
};
// When seeking, newest-first order means kTypeValue (the higher tag) sorts
// first among same-sequence entries; using it in lookup keys finds all
// entries with sequence <= the lookup sequence.
static const ValueType kValueTypeForSeek = kTypeValue;

inline uint64_t PackSequenceAndType(SequenceNumber seq, ValueType t) {
  return (seq << 8) | t;
}

struct ParsedInternalKey {
  Slice user_key;
  SequenceNumber sequence;
  ValueType type;

  ParsedInternalKey() {}
  ParsedInternalKey(const Slice& u, const SequenceNumber& seq, ValueType t)
      : user_key(u), sequence(seq), type(t) {}
};

inline size_t InternalKeyEncodingLength(const ParsedInternalKey& key) {
  return key.user_key.size() + 8;
}

void AppendInternalKey(std::string* result, const ParsedInternalKey& key);

// Returns false on malformed input.
bool ParseInternalKey(const Slice& internal_key, ParsedInternalKey* result);

inline Slice ExtractUserKey(const Slice& internal_key) {
  return Slice(internal_key.data(), internal_key.size() - 8);
}

inline uint64_t ExtractTag(const Slice& internal_key) {
  return DecodeFixed64(internal_key.data() + internal_key.size() - 8);
}

inline SequenceNumber ExtractSequence(const Slice& internal_key) {
  return ExtractTag(internal_key) >> 8;
}

// Orders internal keys by (user key asc, sequence desc, type desc).
class InternalKeyComparator final : public Comparator {
 public:
  explicit InternalKeyComparator(const Comparator* c) : user_comparator_(c) {}
  const char* Name() const override { return "clsm.InternalKeyComparator"; }
  int Compare(const Slice& a, const Slice& b) const override;
  void FindShortestSeparator(std::string* start, const Slice& limit) const override;
  void FindShortSuccessor(std::string* key) const override;

  const Comparator* user_comparator() const { return user_comparator_; }

 private:
  const Comparator* user_comparator_;
};

// Owned internal key, convenient for file metadata boundaries.
class InternalKey {
 public:
  InternalKey() {}
  InternalKey(const Slice& user_key, SequenceNumber s, ValueType t) {
    AppendInternalKey(&rep_, ParsedInternalKey(user_key, s, t));
  }

  bool DecodeFrom(const Slice& s) {
    rep_.assign(s.data(), s.size());
    return !rep_.empty();
  }

  Slice Encode() const { return rep_; }
  Slice user_key() const { return ExtractUserKey(rep_); }

  void SetFrom(const ParsedInternalKey& p) {
    rep_.clear();
    AppendInternalKey(&rep_, p);
  }

  void Clear() { rep_.clear(); }

 private:
  std::string rep_;
};

// Filter policy wrapper that hashes the user key of an internal key (the
// sequence tag would otherwise defeat Bloom lookups).
class InternalFilterPolicy final : public FilterPolicy {
 public:
  explicit InternalFilterPolicy(const FilterPolicy* p) : user_policy_(p) {}
  const char* Name() const override { return user_policy_->Name(); }
  uint32_t KeyHash(const Slice& key) const override {
    return user_policy_->KeyHash(ExtractUserKey(key));
  }
  void CreateFilter(const uint32_t* hashes, size_t n, std::string* dst) const override {
    user_policy_->CreateFilter(hashes, n, dst);
  }
  bool HashMayMatch(uint32_t hash, const Slice& filter) const override {
    return user_policy_->HashMayMatch(hash, filter);
  }

 private:
  const FilterPolicy* const user_policy_;
};

// Helper for memtable lookups: bundles the memtable entry prefix
// (varint key length + internal key) for a (user key, sequence) probe.
class LookupKey {
 public:
  LookupKey(const Slice& user_key, SequenceNumber sequence);
  ~LookupKey();

  LookupKey(const LookupKey&) = delete;
  LookupKey& operator=(const LookupKey&) = delete;

  // Key formatted for the memtable skip list (length-prefixed).
  Slice memtable_key() const { return Slice(start_, end_ - start_); }
  // Internal key (userkey + tag).
  Slice internal_key() const { return Slice(kstart_, end_ - kstart_); }
  Slice user_key() const { return Slice(kstart_, end_ - kstart_ - 8); }

 private:
  const char* start_;
  const char* kstart_;
  const char* end_;
  char space_[200];  // avoids allocation for short keys
};

}  // namespace clsm

#endif  // CLSM_LSM_DBFORMAT_H_
