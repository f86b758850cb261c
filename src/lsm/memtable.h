// The in-memory component Cm: a multi-versioned map over the lock-free
// concurrent skip list. Thread-safe lock-free Add/Get (paper §3.1), plus
// the Algorithm-3 conditional insert used by atomic read-modify-write.
// Reference-counted: the store holds one reference; readers and iterators
// take additional ones under epoch protection (§3.1's per-component
// reference counters).
#ifndef CLSM_LSM_MEMTABLE_H_
#define CLSM_LSM_MEMTABLE_H_

#include <string>

#include "src/arena/arena.h"
#include "src/lsm/dbformat.h"
#include "src/skiplist/concurrent_skiplist.h"
#include "src/sync/ref_guard.h"
#include "src/table/iterator.h"

namespace clsm {

class MemTable : public RefCounted {
 public:
  explicit MemTable(const InternalKeyComparator& comparator);

  MemTable(const MemTable&) = delete;
  MemTable& operator=(const MemTable&) = delete;

  // Approximate bytes in use (drives the roll to an immutable component).
  size_t ApproximateMemoryUsage() const { return arena_.MemoryUsage(); }
  size_t NumEntries() const { return table_.ApproxCount(); }

  // The skip list's structure checker (ConcurrentSkipList::CheckStructure):
  // "" when sound. For tests; call only while no Add is in flight.
  std::string CheckStructure() const { return table_.CheckStructure(); }

  // Iterator over internal keys (for flush-to-disk and snapshot scans).
  // The caller must hold a reference to the memtable for the iterator's
  // lifetime. Weakly consistent under concurrent Adds.
  Iterator* NewIterator();

  // Insert an entry for (key, seq, type) mapping to value. Thread-safe,
  // lock-free; concurrent Adds for the same user key are fine because each
  // carries a unique timestamp.
  void Add(SequenceNumber seq, ValueType type, const Slice& key, const Slice& value);

  // Point lookup as of the sequence embedded in lookup_key: if a version
  // exists, returns true and sets *s to OK with *value filled (kTypeValue)
  // or to NotFound (kTypeDeletion). If no version exists, returns false.
  // If seq_found is non-null it receives the version's timestamp.
  bool Get(const LookupKey& lookup_key, std::string* value, Status* s,
           SequenceNumber* seq_found = nullptr);

  // Algorithm 3 support: insert (key, seq, type, value) only if no version
  // of key newer than read_seq exists (and loses no race). Returns false on
  // conflict; the caller re-reads and retries with a fresh timestamp.
  bool AddIfNoConflict(SequenceNumber seq, ValueType type, const Slice& key, const Slice& value,
                       SequenceNumber read_seq);

 private:
  friend class MemTableIterator;

  struct KeyComparator {
    const InternalKeyComparator comparator;
    explicit KeyComparator(const InternalKeyComparator& c) : comparator(c) {}
    // Entries are length-prefixed internal keys followed by values.
    int operator()(const char* a, const char* b) const;
  };

  typedef ConcurrentSkipList<const char*, KeyComparator> Table;

  ~MemTable() override = default;  // only via Unref()

  // Encodes an entry into the arena; returns the entry pointer.
  const char* EncodeEntry(SequenceNumber seq, ValueType type, const Slice& key,
                          const Slice& value);

  KeyComparator comparator_;
  ConcurrentArena arena_;
  Table table_;
};

}  // namespace clsm

#endif  // CLSM_LSM_MEMTABLE_H_
