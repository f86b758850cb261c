// Immutable in-memory form of a data/index block, with a restart-point
// binary-searching cursor. A Block is also its own block-cache entry: the
// cache links it and counts its pins in place, so a block read on a cache
// miss is one heap allocation (header and bytes together).
#ifndef CLSM_TABLE_BLOCK_H_
#define CLSM_TABLE_BLOCK_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/table/format.h"

namespace clsm {

class Comparator;
class Iterator;

class Block {
 public:
  // Reads the block at handle from file into a new block that the caller
  // holds one pin on: BlockCache::Release (or delete) frees it.
  static Status Read(RandomAccessFile* file, const ReadOptions& options, const BlockHandle& handle,
                     Block** block);
  // A new block holding a copy of contents, pinned once like Read's.
  static Block* Copy(const Slice& contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  // Frees the single allocation Read or Copy made.
  static void operator delete(void* p) { ::operator delete(p); }

  size_t size() const { return size_; }
  Iterator* NewIterator(const Comparator* comparator) const;

 private:
  friend class BlockCache;
  friend class BlockCursor;

  // Pin accounting in refs_: kPin per pin, plus kInCache while the cache
  // holds the block. The block is freed when refs_ reaches 0.
  static constexpr uint32_t kInCache = 1;
  static constexpr uint32_t kPin = 2;

  // Allocates header and size bytes plus a trailer; the caller fills data().
  static Block* Allocate(size_t size);
  explicit Block(size_t size) : size_(size) {}

  char* data() { return reinterpret_cast<char*>(this + 1); }
  const char* data() const { return reinterpret_cast<const char*>(this + 1); }
  // Locates the restart array once the bytes are in place.
  void ParseRestarts();

  // Cache state, owned by BlockCache: the key, the shard's hash chain and
  // LRU list links, and the pin word.
  uint64_t table_id_ = 0;
  uint64_t offset_ = 0;
  Block* next_hash_ = nullptr;
  Block* next_ = nullptr;
  Block* prev_ = nullptr;
  uint32_t hash_ = 0;
  std::atomic<uint32_t> refs_{kPin};

  size_t size_;
  uint32_t restart_offset_ = 0;  // offset in data() of the restart array
  uint32_t num_restarts_ = 0;    // 0 for a corrupt (or entry-less) block
  bool corrupt_ = false;
  // The block's bytes follow the header.
};

// A position in a block: the one seek routine, shared by Block's iterator
// (scans) and Table::InternalGet, which seeks the index and data blocks in
// place with no iterator. The current key is rebuilt in *key; its capacity
// is reused, so a cursor over a warm buffer seeks without allocating.
class BlockCursor {
 public:
  BlockCursor(const Block& block, const Comparator* comparator, std::string* key);

  bool Valid() const { return current_ < restarts_; }
  const Status& status() const { return status_; }
  Slice key() const { return Slice(*key_); }
  Slice value() const { return value_; }

  // Positions at the first entry >= target, or !Valid() if there is none.
  void Seek(const Slice& target);
  void SeekToFirst();
  void SeekToLast();
  void Next();
  void Prev();

 private:
  uint32_t NextEntryOffset() const {
    return static_cast<uint32_t>((value_.data() + value_.size()) - data_);
  }
  uint32_t GetRestartPoint(uint32_t index) const;
  void SeekToRestartPoint(uint32_t index);
  void CorruptionError();
  bool ParseNextKey();

  const Comparator* const comparator_;
  const char* const data_;       // underlying block contents
  uint32_t const restarts_;      // offset of restart array
  uint32_t const num_restarts_;  // number of entries in restart array
  std::string* const key_;

  // current_ is offset in data_ of current entry; >= restarts_ if !Valid.
  uint32_t current_;
  uint32_t restart_index_;  // Index of restart block in which current falls
  Slice value_;
  Status status_;
};

}  // namespace clsm

#endif  // CLSM_TABLE_BLOCK_H_
