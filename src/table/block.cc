#include "src/table/block.h"

#include <cassert>
#include <cstring>
#include <new>

#include "src/table/iterator.h"
#include "src/util/coding.h"
#include "src/util/comparator.h"

namespace clsm {

Block* Block::Allocate(size_t size) {
  void* mem = ::operator new(sizeof(Block) + size + kBlockTrailerSize);
  return new (mem) Block(size);
}

Status Block::Read(RandomAccessFile* file, const ReadOptions& options, const BlockHandle& handle,
                   Block** block) {
  Block* b = Allocate(static_cast<size_t>(handle.size()));
  Status s = ReadBlock(file, options, handle, b->data());
  if (!s.ok()) {
    delete b;
    *block = nullptr;
    return s;
  }
  b->ParseRestarts();
  *block = b;
  return s;
}

Block* Block::Copy(const Slice& contents) {
  Block* b = Allocate(contents.size());
  std::memcpy(b->data(), contents.data(), contents.size());
  b->ParseRestarts();
  return b;
}

void Block::ParseRestarts() {
  if (size_ < sizeof(uint32_t)) {
    corrupt_ = true;
    return;
  }
  const uint32_t num_restarts = DecodeFixed32(data() + size_ - sizeof(uint32_t));
  const size_t max_restarts_allowed = (size_ - sizeof(uint32_t)) / sizeof(uint32_t);
  if (num_restarts > max_restarts_allowed) {
    // The size is too small for num_restarts.
    corrupt_ = true;
    return;
  }
  num_restarts_ = num_restarts;
  restart_offset_ = static_cast<uint32_t>(size_ - (1 + num_restarts) * sizeof(uint32_t));
}

// Decodes the entry at p (shared, non_shared, value_length header) or
// returns nullptr on malformed data.
static inline const char* DecodeEntry(const char* p, const char* limit, uint32_t* shared,
                                      uint32_t* non_shared, uint32_t* value_length) {
  if (limit - p < 3) {
    return nullptr;
  }
  *shared = reinterpret_cast<const uint8_t*>(p)[0];
  *non_shared = reinterpret_cast<const uint8_t*>(p)[1];
  *value_length = reinterpret_cast<const uint8_t*>(p)[2];
  if ((*shared | *non_shared | *value_length) < 128) {
    // Fast path: all three values are encoded in one byte each.
    p += 3;
  } else {
    if ((p = GetVarint32Ptr(p, limit, shared)) == nullptr) {
      return nullptr;
    }
    if ((p = GetVarint32Ptr(p, limit, non_shared)) == nullptr) {
      return nullptr;
    }
    if ((p = GetVarint32Ptr(p, limit, value_length)) == nullptr) {
      return nullptr;
    }
  }
  if (static_cast<uint32_t>(limit - p) < (*non_shared + *value_length)) {
    return nullptr;
  }
  return p;
}

BlockCursor::BlockCursor(const Block& block, const Comparator* comparator, std::string* key)
    : comparator_(comparator),
      data_(block.data()),
      restarts_(block.restart_offset_),
      num_restarts_(block.num_restarts_),
      key_(key),
      current_(restarts_),
      restart_index_(num_restarts_) {
  if (block.corrupt_) {
    status_ = Status::Corruption("bad block contents");
  }
}

void BlockCursor::Seek(const Slice& target) {
  if (num_restarts_ == 0) {
    return;
  }
  // Binary search in restart array to find the last restart point with a
  // key < target.
  uint32_t left = 0;
  uint32_t right = num_restarts_ - 1;
  while (left < right) {
    uint32_t mid = (left + right + 1) / 2;
    uint32_t region_offset = GetRestartPoint(mid);
    uint32_t shared, non_shared, value_length;
    const char* key_ptr =
        DecodeEntry(data_ + region_offset, data_ + restarts_, &shared, &non_shared, &value_length);
    if (key_ptr == nullptr || (shared != 0)) {
      CorruptionError();
      return;
    }
    Slice mid_key(key_ptr, non_shared);
    if (comparator_->Compare(mid_key, target) < 0) {
      // Key at "mid" is smaller than "target".  Therefore all
      // keys before "mid" are uninteresting.
      left = mid;
    } else {
      right = mid - 1;
    }
  }

  // Linear search within restart block for first key >= target.
  SeekToRestartPoint(left);
  while (ParseNextKey()) {
    if (comparator_->Compare(Slice(*key_), target) >= 0) {
      return;
    }
  }
}

void BlockCursor::SeekToFirst() {
  if (num_restarts_ == 0) {
    return;
  }
  SeekToRestartPoint(0);
  ParseNextKey();
}

void BlockCursor::SeekToLast() {
  if (num_restarts_ == 0) {
    return;
  }
  SeekToRestartPoint(num_restarts_ - 1);
  while (ParseNextKey() && NextEntryOffset() < restarts_) {
    // Keep skipping
  }
}

void BlockCursor::Next() {
  assert(Valid());
  ParseNextKey();
}

void BlockCursor::Prev() {
  assert(Valid());
  // Scan backwards to a restart point before current_.
  const uint32_t original = current_;
  while (GetRestartPoint(restart_index_) >= original) {
    if (restart_index_ == 0) {
      // No more entries
      current_ = restarts_;
      restart_index_ = num_restarts_;
      return;
    }
    restart_index_--;
  }
  SeekToRestartPoint(restart_index_);
  do {
    // Loop until end of current entry hits the start of original entry
  } while (ParseNextKey() && NextEntryOffset() < original);
}

uint32_t BlockCursor::GetRestartPoint(uint32_t index) const {
  assert(index < num_restarts_);
  return DecodeFixed32(data_ + restarts_ + index * sizeof(uint32_t));
}

void BlockCursor::SeekToRestartPoint(uint32_t index) {
  key_->clear();
  restart_index_ = index;
  // current_ will be fixed by ParseNextKey(): set value_ so that
  // NextEntryOffset() returns the restart offset.
  uint32_t offset = GetRestartPoint(index);
  value_ = Slice(data_ + offset, 0);
}

void BlockCursor::CorruptionError() {
  current_ = restarts_;
  restart_index_ = num_restarts_;
  status_ = Status::Corruption("bad entry in block");
  key_->clear();
  value_.clear();
}

bool BlockCursor::ParseNextKey() {
  current_ = NextEntryOffset();
  const char* p = data_ + current_;
  const char* limit = data_ + restarts_;  // Restarts come right after data
  if (p >= limit) {
    // No more entries; mark as invalid.
    current_ = restarts_;
    restart_index_ = num_restarts_;
    return false;
  }

  uint32_t shared, non_shared, value_length;
  p = DecodeEntry(p, limit, &shared, &non_shared, &value_length);
  if (p == nullptr || key_->size() < shared) {
    CorruptionError();
    return false;
  }
  key_->resize(shared);
  key_->append(p, non_shared);
  value_ = Slice(p + non_shared, value_length);
  while (restart_index_ + 1 < num_restarts_ && GetRestartPoint(restart_index_ + 1) < current_) {
    ++restart_index_;
  }
  return true;
}

namespace {

// Block's iterator: a BlockCursor over a key buffer of its own.
class BlockIter final : public Iterator {
 public:
  BlockIter(const Block& block, const Comparator* comparator)
      : cursor_(block, comparator, &key_) {}

  bool Valid() const override { return cursor_.Valid(); }
  Status status() const override { return cursor_.status(); }
  Slice key() const override {
    assert(Valid());
    return cursor_.key();
  }
  Slice value() const override {
    assert(Valid());
    return cursor_.value();
  }
  void Seek(const Slice& target) override { cursor_.Seek(target); }
  void SeekToFirst() override { cursor_.SeekToFirst(); }
  void SeekToLast() override { cursor_.SeekToLast(); }
  void Next() override { cursor_.Next(); }
  void Prev() override { cursor_.Prev(); }

 private:
  std::string key_;
  BlockCursor cursor_;
};

}  // namespace

Iterator* Block::NewIterator(const Comparator* comparator) const {
  return new BlockIter(*this, comparator);
}

}  // namespace clsm
