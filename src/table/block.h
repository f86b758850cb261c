// Immutable in-memory form of a data/index block, with a restart-point
// binary-searching iterator.
#ifndef CLSM_TABLE_BLOCK_H_
#define CLSM_TABLE_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <memory>

#include "src/table/format.h"

namespace clsm {

class Comparator;
class Iterator;

class Block {
 public:
  // Takes ownership of contents' buffer.
  explicit Block(BlockContents contents);

  Block(const Block&) = delete;
  Block& operator=(const Block&) = delete;

  size_t size() const { return size_; }
  Iterator* NewIterator(const Comparator* comparator);

 private:
  class Iter;

  uint32_t NumRestarts() const;

  std::unique_ptr<char[]> data_;
  size_t size_;
  uint32_t restart_offset_;  // Offset in data_ of restart array
};

}  // namespace clsm

#endif  // CLSM_TABLE_BLOCK_H_
