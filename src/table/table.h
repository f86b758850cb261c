// SSTable reader: immutable, thread-safe without external synchronization —
// concurrent gets over the disk component never contend here (paper §2.3).
#ifndef CLSM_TABLE_TABLE_H_
#define CLSM_TABLE_TABLE_H_

#include <cstdint>
#include <memory>

#include "src/table/bloom.h"
#include "src/table/cache.h"
#include "src/table/format.h"
#include "src/table/iterator.h"
#include "src/util/comparator.h"
#include "src/util/env.h"
#include "src/util/options.h"

namespace clsm {

class Table {
 public:
  // Opens the table stored in file [0..file_size). On success *table is
  // non-null and owns file, which it closes when deleted; on failure file
  // is closed here. Its data blocks go through block_cache, which must
  // outlive it.
  static Status Open(const Options& options, const Comparator* comparator,
                     const FilterPolicy* filter_policy, BlockCache* block_cache,
                     std::unique_ptr<RandomAccessFile> file, uint64_t file_size, Table** table);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  ~Table();

  // New iterator over the table contents (two-level: index then block).
  Iterator* NewIterator(const ReadOptions&) const;

  // Point lookup. The table's Bloom filter is probed first; a key it rules
  // out ends the lookup with no index seek and no block read. Otherwise
  // seeks the index, then the candidate block, to the first entry >= k and,
  // if there is one, invokes handle_result(arg, found_key, found_value),
  // which returns whether that entry is the key looked for. A probe the
  // filter let through that finds no such entry counts as a Bloom false
  // positive.
  Status InternalGet(const ReadOptions&, const Slice& key, void* arg,
                     bool (*handle_result)(void* arg, const Slice& k, const Slice& v));

  // Approximate file offset where the data for key begins (for sizing).
  uint64_t ApproximateOffsetOf(const Slice& key) const;

 private:
  struct Rep;

  static Iterator* BlockReader(void*, const ReadOptions&, const Slice&);

  explicit Table(Rep* rep) : rep_(rep) {}

  void ReadMeta(const ReadOptions& options, const Footer& footer);
  void ReadFilter(const ReadOptions& options, const Slice& filter_handle_value);

  Rep* const rep_;
};

// Generic two-level iterator: an index iterator whose values are decoded by
// block_function into data iterators. Exposed for the version-set level
// iterators as well.
Iterator* NewTwoLevelIterator(Iterator* index_iter,
                              Iterator* (*block_function)(void* arg, const ReadOptions& options,
                                                          const Slice& index_value),
                              void* arg, const ReadOptions& options);

}  // namespace clsm

#endif  // CLSM_TABLE_TABLE_H_
