// Builds an SSTable file: data blocks, filter block, metaindex, index,
// footer. Used by memtable flushes and compactions.
#ifndef CLSM_TABLE_TABLE_BUILDER_H_
#define CLSM_TABLE_TABLE_BUILDER_H_

#include <cstdint>

#include "src/table/bloom.h"
#include "src/util/comparator.h"
#include "src/util/env.h"
#include "src/util/options.h"
#include "src/util/status.h"

namespace clsm {

class BlockBuilder;

class TableBuilder {
 public:
  // filter_policy may be null (no filter block). Does not take ownership of
  // file; caller must Sync/Close after Finish(). The builder only appends:
  // when buffered bytes reach the OS is up to the file and its caller.
  TableBuilder(const Options& options, const Comparator* comparator,
               const FilterPolicy* filter_policy, WritableFile* file);

  TableBuilder(const TableBuilder&) = delete;
  TableBuilder& operator=(const TableBuilder&) = delete;

  // REQUIRES: Finish() or Abandon() called.
  ~TableBuilder();

  // REQUIRES: key is after any previously added key in comparator order.
  void Add(const Slice& key, const Slice& value);

  Status status() const;

  // Finish building the table; file contents are complete after this.
  Status Finish();

  // Abandon the table contents (e.g. on error).
  void Abandon();

  uint64_t NumEntries() const;
  uint64_t FileSize() const;

 private:
  bool ok() const { return status().ok(); }
  // Appends the pending data block to the file (no file Flush).
  void Flush();
  void WriteBlock(BlockBuilder* block, class BlockHandle* handle);
  void WriteRawBlock(const Slice& data, BlockHandle* handle);

  struct Rep;
  Rep* rep_;
};

}  // namespace clsm

#endif  // CLSM_TABLE_TABLE_BUILDER_H_
