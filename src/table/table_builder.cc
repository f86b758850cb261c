#include "src/table/table_builder.h"

#include <cassert>
#include <vector>

#include "src/table/block_builder.h"
#include "src/table/format.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace clsm {

struct TableBuilder::Rep {
  Rep(const Options& opt, const Comparator* cmp, const FilterPolicy* policy, WritableFile* f)
      : options(opt),
        comparator(cmp),
        file(f),
        offset(0),
        data_block(&options, cmp),
        index_block(&options, cmp),
        num_entries(0),
        closed(false),
        filter_policy(policy),
        pending_index_entry(false) {}

  Options options;
  const Comparator* comparator;
  WritableFile* file;
  uint64_t offset;
  Status status;
  BlockBuilder data_block;
  BlockBuilder index_block;
  std::string last_key;
  int64_t num_entries;
  bool closed;  // Either Finish() or Abandon() has been called.
  // The hashes of the table's keys, turned into one filter by Finish: four
  // bytes per key however long the keys are. A hash equal to the one before
  // it (another version of the same user key) is kept once; the filter
  // depends only on which hashes it holds.
  const FilterPolicy* filter_policy;
  std::vector<uint32_t> filter_hashes;

  // Index entries are emitted lazily, only when the following block's first
  // key is known, so FindShortestSeparator can shrink them.
  bool pending_index_entry;
  BlockHandle pending_handle;  // Handle to add to index block

  std::string compressed_output;
};

TableBuilder::TableBuilder(const Options& options, const Comparator* comparator,
                           const FilterPolicy* filter_policy, WritableFile* file)
    : rep_(new Rep(options, comparator, filter_policy, file)) {}

TableBuilder::~TableBuilder() {
  assert(rep_->closed);  // Catch errors where caller forgot to call Finish()
  delete rep_;
}

void TableBuilder::Add(const Slice& key, const Slice& value) {
  Rep* r = rep_;
  assert(!r->closed);
  if (!ok()) {
    return;
  }
  if (r->num_entries > 0) {
    assert(r->comparator->Compare(key, Slice(r->last_key)) > 0);
  }

  if (r->pending_index_entry) {
    assert(r->data_block.empty());
    r->comparator->FindShortestSeparator(&r->last_key, key);
    std::string handle_encoding;
    r->pending_handle.EncodeTo(&handle_encoding);
    r->index_block.Add(r->last_key, Slice(handle_encoding));
    r->pending_index_entry = false;
  }

  if (r->filter_policy != nullptr) {
    const uint32_t h = r->filter_policy->KeyHash(key);
    if (r->filter_hashes.empty() || r->filter_hashes.back() != h) {
      r->filter_hashes.push_back(h);
    }
  }

  r->last_key.assign(key.data(), key.size());
  r->num_entries++;
  r->data_block.Add(key, value);

  const size_t estimated_block_size = r->data_block.CurrentSizeEstimate();
  if (estimated_block_size >= r->options.block_size) {
    Flush();
  }
}

void TableBuilder::Flush() {
  Rep* r = rep_;
  assert(!r->closed);
  if (!ok()) {
    return;
  }
  if (r->data_block.empty()) {
    return;
  }
  assert(!r->pending_index_entry);
  // The block stays in the file's buffer: the writer, not the builder,
  // decides when bytes reach the OS, so blocks leave in large writes.
  WriteBlock(&r->data_block, &r->pending_handle);
  if (ok()) {
    r->pending_index_entry = true;
  }
}

void TableBuilder::WriteBlock(BlockBuilder* block, BlockHandle* handle) {
  assert(ok());
  Slice raw = block->Finish();
  WriteRawBlock(raw, handle);
  block->Reset();
}

void TableBuilder::WriteRawBlock(const Slice& block_contents, BlockHandle* handle) {
  Rep* r = rep_;
  handle->set_offset(r->offset);
  handle->set_size(block_contents.size());
  r->status = r->file->Append(block_contents);
  if (r->status.ok()) {
    char trailer[kBlockTrailerSize];
    trailer[0] = 0;  // raw (no compression)
    uint32_t crc = crc32c::Value(block_contents.data(), block_contents.size());
    crc = crc32c::Extend(crc, trailer, 1);  // Extend crc to cover block type
    EncodeFixed32(trailer + 1, crc32c::Mask(crc));
    r->status = r->file->Append(Slice(trailer, kBlockTrailerSize));
    if (r->status.ok()) {
      r->offset += block_contents.size() + kBlockTrailerSize;
    }
  }
}

Status TableBuilder::status() const { return rep_->status; }

Status TableBuilder::Finish() {
  Rep* r = rep_;
  Flush();
  assert(!r->closed);
  r->closed = true;

  BlockHandle filter_block_handle, metaindex_block_handle, index_block_handle;

  // Write filter block.
  if (ok() && r->filter_policy != nullptr) {
    std::string filter;
    r->filter_policy->CreateFilter(r->filter_hashes.data(), r->filter_hashes.size(), &filter);
    WriteRawBlock(filter, &filter_block_handle);
  }

  // Write metaindex block.
  if (ok()) {
    BlockBuilder meta_index_block(&r->options, BytewiseComparator());
    if (r->filter_policy != nullptr) {
      std::string handle_encoding;
      filter_block_handle.EncodeTo(&handle_encoding);
      meta_index_block.Add(FilterMetaKey(*r->filter_policy), handle_encoding);
    }
    WriteBlock(&meta_index_block, &metaindex_block_handle);
  }

  // Write index block.
  if (ok()) {
    if (r->pending_index_entry) {
      r->comparator->FindShortSuccessor(&r->last_key);
      std::string handle_encoding;
      r->pending_handle.EncodeTo(&handle_encoding);
      r->index_block.Add(r->last_key, Slice(handle_encoding));
      r->pending_index_entry = false;
    }
    WriteBlock(&r->index_block, &index_block_handle);
  }

  // Write footer.
  if (ok()) {
    Footer footer;
    footer.set_metaindex_handle(metaindex_block_handle);
    footer.set_index_handle(index_block_handle);
    std::string footer_encoding;
    footer.EncodeTo(&footer_encoding);
    r->status = r->file->Append(footer_encoding);
    if (r->status.ok()) {
      r->offset += footer_encoding.size();
    }
  }
  return r->status;
}

void TableBuilder::Abandon() {
  Rep* r = rep_;
  assert(!r->closed);
  r->closed = true;
}

uint64_t TableBuilder::NumEntries() const { return rep_->num_entries; }

uint64_t TableBuilder::FileSize() const { return rep_->offset; }

}  // namespace clsm
