#include "src/table/table.h"

#include "src/obs/metrics.h"  // LatencyClock (inline; no clsm_obs link dep)
#include "src/obs/perf_context.h"
#include "src/table/block.h"

namespace clsm {

struct Table::Rep {
  const Comparator* comparator;
  const FilterPolicy* filter_policy;
  BlockCache* block_cache;
  uint64_t cache_id;
  std::unique_ptr<RandomAccessFile> file;
  // One filter over every key of the table; empty when the table has none
  // under filter_policy's key (or there is no policy).
  std::unique_ptr<char[]> filter_data;
  Slice filter;

  BlockHandle metaindex_handle;  // Handle to metaindex_block: saved from footer
  std::unique_ptr<Block> index_block;
};

Status Table::Open(const Options& options, const Comparator* comparator,
                   const FilterPolicy* filter_policy, BlockCache* block_cache,
                   std::unique_ptr<RandomAccessFile> file, uint64_t size, Table** table) {
  *table = nullptr;
  if (size < Footer::kEncodedLength) {
    return Status::Corruption("file is too short to be an sstable");
  }

  char footer_space[Footer::kEncodedLength];
  Slice footer_input;
  Status s = file->Read(size - Footer::kEncodedLength, Footer::kEncodedLength, &footer_input,
                        footer_space);
  if (!s.ok()) {
    return s;
  }

  Footer footer;
  Slice footer_slice = footer_input;
  s = footer.DecodeFrom(&footer_slice);
  if (!s.ok()) {
    return s;
  }

  // Read the index block.
  ReadOptions opt;
  opt.verify_checksums = options.paranoid_checks;
  Block* index_block = nullptr;
  s = Block::Read(file.get(), opt, footer.index_handle(), &index_block);
  if (!s.ok()) {
    return s;
  }

  Rep* rep = new Table::Rep;
  rep->comparator = comparator;
  rep->filter_policy = filter_policy;
  rep->block_cache = block_cache;
  rep->cache_id = block_cache->NewTableId();
  rep->file = std::move(file);
  rep->metaindex_handle = footer.metaindex_handle();
  rep->index_block.reset(index_block);
  *table = new Table(rep);
  (*table)->ReadMeta(opt, footer);
  return Status::OK();
}

void Table::ReadMeta(const ReadOptions& options, const Footer& footer) {
  if (rep_->filter_policy == nullptr) {
    return;  // Do not need any metadata
  }

  Block* meta = nullptr;
  if (!Block::Read(rep_->file.get(), options, footer.metaindex_handle(), &meta).ok()) {
    // Do not propagate errors since meta info is not needed for operation.
    return;
  }
  std::unique_ptr<Block> owned(meta);
  std::string found;
  BlockCursor cursor(*meta, BytewiseComparator(), &found);
  const std::string key = FilterMetaKey(*rep_->filter_policy);
  cursor.Seek(key);
  if (cursor.Valid() && cursor.key() == Slice(key)) {
    ReadFilter(options, cursor.value());
  }
}

void Table::ReadFilter(const ReadOptions& options, const Slice& filter_handle_value) {
  Slice v = filter_handle_value;
  BlockHandle filter_handle;
  if (!filter_handle.DecodeFrom(&v).ok()) {
    return;
  }

  const size_t n = static_cast<size_t>(filter_handle.size());
  std::unique_ptr<char[]> buf(new char[n + kBlockTrailerSize]);
  if (!ReadBlock(rep_->file.get(), options, filter_handle, buf.get()).ok()) {
    return;
  }
  rep_->filter_data = std::move(buf);
  rep_->filter = Slice(rep_->filter_data.get(), n);
}

Table::~Table() { delete rep_; }

Status Table::PinBlock(const ReadOptions& options, const Slice& index_value,
                       Block** block) const {
  BlockHandle handle;
  Slice input = index_value;
  Status s = handle.DecodeFrom(&input);
  if (!s.ok()) {
    return s;
  }
  PerfContext& ctx = tls_perf_context;
  const bool timed = ctx.timers_enabled();
  const uint64_t t0 = timed ? LatencyClock::Ticks() : 0;
  BlockCache* block_cache = rep_->block_cache;
  *block = block_cache->Lookup(rep_->cache_id, handle.offset());
  if (*block != nullptr) {
    CLSM_PERF_COUNT_ADD(block_cache_hits, 1);
    if (timed) {
      ctx.block_cache_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - t0);
    }
    return s;
  }
  const uint64_t t1 = timed ? LatencyClock::Ticks() : 0;
  s = Block::Read(rep_->file.get(), options, handle, block);
  const uint64_t t2 = timed ? LatencyClock::Ticks() : 0;
  if (s.ok() && options.fill_cache) {
    block_cache->Insert(rep_->cache_id, handle.offset(), *block);
  }
  if (timed) {
    ctx.block_read_nanos += LatencyClock::ToNanos(t2 - t1);
    ctx.block_cache_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - t2 + t1 - t0);
  }
  return s;
}

static void ReleaseBlock(void* block, void*) { BlockCache::Release(reinterpret_cast<Block*>(block)); }

// Converts an index iterator value (an encoded BlockHandle) into an iterator
// over the contents of the corresponding block, consulting the block cache.
Iterator* Table::BlockReader(void* arg, const ReadOptions& options, const Slice& index_value) {
  Block* block;
  Status s = reinterpret_cast<const Table*>(arg)->PinBlock(options, index_value, &block);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }
  Iterator* iter = block->NewIterator(reinterpret_cast<const Table*>(arg)->rep_->comparator);
  iter->RegisterCleanup(&ReleaseBlock, block, nullptr);
  return iter;
}

Iterator* Table::NewIterator(const ReadOptions& options) const {
  return NewTwoLevelIterator(rep_->index_block->NewIterator(rep_->comparator),
                             &Table::BlockReader, const_cast<Table*>(this), options);
}

// The key buffer point lookups seek with, one per thread: a lookup reuses
// the capacity earlier lookups grew, so it allocates nothing.
static std::string* LookupKeyBuffer() {
  static thread_local std::string key;
  return &key;
}

Status Table::InternalGet(const ReadOptions& options, const Slice& k, void* arg,
                          bool (*handle_result)(void*, const Slice&, const Slice&)) {
  PerfContext& ctx = tls_perf_context;
  const bool timed = ctx.timers_enabled();
  const bool filtered = !rep_->filter.empty();
  if (filtered) {
    const uint64_t t0 = timed ? LatencyClock::Ticks() : 0;
    const bool may_match = rep_->filter_policy->KeyMayMatch(k, rep_->filter);
    if (timed) {
      ctx.filter_probe_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - t0);
    }
    if (!may_match) {
      // Not found: the filter rules the key out before any index seek.
      CLSM_PERF_COUNT_ADD(bloom_useful, 1);
      return Status::OK();
    }
  }

  // Both seeks run in place, on this thread's key buffer: the index
  // entry's value (the data block's handle) points into the index block,
  // so the buffer is free for the data block's keys once it is found.
  CLSM_PERF_COUNT_ADD(index_seeks, 1);
  std::string* key_buffer = LookupKeyBuffer();
  const uint64_t t0 = timed ? LatencyClock::Ticks() : 0;
  BlockCursor index(*rep_->index_block, rep_->comparator, key_buffer);
  index.Seek(k);
  if (timed) {
    ctx.index_seek_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - t0);
  }
  Status s = index.status();
  bool matched = false;
  if (index.Valid()) {
    Block* block;
    s = PinBlock(options, index.value(), &block);
    if (s.ok()) {
      BlockCursor data(*block, rep_->comparator, key_buffer);
      data.Seek(k);
      matched = data.Valid() && (*handle_result)(arg, data.key(), data.value());
      s = data.status();
      const uint64_t t1 = timed ? LatencyClock::Ticks() : 0;
      BlockCache::Release(block);
      if (timed) {
        ctx.block_cache_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - t1);
      }
    }
  }
  if (filtered && !matched && s.ok()) {
    // The filter said "maybe" and the table holds no such entry.
    CLSM_PERF_COUNT_ADD(bloom_false_positives, 1);
  }
  return s;
}

uint64_t Table::ApproximateOffsetOf(const Slice& key) const {
  std::string found;
  BlockCursor index(*rep_->index_block, rep_->comparator, &found);
  index.Seek(key);
  if (index.Valid()) {
    BlockHandle handle;
    Slice input = index.value();
    if (handle.DecodeFrom(&input).ok()) {
      return handle.offset();
    }
    // Strange: we can't decode the block handle in the index block.
    // We'll just return the offset of the metaindex block, which is
    // close to the whole file size for this case.
  }
  // key is past the last key in the file (or its handle is bad): the
  // metaindex block's offset is right near the end of the file.
  return rep_->metaindex_handle.offset();
}

namespace {

typedef Iterator* (*BlockFunction)(void*, const ReadOptions&, const Slice&);

class TwoLevelIterator final : public Iterator {
 public:
  TwoLevelIterator(Iterator* index_iter, BlockFunction block_function, void* arg,
                   const ReadOptions& options)
      : block_function_(block_function),
        arg_(arg),
        options_(options),
        index_iter_(index_iter),
        data_iter_(nullptr) {}

  ~TwoLevelIterator() override {
    delete index_iter_;
    delete data_iter_;
  }

  void Seek(const Slice& target) override {
    index_iter_->Seek(target);
    InitDataBlock();
    if (data_iter_ != nullptr) {
      data_iter_->Seek(target);
    }
    SkipEmptyDataBlocksForward();
  }
  void SeekToFirst() override {
    index_iter_->SeekToFirst();
    InitDataBlock();
    if (data_iter_ != nullptr) {
      data_iter_->SeekToFirst();
    }
    SkipEmptyDataBlocksForward();
  }
  void SeekToLast() override {
    index_iter_->SeekToLast();
    InitDataBlock();
    if (data_iter_ != nullptr) {
      data_iter_->SeekToLast();
    }
    SkipEmptyDataBlocksBackward();
  }
  void Next() override {
    assert(Valid());
    data_iter_->Next();
    SkipEmptyDataBlocksForward();
  }
  void Prev() override {
    assert(Valid());
    data_iter_->Prev();
    SkipEmptyDataBlocksBackward();
  }

  bool Valid() const override { return data_iter_ != nullptr && data_iter_->Valid(); }
  Slice key() const override {
    assert(Valid());
    return data_iter_->key();
  }
  Slice value() const override {
    assert(Valid());
    return data_iter_->value();
  }
  Status status() const override {
    if (!index_iter_->status().ok()) {
      return index_iter_->status();
    } else if (data_iter_ != nullptr && !data_iter_->status().ok()) {
      return data_iter_->status();
    } else {
      return status_;
    }
  }

 private:
  void SaveError(const Status& s) {
    if (status_.ok() && !s.ok()) {
      status_ = s;
    }
  }

  void SkipEmptyDataBlocksForward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Next();
      InitDataBlock();
      if (data_iter_ != nullptr) {
        data_iter_->SeekToFirst();
      }
    }
  }

  void SkipEmptyDataBlocksBackward() {
    while (data_iter_ == nullptr || !data_iter_->Valid()) {
      if (!index_iter_->Valid()) {
        SetDataIterator(nullptr);
        return;
      }
      index_iter_->Prev();
      InitDataBlock();
      if (data_iter_ != nullptr) {
        data_iter_->SeekToLast();
      }
    }
  }

  void SetDataIterator(Iterator* data_iter) {
    if (data_iter_ != nullptr) {
      SaveError(data_iter_->status());
      delete data_iter_;
    }
    data_iter_ = data_iter;
  }

  void InitDataBlock() {
    if (!index_iter_->Valid()) {
      SetDataIterator(nullptr);
    } else {
      Slice handle = index_iter_->value();
      if (data_iter_ != nullptr && handle.compare(data_block_handle_) == 0) {
        // data_iter_ is already constructed with this iterator, so
        // no need to change anything
      } else {
        Iterator* iter = (*block_function_)(arg_, options_, handle);
        data_block_handle_.assign(handle.data(), handle.size());
        SetDataIterator(iter);
      }
    }
  }

  BlockFunction block_function_;
  void* arg_;
  const ReadOptions options_;
  Status status_;
  Iterator* index_iter_;
  Iterator* data_iter_;  // May be nullptr
  // If data_iter_ is non-null, then data_block_handle_ holds the handle
  // passed to block_function_ to create the data_iter_.
  std::string data_block_handle_;
};

}  // namespace

Iterator* NewTwoLevelIterator(Iterator* index_iter, BlockFunction block_function, void* arg,
                              const ReadOptions& options) {
  return new TwoLevelIterator(index_iter, block_function, arg, options);
}

}  // namespace clsm
