// On-disk framing of SSTables: block handles, the fixed footer, and the
// checksummed block read path.
#ifndef CLSM_TABLE_FORMAT_H_
#define CLSM_TABLE_FORMAT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/util/env.h"
#include "src/util/options.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace clsm {

// Location of a block within a table file.
class BlockHandle {
 public:
  enum { kMaxEncodedLength = 10 + 10 };

  BlockHandle() : offset_(~static_cast<uint64_t>(0)), size_(~static_cast<uint64_t>(0)) {}

  uint64_t offset() const { return offset_; }
  void set_offset(uint64_t offset) { offset_ = offset; }
  uint64_t size() const { return size_; }
  void set_size(uint64_t size) { size_ = size; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  uint64_t offset_;
  uint64_t size_;
};

// Fixed-size footer at the tail of every table file: metaindex handle,
// index handle, padding, magic.
class Footer {
 public:
  enum { kEncodedLength = 2 * BlockHandle::kMaxEncodedLength + 8 };

  const BlockHandle& metaindex_handle() const { return metaindex_handle_; }
  void set_metaindex_handle(const BlockHandle& h) { metaindex_handle_ = h; }
  const BlockHandle& index_handle() const { return index_handle_; }
  void set_index_handle(const BlockHandle& h) { index_handle_ = h; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(Slice* input);

 private:
  BlockHandle metaindex_handle_;
  BlockHandle index_handle_;
};

static const uint64_t kTableMagicNumber = 0xc1540ce5c1540ce5ull;

// 1-byte type (reserved for compression; always raw here) + 32-bit crc.
static const size_t kBlockTrailerSize = 5;

// A block's bytes, without its trailer, in a heap buffer the holder owns.
struct BlockContents {
  std::unique_ptr<char[]> data;
  size_t size = 0;
};

// Read the block identified by handle from file; verify CRC if requested.
Status ReadBlock(RandomAccessFile* file, const ReadOptions& options, const BlockHandle& handle,
                 BlockContents* result);

}  // namespace clsm

#endif  // CLSM_TABLE_FORMAT_H_
