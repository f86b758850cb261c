#include "src/table/format.h"

#include <cassert>

#include "src/obs/metrics.h"  // LatencyClock (inline; no clsm_obs link dep)
#include "src/obs/perf_context.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"

namespace clsm {

void BlockHandle::EncodeTo(std::string* dst) const {
  // Sanity: fields must be set.
  assert(offset_ != ~static_cast<uint64_t>(0));
  assert(size_ != ~static_cast<uint64_t>(0));
  PutVarint64(dst, offset_);
  PutVarint64(dst, size_);
}

Status BlockHandle::DecodeFrom(Slice* input) {
  if (GetVarint64(input, &offset_) && GetVarint64(input, &size_)) {
    return Status::OK();
  }
  return Status::Corruption("bad block handle");
}

void Footer::EncodeTo(std::string* dst) const {
  const size_t original_size = dst->size();
  metaindex_handle_.EncodeTo(dst);
  index_handle_.EncodeTo(dst);
  dst->resize(original_size + 2 * BlockHandle::kMaxEncodedLength);  // Padding
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber & 0xffffffffu));
  PutFixed32(dst, static_cast<uint32_t>(kTableMagicNumber >> 32));
  assert(dst->size() == original_size + kEncodedLength);
}

Status Footer::DecodeFrom(Slice* input) {
  if (input->size() < kEncodedLength) {
    return Status::Corruption("footer too short");
  }
  const char* magic_ptr = input->data() + kEncodedLength - 8;
  const uint32_t magic_lo = DecodeFixed32(magic_ptr);
  const uint32_t magic_hi = DecodeFixed32(magic_ptr + 4);
  const uint64_t magic =
      ((static_cast<uint64_t>(magic_hi) << 32) | (static_cast<uint64_t>(magic_lo)));
  if (magic != kTableMagicNumber) {
    return Status::Corruption("not an sstable (bad magic number)");
  }

  Status result = metaindex_handle_.DecodeFrom(input);
  if (result.ok()) {
    result = index_handle_.DecodeFrom(input);
  }
  if (result.ok()) {
    // Skip over any leftover data (just padding for now).
    const char* end = magic_ptr + 8;
    *input = Slice(end, input->data() + input->size() - end);
  }
  return result;
}

Status ReadBlock(RandomAccessFile* file, const ReadOptions& options, const BlockHandle& handle,
                 BlockContents* result) {
  // Per-op attribution: every SSTable block IO funnels through here, so
  // this is the one point that counts physical block reads and bytes and
  // times them (buffer allocation, read and checksum).
  PerfContext& ctx = tls_perf_context;
  const bool timed = ctx.timers_enabled();
  const uint64_t t0 = timed ? LatencyClock::Ticks() : 0;
  const size_t n = static_cast<size_t>(handle.size());
  std::unique_ptr<char[]> buf(new char[n + kBlockTrailerSize]);
  Slice contents;
  Status s = file->Read(handle.offset(), n + kBlockTrailerSize, &contents, buf.get());
  if (!s.ok()) {
    return s;
  }
  if (contents.size() != n + kBlockTrailerSize) {
    return Status::Corruption("truncated block read");
  }
  assert(contents.data() == buf.get());
  if (ctx.counts_enabled()) {
    ctx.block_reads++;
    ctx.block_read_bytes += n + kBlockTrailerSize;
  }

  if (options.verify_checksums) {
    const uint64_t crc_t0 = timed ? LatencyClock::Ticks() : 0;
    const uint32_t crc = crc32c::Unmask(DecodeFixed32(buf.get() + n + 1));
    const uint32_t actual = crc32c::Value(buf.get(), n + 1);
    if (timed) {
      ctx.crc_verify_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - crc_t0);
    }
    if (actual != crc) {
      return Status::Corruption("block checksum mismatch");
    }
  }
  if (timed) {
    ctx.block_read_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - t0);
  }
  result->data = std::move(buf);
  result->size = n;
  return Status::OK();
}

}  // namespace clsm
