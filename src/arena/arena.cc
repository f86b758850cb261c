#include "src/arena/arena.h"

#include <sys/mman.h>

#include <cstdlib>

namespace clsm {

namespace {
// A standard chunk is one 64-page mapping, header included: 256 KiB amortizes
// the mmap call and the install race over thousands of memtable entries.
constexpr size_t kPageBytes = 4096;
constexpr size_t kChunkBytes = 64 * kPageBytes;
}  // namespace

ConcurrentArena::ConcurrentArena() : memory_usage_(0) {
  current_.store(NewChunk(0, nullptr), std::memory_order_relaxed);
}

ConcurrentArena::~ConcurrentArena() {
  Chunk* c = current_.load(std::memory_order_relaxed);
  while (c != nullptr) {
    Chunk* next = c->next;
    DeleteChunk(c);
    c = next;
  }
}

ConcurrentArena::Chunk* ConcurrentArena::NewChunk(size_t min_capacity, Chunk* next) {
  size_t map_bytes = kChunkBytes;
  if (sizeof(Chunk) + min_capacity > map_bytes) {
    // Oversized allocations get a mapping of their own, rounded up to whole
    // pages; the rounding slack stays usable by later allocations.
    map_bytes = (sizeof(Chunk) + min_capacity + kPageBytes - 1) / kPageBytes * kPageBytes;
  }
  void* raw = mmap(nullptr, map_bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    abort();
  }
  Chunk* c = static_cast<Chunk*>(raw);
  c->offset.store(0, std::memory_order_relaxed);
  c->capacity = map_bytes - sizeof(Chunk);
  c->next = next;
  return c;
}

void ConcurrentArena::DeleteChunk(Chunk* c) { munmap(c, sizeof(Chunk) + c->capacity); }

char* ConcurrentArena::AllocateAligned(size_t bytes) {
  assert(bytes > 0);
  // Round to 8-byte multiples so every returned pointer stays aligned.
  bytes = (bytes + 7) & ~size_t{7};
  // Usage counts bytes handed out, not chunk capacity: the memtable-roll
  // trigger compares this against write_buffer_size, and counting reserved
  // capacity would make small write buffers appear instantly full.
  memory_usage_.fetch_add(bytes, std::memory_order_relaxed);
  while (true) {
    Chunk* c = current_.load(std::memory_order_acquire);
    size_t off = c->offset.fetch_add(bytes, std::memory_order_relaxed);
    if (off + bytes <= c->capacity) {
      return c->data() + off;
    }
    // Chunk exhausted: race to install a replacement. The loser unmaps its
    // candidate and retries in the winner's chunk.
    Chunk* fresh = NewChunk(bytes, c);
    Chunk* expected = c;
    if (!current_.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel)) {
      DeleteChunk(fresh);
    }
  }
}

}  // namespace clsm
