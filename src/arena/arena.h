// Memory arena backing the in-memory component.
//
// ConcurrentArena is the non-blocking allocator the paper's implementation
// section calls for (§4, citing Michael's scalable lock-free allocation):
// allocation is a fetch_add bump inside the current chunk; chunk exhaustion
// is handled by a CAS race to install a fresh chunk, so no allocating thread
// ever blocks on another. Chunks are mapped straight from the OS with mmap
// and unmapped at arena destruction, which matches memtable lifetime (a
// memtable dies wholesale after its merge): a retired memtable's memory goes
// back to the OS instead of staying resident in the process allocator.
#ifndef CLSM_ARENA_ARENA_H_
#define CLSM_ARENA_ARENA_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>

namespace clsm {

// Lock-free multi-producer arena.
class ConcurrentArena {
 public:
  ConcurrentArena();
  ~ConcurrentArena();

  ConcurrentArena(const ConcurrentArena&) = delete;
  ConcurrentArena& operator=(const ConcurrentArena&) = delete;

  // Returns pointer-aligned storage; never returns nullptr (aborts on OOM).
  char* AllocateAligned(size_t bytes);
  char* Allocate(size_t bytes) { return AllocateAligned(bytes); }

  size_t MemoryUsage() const { return memory_usage_.load(std::memory_order_relaxed); }

 private:
  // Header at the start of each mapping; the data follows it, up to the end
  // of the mapping (sizeof(Chunk) + capacity bytes, a whole number of pages).
  struct Chunk {
    std::atomic<size_t> offset;
    size_t capacity;
    Chunk* next;  // previous chunk in the retained list
    char* data() { return reinterpret_cast<char*>(this) + sizeof(Chunk); }
  };

  // Maps a chunk whose data holds at least min_capacity bytes.
  static Chunk* NewChunk(size_t min_capacity, Chunk* next);
  static void DeleteChunk(Chunk* c);

  std::atomic<Chunk*> current_;
  std::atomic<size_t> memory_usage_;
};

}  // namespace clsm

#endif  // CLSM_ARENA_ARENA_H_
