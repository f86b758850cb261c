#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "src/arena/arena.h"
#include "src/util/random.h"

namespace clsm {
namespace {

// Mixed sizes (mostly tiny, some up to 6000 bytes, a few large) through
// both entry points; every byte keeps the value written into it.
TEST(ConcurrentArenaTest, ManyAllocations) {
  std::vector<std::pair<size_t, char*>> allocated;
  ConcurrentArena arena;
  const int N = 100000;
  size_t bytes = 0;
  Random rnd(301);
  for (int i = 0; i < N; i++) {
    size_t s;
    if (i % (N / 10) == 0) {
      s = i;
    } else {
      s = rnd.OneIn(4000) ? rnd.Uniform(6000) : (rnd.OneIn(10) ? rnd.Uniform(100) : rnd.Uniform(20));
    }
    if (s == 0) {
      s = 1;
    }
    char* r;
    if (rnd.OneIn(10)) {
      r = arena.AllocateAligned(s);
    } else {
      r = arena.Allocate(s);
    }
    for (size_t b = 0; b < s; b++) {
      r[b] = static_cast<char>(i % 256);
    }
    bytes += s;
    allocated.push_back(std::make_pair(s, r));
    ASSERT_GE(arena.MemoryUsage(), bytes);
  }
  for (size_t i = 0; i < allocated.size(); i++) {
    size_t num_bytes = allocated[i].first;
    const char* p = allocated[i].second;
    for (size_t b = 0; b < num_bytes; b++) {
      ASSERT_EQ(static_cast<int>(p[b]) & 0xff, static_cast<int>(i % 256));
    }
  }
}

TEST(ConcurrentArenaTest, AlignmentInvariant) {
  ConcurrentArena arena;
  for (int i = 1; i < 200; i++) {
    char* p = arena.AllocateAligned(i);
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(p) & 7u) << "allocation of " << i;
  }
}

TEST(ConcurrentArenaTest, LargeAllocations) {
  ConcurrentArena arena;
  char* p = arena.AllocateAligned(10 * 1024 * 1024);
  memset(p, 0xab, 10 * 1024 * 1024);
  // The arena is still usable afterwards.
  char* q = arena.AllocateAligned(64);
  memset(q, 0xcd, 64);
  EXPECT_GE(arena.MemoryUsage(), 10u * 1024 * 1024);
}

// Property: concurrent allocations never overlap — each thread writes a
// distinct pattern into its blocks and verifies them afterwards.
TEST(ConcurrentArenaTest, ConcurrentDisjointness) {
  ConcurrentArena arena;
  constexpr int kThreads = 8;
  constexpr int kAllocsPerThread = 20000;
  std::vector<std::vector<std::pair<char*, size_t>>> blocks(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      Random rnd(1000 + t);
      for (int i = 0; i < kAllocsPerThread; i++) {
        size_t n = 1 + rnd.Uniform(96);
        char* p = arena.AllocateAligned(n);
        memset(p, t + 1, n);
        blocks[t].push_back({p, n});
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; t++) {
    for (auto [p, n] : blocks[t]) {
      for (size_t b = 0; b < n; b++) {
        ASSERT_EQ(t + 1, p[b]) << "cross-thread overwrite detected";
      }
    }
  }
}

size_t ResidentBytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long size_pages = 0;
  unsigned long resident_pages = 0;
  const int n = std::fscanf(f, "%lu %lu", &size_pages, &resident_pages);
  std::fclose(f);
  return n == 2 ? resident_pages * static_cast<size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

// A retired memtable's memory goes back to the OS: destroying a filled
// arena must shrink the process's resident set by about the arena's size,
// also after earlier arenas have come and gone (as in a long-running store,
// where a process allocator would keep freed chunks for reuse).
TEST(ConcurrentArenaTest, DestructionReturnsMemoryToOs) {
  if (ResidentBytes() == 0) {
    GTEST_SKIP() << "/proc/self/statm unavailable";
  }
  constexpr size_t kArenaBytes = 32u << 20;
  constexpr size_t kMinDrop = 24u << 20;
  constexpr int kThreads = 4;
  auto fill = [](ConcurrentArena* arena, size_t total) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([arena, total, t] {
        Random rnd(7 + t);
        while (arena->MemoryUsage() < total) {
          const size_t n = 16 + rnd.Uniform(400);
          memset(arena->AllocateAligned(n), t + 1, n);  // make the pages resident
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
  };
  {
    ConcurrentArena earlier;
    fill(&earlier, 1u << 20);
  }
  auto* arena = new ConcurrentArena;
  fill(arena, kArenaBytes);
  const size_t filled = ResidentBytes();
  delete arena;
  const size_t after = ResidentBytes();
  EXPECT_GE(filled, after + kMinDrop) << "resident " << (filled >> 20) << " MiB with the arena, "
                                      << (after >> 20) << " MiB after destroying it";
}

}  // namespace
}  // namespace clsm
