#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <thread>
#include <vector>

#include "src/arena/arena.h"
#include "src/skiplist/concurrent_skiplist.h"
#include "src/util/coding.h"
#include "src/util/random.h"

namespace clsm {
namespace {

// Keys are arena-encoded fixed64 big-endian-ish values so pointer keys have
// stable storage. Comparator decodes and compares numerically.
struct U64Comparator {
  int operator()(const char* a, const char* b) const {
    uint64_t va = DecodeFixed64(a);
    uint64_t vb = DecodeFixed64(b);
    if (va < vb) {
      return -1;
    }
    if (va > vb) {
      return +1;
    }
    return 0;
  }
};

typedef ConcurrentSkipList<const char*, U64Comparator> TestList;

// U64Comparator that counts its calls; the list holds a copy of the
// comparator, so the count lives behind a pointer.
struct CountingComparator {
  uint64_t* calls;
  int operator()(const char* a, const char* b) const {
    ++*calls;
    return U64Comparator()(a, b);
  }
};

uint64_t GroupOf(const char* key) { return DecodeFixed64(key) >> 32; }

class SkipListTest : public ::testing::Test {
 protected:
  const char* MakeKey(uint64_t v) {
    char* p = arena_.AllocateAligned(8);
    EncodeFixed64(p, v);
    return p;
  }

  ConcurrentArena arena_;
};

TEST_F(SkipListTest, Empty) {
  TestList list(U64Comparator(), &arena_);
  EXPECT_FALSE(list.Contains(MakeKey(10)));

  TestList::Iterator iter(&list);
  EXPECT_FALSE(iter.Valid());
  iter.SeekToFirst();
  EXPECT_FALSE(iter.Valid());
  iter.Seek(MakeKey(100));
  EXPECT_FALSE(iter.Valid());
  iter.SeekToLast();
  EXPECT_FALSE(iter.Valid());
}

TEST_F(SkipListTest, InsertAndLookup) {
  const int N = 2000;
  const int R = 5000;
  Random rnd(1000);
  std::set<uint64_t> keys;
  TestList list(U64Comparator(), &arena_);
  for (int i = 0; i < N; i++) {
    uint64_t key = rnd.Next() % R;
    if (keys.insert(key).second) {
      list.Insert(MakeKey(key));
    }
  }
  EXPECT_EQ(keys.size(), list.ApproxCount());
  EXPECT_EQ("", list.CheckStructure());

  for (uint64_t i = 0; i < R; i++) {
    EXPECT_EQ(keys.count(i) == 1, list.Contains(MakeKey(i))) << i;
  }

  // Forward iteration yields exactly the sorted key set.
  {
    TestList::Iterator iter(&list);
    iter.SeekToFirst();
    for (uint64_t expected : keys) {
      ASSERT_TRUE(iter.Valid());
      EXPECT_EQ(expected, DecodeFixed64(iter.key()));
      iter.Next();
    }
    EXPECT_FALSE(iter.Valid());
  }

  // Seek semantics: first element >= target.
  {
    TestList::Iterator iter(&list);
    for (uint64_t probe = 0; probe < R; probe += 97) {
      iter.Seek(MakeKey(probe));
      auto it = keys.lower_bound(probe);
      if (it == keys.end()) {
        EXPECT_FALSE(iter.Valid());
      } else {
        ASSERT_TRUE(iter.Valid());
        EXPECT_EQ(*it, DecodeFixed64(iter.key()));
      }
    }
  }

  // Backward iteration.
  {
    TestList::Iterator iter(&list);
    iter.SeekToLast();
    for (auto it = keys.rbegin(); it != keys.rend(); ++it) {
      ASSERT_TRUE(iter.Valid());
      EXPECT_EQ(*it, DecodeFixed64(iter.key()));
      iter.Prev();
    }
    EXPECT_FALSE(iter.Valid());
  }
}

TEST_F(SkipListTest, ConcurrentInsertAllVisible) {
  TestList list(U64Comparator(), &arena_);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        // Disjoint key ranges per thread; interleaved globally.
        list.Insert(MakeKey(static_cast<uint64_t>(i) * kThreads + t));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(static_cast<size_t>(kThreads * kPerThread), list.ApproxCount());
  EXPECT_EQ("", list.CheckStructure());

  // Every key present, in exact sorted order with no gaps.
  TestList::Iterator iter(&list);
  iter.SeekToFirst();
  for (uint64_t expected = 0; expected < kThreads * kPerThread; expected++) {
    ASSERT_TRUE(iter.Valid());
    ASSERT_EQ(expected, DecodeFixed64(iter.key()));
    iter.Next();
  }
  EXPECT_FALSE(iter.Valid());
}

// Weak consistency property (paper §3.2): an element present for the whole
// duration of a scan is returned by the scan, even with concurrent inserts.
TEST_F(SkipListTest, WeaklyConsistentIterators) {
  TestList list(U64Comparator(), &arena_);
  // Pre-populate even keys 0..2N.
  constexpr uint64_t kN = 20000;
  for (uint64_t i = 0; i <= kN; i++) {
    list.Insert(MakeKey(i * 2));
  }
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Concurrently insert odd keys.
    for (uint64_t i = 0; i < kN && !stop.load(); i++) {
      list.Insert(MakeKey(i * 2 + 1));
    }
  });

  // Scan repeatedly; every even key must always be observed.
  for (int round = 0; round < 5; round++) {
    TestList::Iterator iter(&list);
    iter.SeekToFirst();
    uint64_t next_even = 0;
    while (iter.Valid()) {
      uint64_t k = DecodeFixed64(iter.key());
      if ((k & 1) == 0) {
        ASSERT_EQ(next_even, k) << "scan missed a stable element";
        next_even += 2;
      }
      iter.Next();
    }
    ASSERT_EQ((kN + 1) * 2, next_even);
  }
  stop = true;
  writer.join();
}

TEST_F(SkipListTest, InsertIfNoConflictDetectsSuccessorConflict) {
  TestList list(U64Comparator(), &arena_);
  list.Insert(MakeKey(100));
  // Conflict predicate that rejects when the successor is key 100.
  bool inserted = list.InsertIfNoConflict(
      MakeKey(50), [&](const char* prev, bool prev_is_head, const char* succ, bool succ_at_end) {
        return !succ_at_end && DecodeFixed64(succ) == 100;
      });
  EXPECT_FALSE(inserted);
  EXPECT_FALSE(list.Contains(MakeKey(50)));

  // Accepting predicate inserts.
  inserted = list.InsertIfNoConflict(
      MakeKey(50),
      [&](const char*, bool, const char*, bool) { return false; });
  EXPECT_TRUE(inserted);
  EXPECT_TRUE(list.Contains(MakeKey(50)));
}

TEST_F(SkipListTest, InsertIfNoConflictSeesPredecessor) {
  TestList list(U64Comparator(), &arena_);
  list.Insert(MakeKey(10));
  uint64_t observed_prev = 0;
  bool observed_head = true;
  list.InsertIfNoConflict(MakeKey(20), [&](const char* prev, bool prev_is_head, const char* succ,
                                           bool succ_at_end) {
    observed_head = prev_is_head;
    if (!prev_is_head) {
      observed_prev = DecodeFixed64(prev);
    }
    EXPECT_TRUE(succ_at_end);
    return false;
  });
  EXPECT_FALSE(observed_head);
  EXPECT_EQ(10u, observed_prev);
}

// Under concurrent conditional inserts of the same key position, at most
// one CAS can win per round — losers must report conflict, not insert.
TEST_F(SkipListTest, ConditionalInsertRaceOneWinner) {
  for (int round = 0; round < 200; round++) {
    ConcurrentArena arena;
    TestList list(U64Comparator(), &arena);
    std::atomic<int> winners{0};
    std::atomic<int> start{0};
    constexpr int kThreads = 4;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; t++) {
      threads.emplace_back([&, t] {
        char* key = arena.AllocateAligned(8);
        EncodeFixed64(key, 1000 + t);  // distinct keys, same splice point
        start.fetch_add(1);
        while (start.load() < kThreads) {
        }
        // Conflict rule: reject if any neighbor exists (only the first
        // inserter of the empty region can win).
        bool ok = list.InsertIfNoConflict(
            key, [](const char* prev, bool prev_is_head, const char* succ, bool succ_at_end) {
              return !prev_is_head || !succ_at_end;
            });
        if (ok) {
          winners.fetch_add(1);
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    ASSERT_LE(winners.load(), 1) << "two conditional inserts won the same race";
    ASSERT_EQ(winners.load() == 1 ? 1u : 0u, list.ApproxCount());
  }
}

// Concurrent storm over every mutating path, then a full structure check:
// plain inserts of distinct keys, Algorithm-3 conditional inserts on a few
// hot keys with forced conflicts, and weakly consistent scans throughout.
// Hot-key entries are (group << 32 | version); a conditional insert
// conflicts when its successor belongs to the same group, i.e. when a newer
// version of that hot key is already present.
TEST_F(SkipListTest, ConcurrentStormKeepsStructure) {
  TestList list(U64Comparator(), &arena_);
  constexpr int kInserters = 4;
  constexpr int kRmwThreads = 4;
  constexpr int kScanners = 2;
  constexpr uint64_t kPerInserter = 5000;
  constexpr int kRmwRounds = 1000;
  constexpr uint64_t kHotGroups = 2;
  constexpr uint64_t kStable = 1000;  // present before and after the storm
  // Plain keys live in group 0, hot keys in groups 1..kHotGroups.
  for (uint64_t i = 0; i < kStable; i++) {
    list.Insert(MakeKey(i * 2));
  }
  auto same_group_successor = [](const char* key) {
    return [key](const char*, bool, const char* succ, bool succ_at_end) {
      return !succ_at_end && GroupOf(succ) == GroupOf(key);
    };
  };

  std::atomic<uint64_t> version{1};
  std::atomic<int> forced_conflicts_lost{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kInserters; t++) {
    threads.emplace_back([&, t] {
      for (uint64_t i = 0; i < kPerInserter; i++) {
        // Odd keys interleave with the stable even ones.
        list.Insert(MakeKey((kStable + i * kInserters + t) * 2 + 1));
      }
    });
  }
  for (int t = 0; t < kRmwThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRmwRounds; i++) {
        const uint64_t group = 1 + (i + t) % kHotGroups;
        const uint64_t older = version.fetch_add(1);
        // Algorithm 3: on a conflict or a lost CAS, retry with a fresh version.
        while (true) {
          const char* newer_key = MakeKey(group << 32 | version.fetch_add(1));
          if (list.InsertIfNoConflict(newer_key, same_group_successor(newer_key))) {
            break;
          }
        }
        // Forced conflict: a newer version of the group is now present, so
        // the successor of `older` is always in the group.
        const char* older_key = MakeKey(group << 32 | older);
        if (list.InsertIfNoConflict(older_key, same_group_successor(older_key))) {
          forced_conflicts_lost.fetch_add(1);
        }
      }
    });
  }
  std::atomic<int> scans{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < kScanners; t++) {
    scanners.emplace_back([&] {
      do {
        TestList::Iterator iter(&list);
        iter.SeekToFirst();
        uint64_t next_stable = 0;
        uint64_t last = 0;
        bool first = true;
        for (; iter.Valid(); iter.Next()) {
          const uint64_t k = DecodeFixed64(iter.key());
          ASSERT_TRUE(first || last < k) << "scan out of order at " << k;
          first = false;
          last = k;
          if (k < kStable * 2 && (k & 1) == 0) {
            ASSERT_EQ(next_stable, k) << "scan missed a stable element";
            next_stable += 2;
          }
        }
        ASSERT_EQ(kStable * 2, next_stable);
        scans.fetch_add(1);
      } while (!done.load());
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  done = true;
  for (auto& th : scanners) {
    th.join();
  }

  EXPECT_EQ(0, forced_conflicts_lost.load()) << "a stale conditional insert went in";
  EXPECT_GE(scans.load(), kScanners);
  EXPECT_EQ(kStable + kInserters * kPerInserter + kRmwThreads * kRmwRounds, list.ApproxCount());
  EXPECT_EQ("", list.CheckStructure());
  for (uint64_t i = 0; i < kInserters * kPerInserter; i++) {
    ASSERT_TRUE(list.Contains(MakeKey((kStable + i) * 2 + 1))) << i;
  }
}

// The checker itself must fail on a list that breaks an invariant: a
// comparator flipped after inserting makes every level unsorted.
TEST_F(SkipListTest, CheckStructureDetectsDisorder) {
  bool flipped = false;
  struct FlippableComparator {
    const bool* flipped;
    int operator()(const char* a, const char* b) const {
      const int c = U64Comparator()(a, b);
      return *flipped ? -c : c;
    }
  };
  ConcurrentSkipList<const char*, FlippableComparator> list(FlippableComparator{&flipped}, &arena_);
  for (uint64_t i = 0; i < 100; i++) {
    list.Insert(MakeKey(i));
  }
  EXPECT_EQ("", list.CheckStructure());
  flipped = true;
  EXPECT_NE("", list.CheckStructure());
}

// Insert is O(log n): the upper levels are linked from the level-0
// descent's splice, not by walking each level from the head. A walk from
// the head costs hundreds of comparisons per insert at this size.
TEST_F(SkipListTest, InsertComparisonsAreLogarithmic) {
  constexpr uint64_t kKeys = 20000;
  constexpr uint64_t kMaxComparisonsPerInsert = 64;
  std::vector<uint64_t> random_order(kKeys);
  for (uint64_t i = 0; i < kKeys; i++) {
    random_order[i] = i;
  }
  Random rnd(301);
  for (uint64_t i = kKeys - 1; i > 0; i--) {
    std::swap(random_order[i], random_order[rnd.Uniform(static_cast<int>(i + 1))]);
  }
  struct Case {
    const char* name;
    bool conditional;
    bool random;
  };
  for (const Case& c : {Case{"Insert ascending", false, false}, Case{"Insert random", false, true},
                        Case{"InsertIfNoConflict ascending", true, false}}) {
    uint64_t calls = 0;
    ConcurrentSkipList<const char*, CountingComparator> list(CountingComparator{&calls}, &arena_);
    for (uint64_t i = 0; i < kKeys; i++) {
      const char* key = MakeKey(c.random ? random_order[i] : i);
      if (c.conditional) {
        ASSERT_TRUE(list.InsertIfNoConflict(key, [](const char*, bool, const char*, bool) {
          return false;
        }));
      } else {
        list.Insert(key);
      }
    }
    const double per_insert = static_cast<double>(calls) / kKeys;
    EXPECT_LE(per_insert, kMaxComparisonsPerInsert) << c.name;
    std::printf("%s: %.1f comparisons per insert\n", c.name, per_insert);
    EXPECT_EQ("", list.CheckStructure()) << c.name;
  }
}

}  // namespace
}  // namespace clsm
