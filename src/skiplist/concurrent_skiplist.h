// Lock-free concurrent skip list — the in-memory component Cm (paper §3.3).
//
// Properties the cLSM algorithm relies on:
//  * insert/find are thread-safe, non-blocking and atomic (§3.1);
//  * iterators are weakly consistent: an element present for the whole
//    duration of a scan is returned by the scan (§3.2) — guaranteed here
//    because nodes are never unlinked and next pointers only ever change by
//    splicing in new nodes;
//  * the bottom linked list exposes a CAS insertion point, enabling the
//    optimistic-concurrency-control read-modify-write of Algorithm 3 via
//    InsertIfNoConflict().
//
// Keys are opaque byte pointers ordered by a three-way comparator, as in
// LevelDB; entries live in a ConcurrentArena and die with the list.
#ifndef CLSM_SKIPLIST_CONCURRENT_SKIPLIST_H_
#define CLSM_SKIPLIST_CONCURRENT_SKIPLIST_H_

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <string>

#include "src/arena/arena.h"
#include "src/obs/perf_context.h"
#include "src/util/random.h"

namespace clsm {

template <typename Key, class Comparator>
class ConcurrentSkipList {
 private:
  struct Node;

 public:
  // Comparator must be copyable and provide int operator()(Key a, Key b).
  ConcurrentSkipList(Comparator cmp, ConcurrentArena* arena);

  ConcurrentSkipList(const ConcurrentSkipList&) = delete;
  ConcurrentSkipList& operator=(const ConcurrentSkipList&) = delete;

  // Insert key. Thread-safe, lock-free. key must not compare equal to any
  // key already in the list (internal keys carry unique timestamps).
  void Insert(const Key& key);

  // Algorithm 3 lines 5-12: locate the bottom-level insertion point for key
  // and CAS the node in unless a conflict is detected. The predicate sees
  // both neighbors of the insertion point — the predecessor (line 6 detects
  // a newer version of the same user key, which sorts *before* the new node
  // under newest-first internal-key order) and the successor (line 8).
  // Returns false — without inserting — if the predicate reports a conflict
  // or if the CAS loses a race (line 12's failed CAS); the caller treats
  // both as a conflict and restarts with a fresh timestamp.
  // ConflictFn: bool(const Key& prev_key, bool prev_is_head,
  //                  const Key& succ_key, bool succ_at_end).
  template <typename ConflictFn>
  bool InsertIfNoConflict(const Key& key, ConflictFn conflict);

  bool Contains(const Key& key) const;

  // Approximate number of entries (maintained with relaxed increments).
  size_t ApproxCount() const { return count_.load(std::memory_order_relaxed); }

  // Structure checker for tests; call only while no insert is in flight.
  // Verifies that every level is strictly sorted, that levels at or above
  // the current max height are empty, that every upper level is a sub-list
  // of the level below, and that the bottom list holds ApproxCount()
  // entries. Returns "" when all hold, else a description of the first
  // violation. O(n * kMaxHeight); nothing on the op path calls it.
  std::string CheckStructure() const;

  // Weakly consistent iterator over the bottom list.
  class Iterator {
   public:
    explicit Iterator(const ConcurrentSkipList* list) : list_(list), node_(nullptr) {}

    bool Valid() const { return node_ != nullptr; }

    const Key& key() const {
      assert(Valid());
      return node_->key;
    }

    void Next() {
      assert(Valid());
      node_ = node_->Next(0);
    }

    // Retreats to the previous entry; O(log n) re-descent since nodes hold
    // no back pointers.
    void Prev() {
      assert(Valid());
      node_ = list_->FindLessThan(node_->key);
      if (node_ == list_->head_) {
        node_ = nullptr;
      }
    }

    void Seek(const Key& target) { node_ = list_->FindGreaterOrEqual(target, nullptr); }

    void SeekToFirst() { node_ = list_->head_->Next(0); }

    void SeekToLast() {
      node_ = list_->FindLast();
      if (node_ == list_->head_) {
        node_ = nullptr;
      }
    }

   private:
    const ConcurrentSkipList* list_;
    Node* node_;
  };

 private:
  static constexpr int kMaxHeight = 12;
  static constexpr int kBranching = 4;

  Node* NewNode(const Key& key, int height);
  int RandomHeight();

  bool Equal(const Key& a, const Key& b) const { return compare_(a, b) == 0; }
  bool KeyIsAfterNode(const Key& key, Node* n) const {
    return (n != nullptr) && (compare_(n->key, key) < 0);
  }

  // Returns first node >= key; fills prev[0..max_height-1] when non-null,
  // with max_height read once at the start of the descent. prev[level] is
  // the last node at that level whose key is < key (or head_).
  Node* FindGreaterOrEqual(const Key& key, Node** prev) const;
  Node* FindLessThan(const Key& key) const;
  Node* FindLast() const;

  int GetMaxHeight() const { return max_height_.load(std::memory_order_acquire); }

  // Links node x (of height `height`, already linked at level 0) into
  // levels [1, height) with CAS. Each level's walk starts at prev[level],
  // the predecessor the level-0 descent recorded: nodes are never unlinked,
  // so it stays in that level and stays below x's key, and the walk is
  // O(1) expected per level. A lost CAS re-walks from the same predecessor.
  void LinkUpperLevels(Node* x, int height, Node* const* prev);

  Comparator const compare_;
  ConcurrentArena* const arena_;
  Node* const head_;
  std::atomic<int> max_height_;
  std::atomic<size_t> count_;
};

template <typename Key, class Comparator>
struct ConcurrentSkipList<Key, Comparator>::Node {
  explicit Node(const Key& k) : key(k) {}

  Key const key;

  Node* Next(int n) {
    assert(n >= 0);
    return next_[n].load(std::memory_order_acquire);
  }
  void SetNext(int n, Node* x) {
    assert(n >= 0);
    next_[n].store(x, std::memory_order_release);
  }
  void NoBarrierSetNext(int n, Node* x) { next_[n].store(x, std::memory_order_relaxed); }
  bool CasNext(int n, Node* expected, Node* x) {
    return next_[n].compare_exchange_strong(expected, x, std::memory_order_acq_rel,
                                            std::memory_order_acquire);
  }

 private:
  // next_[0] is the lowest level link; the array really has the node's
  // height entries (allocated inline by NewNode).
  std::atomic<Node*> next_[1];
};

template <typename Key, class Comparator>
ConcurrentSkipList<Key, Comparator>::ConcurrentSkipList(Comparator cmp, ConcurrentArena* arena)
    : compare_(cmp),
      arena_(arena),
      head_(NewNode(Key() /* any key will do */, kMaxHeight)),
      max_height_(1),
      count_(0) {
  for (int i = 0; i < kMaxHeight; i++) {
    head_->SetNext(i, nullptr);
  }
}

template <typename Key, class Comparator>
typename ConcurrentSkipList<Key, Comparator>::Node*
ConcurrentSkipList<Key, Comparator>::NewNode(const Key& key, int height) {
  char* mem = arena_->AllocateAligned(sizeof(Node) + sizeof(std::atomic<Node*>) * (height - 1));
  return new (mem) Node(key);
}

template <typename Key, class Comparator>
int ConcurrentSkipList<Key, Comparator>::RandomHeight() {
  // Thread-local generator keeps height choice contention-free.
  thread_local Random rnd(0xdeadbeef ^ static_cast<uint32_t>(
                                           reinterpret_cast<uintptr_t>(&rnd) >> 4));
  int height = 1;
  while (height < kMaxHeight && rnd.OneIn(kBranching)) {
    height++;
  }
  assert(height > 0);
  assert(height <= kMaxHeight);
  return height;
}

template <typename Key, class Comparator>
typename ConcurrentSkipList<Key, Comparator>::Node*
ConcurrentSkipList<Key, Comparator>::FindGreaterOrEqual(const Key& key, Node** prev) const {
  Node* x = head_;
  int level = GetMaxHeight() - 1;
  // Per-op attribution: count nodes examined (one per loop iteration —
  // each iteration inspects exactly one successor). Accumulated locally
  // and published once so the search loop itself stays probe-free.
  uint64_t nodes_touched = 0;
  while (true) {
    Node* next = x->Next(level);
    nodes_touched++;
    if (KeyIsAfterNode(key, next)) {
      x = next;
    } else {
      if (prev != nullptr) {
        prev[level] = x;
      }
      if (level == 0) {
        CLSM_PERF_COUNT_ADD(skiplist_search_nodes, nodes_touched);
        return next;
      }
      level--;
    }
  }
}

template <typename Key, class Comparator>
typename ConcurrentSkipList<Key, Comparator>::Node*
ConcurrentSkipList<Key, Comparator>::FindLessThan(const Key& key) const {
  Node* x = head_;
  int level = GetMaxHeight() - 1;
  while (true) {
    Node* next = x->Next(level);
    if (next == nullptr || compare_(next->key, key) >= 0) {
      if (level == 0) {
        return x;
      }
      level--;
    } else {
      x = next;
    }
  }
}

template <typename Key, class Comparator>
typename ConcurrentSkipList<Key, Comparator>::Node*
ConcurrentSkipList<Key, Comparator>::FindLast() const {
  Node* x = head_;
  int level = GetMaxHeight() - 1;
  while (true) {
    Node* next = x->Next(level);
    if (next == nullptr) {
      if (level == 0) {
        return x;
      }
      level--;
    } else {
      x = next;
    }
  }
}

template <typename Key, class Comparator>
void ConcurrentSkipList<Key, Comparator>::LinkUpperLevels(Node* x, int height, Node* const* prev) {
  for (int level = 1; level < height; level++) {
    Node* pred = prev[level];
    while (true) {
      // Advance past nodes spliced in since the descent; concurrent inserts
      // only ever add nodes, so the splice lies at or after pred.
      Node* next = pred->Next(level);
      while (KeyIsAfterNode(x->key, next)) {
        pred = next;
        next = pred->Next(level);
      }
      x->NoBarrierSetNext(level, next);
      if (pred->CasNext(level, next, x)) {
        break;
      }
    }
  }
}

template <typename Key, class Comparator>
void ConcurrentSkipList<Key, Comparator>::Insert(const Key& key) {
  int height = RandomHeight();
  // Raise max height first (benign race: a concurrent raise just wins).
  int max_h = GetMaxHeight();
  while (height > max_h) {
    if (max_height_.compare_exchange_weak(max_h, height, std::memory_order_acq_rel)) {
      break;
    }
  }

  Node* x = NewNode(key, height);
  // Bottom level first: once level 0 is linked the key is logically present.
  // The max height was raised above, so the descent fills prev[0..height).
  Node* prev[kMaxHeight];
  while (true) {
    Node* succ = FindGreaterOrEqual(key, prev);
    assert(succ == nullptr || !Equal(key, succ->key));  // duplicates forbidden
    x->NoBarrierSetNext(0, succ);
    if (prev[0]->CasNext(0, succ, x)) {
      break;
    }
    // Lost a race at the splice point; retry from a fresh search.
  }
  LinkUpperLevels(x, height, prev);
  count_.fetch_add(1, std::memory_order_relaxed);
}

template <typename Key, class Comparator>
template <typename ConflictFn>
bool ConcurrentSkipList<Key, Comparator>::InsertIfNoConflict(const Key& key, ConflictFn conflict) {
  // The search runs before the max height is raised below, so it fills only
  // the levels that existed then; the levels above start from head_.
  Node* prev[kMaxHeight];
  for (int i = 0; i < kMaxHeight; i++) {
    prev[i] = head_;
  }
  Node* succ = FindGreaterOrEqual(key, prev);
  const bool prev_is_head = (prev[0] == head_);
  const Key prev_key = prev_is_head ? Key() : prev[0]->key;
  const bool succ_at_end = (succ == nullptr);
  const Key succ_key = succ_at_end ? Key() : succ->key;
  if (conflict(prev_key, prev_is_head, succ_key, succ_at_end)) {
    return false;
  }

  int height = RandomHeight();
  int max_h = GetMaxHeight();
  while (height > max_h) {
    if (max_height_.compare_exchange_weak(max_h, height, std::memory_order_acq_rel)) {
      break;
    }
  }

  Node* x = NewNode(key, height);
  x->NoBarrierSetNext(0, succ);
  // Algorithm 3 line 12: a failed CAS means some insert interleaved between
  // our read and our update — report a conflict rather than retrying here,
  // because the caller must re-read the value and acquire a new timestamp.
  if (!prev[0]->CasNext(0, succ, x)) {
    // The node was never published; its arena storage is simply abandoned.
    return false;
  }
  LinkUpperLevels(x, height, prev);
  count_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

template <typename Key, class Comparator>
std::string ConcurrentSkipList<Key, Comparator>::CheckStructure() const {
  const int max_height = GetMaxHeight();
  for (int level = 0; level < kMaxHeight; level++) {
    const std::string at = "level " + std::to_string(level) + ": ";
    Node* n = head_->Next(level);
    if (level >= max_height && n != nullptr) {
      return at + "non-empty at or above max height " + std::to_string(max_height);
    }
    // `below` walks level-1 in step; every node of this level must be met
    // there, in order, for the level to be a sub-list of the one below.
    Node* below = level > 0 ? head_->Next(level - 1) : nullptr;
    size_t length = 0;
    for (Node* prev = nullptr; n != nullptr; prev = n, n = n->Next(level)) {
      length++;
      if (prev != nullptr && compare_(prev->key, n->key) >= 0) {
        return at + "not strictly sorted at position " + std::to_string(length - 1);
      }
      if (level > 0) {
        while (below != nullptr && below != n && compare_(below->key, n->key) < 0) {
          below = below->Next(level - 1);
        }
        if (below != n) {
          return at + "node at position " + std::to_string(length - 1) +
                 " missing from the level below";
        }
        below = below->Next(level - 1);
      }
    }
    if (level == 0 && length != ApproxCount()) {
      return at + "length " + std::to_string(length) + " != ApproxCount() " +
             std::to_string(ApproxCount());
    }
  }
  return "";
}

template <typename Key, class Comparator>
bool ConcurrentSkipList<Key, Comparator>::Contains(const Key& key) const {
  Node* x = FindGreaterOrEqual(key, nullptr);
  return x != nullptr && Equal(key, x->key);
}

}  // namespace clsm

#endif  // CLSM_SKIPLIST_CONCURRENT_SKIPLIST_H_
