#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/lsm/memtable.h"

namespace clsm {
namespace {

class MemTableTest : public ::testing::Test {
 protected:
  MemTableTest() : icmp_(BytewiseComparator()), mem_(new MemTable(icmp_)) {}
  ~MemTableTest() override { mem_->Unref(); }

  // Convenience wrapper: returns (found, status, value, seq).
  struct GetResult {
    bool found;
    Status status;
    std::string value;
    SequenceNumber seq;
  };
  GetResult Get(const Slice& key, SequenceNumber snapshot_seq) {
    GetResult r{false, Status::OK(), "", 0};
    LookupKey lkey(key, snapshot_seq);
    r.found = mem_->Get(lkey, &r.value, &r.status, &r.seq);
    return r;
  }

  InternalKeyComparator icmp_;
  MemTable* mem_;
};

TEST_F(MemTableTest, EmptyGet) {
  GetResult r = Get("missing", kMaxSequenceNumber);
  EXPECT_FALSE(r.found);
}

TEST_F(MemTableTest, AddThenGet) {
  mem_->Add(1, kTypeValue, "key1", "value1");
  GetResult r = Get("key1", kMaxSequenceNumber);
  ASSERT_TRUE(r.found);
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ("value1", r.value);
  EXPECT_EQ(1u, r.seq);
}

TEST_F(MemTableTest, MultiVersionReadsAtSnapshot) {
  mem_->Add(10, kTypeValue, "k", "v10");
  mem_->Add(20, kTypeValue, "k", "v20");
  mem_->Add(30, kTypeValue, "k", "v30");

  // A read at sequence s sees the newest version with ts <= s (§3.2).
  EXPECT_EQ("v10", Get("k", 10).value);
  EXPECT_EQ("v10", Get("k", 19).value);
  EXPECT_EQ("v20", Get("k", 20).value);
  EXPECT_EQ("v30", Get("k", 1000).value);
  EXPECT_FALSE(Get("k", 9).found);
}

TEST_F(MemTableTest, DeletionMarkerReturnsNotFound) {
  mem_->Add(1, kTypeValue, "k", "v");
  mem_->Add(2, kTypeDeletion, "k", "");
  GetResult r = Get("k", kMaxSequenceNumber);
  ASSERT_TRUE(r.found);  // found the marker
  EXPECT_TRUE(r.status.IsNotFound());
  // The older snapshot still sees the value.
  EXPECT_EQ("v", Get("k", 1).value);
}

TEST_F(MemTableTest, SimilarKeysDoNotAlias) {
  mem_->Add(1, kTypeValue, "abc", "1");
  mem_->Add(2, kTypeValue, "abcd", "2");
  mem_->Add(3, kTypeValue, "ab", "3");
  EXPECT_EQ("1", Get("abc", kMaxSequenceNumber).value);
  EXPECT_EQ("2", Get("abcd", kMaxSequenceNumber).value);
  EXPECT_EQ("3", Get("ab", kMaxSequenceNumber).value);
  EXPECT_FALSE(Get("abcde", kMaxSequenceNumber).found);
}

TEST_F(MemTableTest, IteratorYieldsInternalOrder) {
  mem_->Add(5, kTypeValue, "b", "b5");
  mem_->Add(6, kTypeValue, "a", "a6");
  mem_->Add(7, kTypeValue, "b", "b7");

  std::unique_ptr<Iterator> iter(mem_->NewIterator());
  iter->SeekToFirst();
  // Order: user key asc, then timestamp desc.
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("a", ExtractUserKey(iter->key()).ToString());
  EXPECT_EQ(6u, ExtractSequence(iter->key()));
  iter->Next();
  EXPECT_EQ("b", ExtractUserKey(iter->key()).ToString());
  EXPECT_EQ(7u, ExtractSequence(iter->key()));
  EXPECT_EQ("b7", iter->value().ToString());
  iter->Next();
  EXPECT_EQ(5u, ExtractSequence(iter->key()));
  iter->Next();
  EXPECT_FALSE(iter->Valid());
}

TEST_F(MemTableTest, AddIfNoConflictSucceedsWhenUnchanged) {
  mem_->Add(10, kTypeValue, "k", "v10");
  // Read saw ts=10; no newer version: insert at 20 succeeds.
  EXPECT_TRUE(mem_->AddIfNoConflict(20, kTypeValue, "k", "v20", 10));
  EXPECT_EQ("v20", Get("k", kMaxSequenceNumber).value);
}

TEST_F(MemTableTest, AddIfNoConflictDetectsIntermediateVersion) {
  mem_->Add(10, kTypeValue, "k", "v10");
  mem_->Add(15, kTypeValue, "k", "v15");  // landed after our read at ts=10
  EXPECT_FALSE(mem_->AddIfNoConflict(20, kTypeValue, "k", "v20", 10));
  EXPECT_EQ("v15", Get("k", kMaxSequenceNumber).value);
}

TEST_F(MemTableTest, AddIfNoConflictDetectsNewerThanOwnTs) {
  // Algorithm 3 line 6: a version even newer than our own timestamp exists
  // (another writer got ts=30 and already inserted).
  mem_->Add(10, kTypeValue, "k", "v10");
  mem_->Add(30, kTypeValue, "k", "v30");
  EXPECT_FALSE(mem_->AddIfNoConflict(20, kTypeValue, "k", "v20", 10));
  EXPECT_EQ("v30", Get("k", kMaxSequenceNumber).value);
}

TEST_F(MemTableTest, AddIfNoConflictOnAbsentKey) {
  // read_seq = 0 encodes "key was absent at read time".
  EXPECT_TRUE(mem_->AddIfNoConflict(5, kTypeValue, "fresh", "v", 0));
  // A second put-if-absent with stale read must now conflict.
  EXPECT_FALSE(mem_->AddIfNoConflict(6, kTypeValue, "fresh", "v2", 0));
  EXPECT_EQ("v", Get("fresh", kMaxSequenceNumber).value);
}

TEST_F(MemTableTest, AddIfNoConflictDifferentKeysIndependent) {
  mem_->Add(10, kTypeValue, "aaa", "v");
  mem_->Add(11, kTypeValue, "ccc", "v");
  // A conflict on neighbors of different user keys must not be reported.
  EXPECT_TRUE(mem_->AddIfNoConflict(20, kTypeValue, "bbb", "vb", 0));
}

TEST_F(MemTableTest, ConcurrentAddsAllVisible) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> seq{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; i++) {
        uint64_t s = seq.fetch_add(1) + 1;
        std::string key = "key-" + std::to_string(t) + "-" + std::to_string(i);
        mem_->Add(s, kTypeValue, key, "v");
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(static_cast<size_t>(kThreads * kPerThread), mem_->NumEntries());
  for (int t = 0; t < kThreads; t++) {
    for (int i = 0; i < kPerThread; i += 117) {
      std::string key = "key-" + std::to_string(t) + "-" + std::to_string(i);
      ASSERT_TRUE(Get(key, kMaxSequenceNumber).found) << key;
    }
  }
}

// Property sweep: counter increments via AddIfNoConflict from many threads
// must never lose an update (the essence of Algorithm 3).
TEST_F(MemTableTest, ConcurrentConditionalInsertLosesNoUpdate) {
  constexpr int kThreads = 4;
  constexpr int kIncrementsPerThread = 2500;
  std::atomic<uint64_t> ts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrementsPerThread; i++) {
        while (true) {
          GetResult r{false, Status::OK(), "", 0};
          LookupKey lkey("counter", kMaxSequenceNumber);
          r.found = mem_->Get(lkey, &r.value, &r.status, &r.seq);
          int current = r.found ? std::stoi(r.value) : 0;
          uint64_t my_ts = ts.fetch_add(1) + 1;
          if (mem_->AddIfNoConflict(my_ts, kTypeValue, "counter",
                                    std::to_string(current + 1), r.found ? r.seq : 0)) {
            break;
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  GetResult r = Get("counter", kMaxSequenceNumber);
  ASSERT_TRUE(r.found);
  EXPECT_EQ(kThreads * kIncrementsPerThread, std::stoi(r.value));
}

// Concurrent storm over every mutating path, then the skip list's structure
// check: plain Adds of distinct keys, Algorithm-3 increments of a few hot
// counters (each round also makes one deliberately stale attempt, which
// must conflict), and weakly consistent scans throughout.
TEST_F(MemTableTest, ConcurrentStormKeepsStructure) {
  constexpr int kAdders = 4;
  constexpr int kRmwThreads = 4;
  constexpr int kScanners = 2;
  constexpr int kPerAdder = 3000;
  constexpr int kRmwRounds = 500;
  constexpr int kHotKeys = 2;
  std::atomic<uint64_t> ts{0};
  auto hot_key = [](int h) { return "hot-" + std::to_string(h); };
  for (int h = 0; h < kHotKeys; h++) {
    mem_->Add(ts.fetch_add(1) + 1, kTypeValue, hot_key(h), "0");
  }

  std::atomic<int> stale_wins{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kAdders; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerAdder; i++) {
        mem_->Add(ts.fetch_add(1) + 1, kTypeValue,
                  "key-" + std::to_string(t) + "-" + std::to_string(i), "v");
      }
    });
  }
  for (int t = 0; t < kRmwThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kRmwRounds; i++) {
        const std::string key = hot_key((i + t) % kHotKeys);
        while (true) {
          GetResult r{false, Status::OK(), "", 0};
          LookupKey lkey(key, kMaxSequenceNumber);
          r.found = mem_->Get(lkey, &r.value, &r.status, &r.seq);
          ASSERT_TRUE(r.found);
          if (mem_->AddIfNoConflict(ts.fetch_add(1) + 1, kTypeValue, key,
                                    std::to_string(std::stoi(r.value) + 1), r.seq)) {
            break;
          }
        }
        // Forced conflict: read_seq 0 claims the key was absent, but its
        // first version has been present since before the storm.
        if (mem_->AddIfNoConflict(ts.fetch_add(1) + 1, kTypeValue, key, "stale", 0)) {
          stale_wins.fetch_add(1);
        }
      }
    });
  }
  std::vector<std::thread> scanners;
  for (int t = 0; t < kScanners; t++) {
    scanners.emplace_back([&] {
      do {
        std::unique_ptr<Iterator> iter(mem_->NewIterator());
        std::string last;
        int hot_seen = 0;
        for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
          const std::string k = iter->key().ToString();
          ASSERT_TRUE(last.empty() || icmp_.Compare(last, k) < 0) << "scan out of order";
          if (ExtractUserKey(iter->key()).starts_with("hot-") &&
              (last.empty() || ExtractUserKey(Slice(last)) != ExtractUserKey(iter->key()))) {
            hot_seen++;
          }
          last = k;
        }
        ASSERT_EQ(kHotKeys, hot_seen) << "scan missed a stable hot key";
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

  EXPECT_EQ(0, stale_wins.load()) << "a stale conditional insert went in";
  EXPECT_EQ("", mem_->CheckStructure());
  int total = 0;
  for (int h = 0; h < kHotKeys; h++) {
    GetResult r = Get(hot_key(h), kMaxSequenceNumber);
    ASSERT_TRUE(r.found);
    total += std::stoi(r.value);
  }
  EXPECT_EQ(kRmwThreads * kRmwRounds, total) << "an increment was lost";
  EXPECT_EQ(static_cast<size_t>(kHotKeys + kAdders * kPerAdder + kRmwThreads * kRmwRounds),
            mem_->NumEntries());
}

}  // namespace
}  // namespace clsm
