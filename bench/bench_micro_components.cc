// Micro-benchmarks (google-benchmark) of the concurrency substrates the
// cLSM algorithm is built from: the lock-free skip list, the shared-
// exclusive lock, the Active timestamp set, the MPSC logging queue and the
// concurrent arena. These quantify the "multiprocessor-friendly data
// structures" claim (§1) at the component level. BM_Crc32c times the
// checksum every WAL record and table block pays; BM_TableBuild the table
// output every flush and compaction writes; BM_TableGetAbsent the Bloom
// filter's worth on a table probe that misses; BM_BlockCache the block
// cache's hit and miss paths.
#include <benchmark/benchmark.h>

#include <atomic>
#include <barrier>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "src/arena/arena.h"
#include "src/core/clsm_db.h"
#include "src/obs/metrics.h"
#include "src/obs/perf_context.h"
#include "src/queue/mpsc_queue.h"
#include "src/skiplist/concurrent_skiplist.h"
#include "src/sync/active_set.h"
#include "src/sync/shared_exclusive_lock.h"
#include "src/sync/time_counter.h"
#include "src/table/block.h"
#include "src/table/block_builder.h"
#include "src/table/table.h"
#include "src/table/table_builder.h"
#include "src/util/coding.h"
#include "src/util/crc32c.h"
#include "src/util/env.h"
#include "src/util/random.h"

namespace clsm {
namespace {

struct U64Comparator {
  int operator()(const char* a, const char* b) const {
    uint64_t va = DecodeFixed64(a);
    uint64_t vb = DecodeFixed64(b);
    return va < vb ? -1 : (va > vb ? 1 : 0);
  }
};

// Inserts go into a fresh list every kListEntries inserts, as a memtable is
// replaced once it fills, so the per-insert cost is measured at memtable
// scale rather than at whatever size one ever-growing list reaches by the
// end of the run. The threads swap lists at a barrier.
constexpr int kListEntries = 16384;

struct InsertTarget {
  ConcurrentArena arena;
  ConcurrentSkipList<const char*, U64Comparator> list{U64Comparator(), &arena};
};
InsertTarget* insert_target = nullptr;

void RefreshInsertTarget() noexcept {
  delete insert_target;
  insert_target = new InsertTarget;
}

void BM_SkipListInsert(benchmark::State& state) {
  using RefreshBarrier = std::barrier<void (*)() noexcept>;
  static RefreshBarrier* refresh = nullptr;
  static std::atomic<uint64_t> counter{0};
  if (state.thread_index() == 0) {
    RefreshInsertTarget();
    refresh = new RefreshBarrier(state.threads(), RefreshInsertTarget);
  }
  // Every thread runs the same iteration count, so all reach each barrier.
  const int per_list = kListEntries / state.threads();
  int inserted = 0;
  for (auto _ : state) {
    InsertTarget* target = insert_target;
    uint64_t v = counter.fetch_add(1, std::memory_order_relaxed);
    char* key = target->arena.AllocateAligned(8);
    EncodeFixed64(key, v * 2654435761u);  // scatter
    target->list.Insert(key);
    if (++inserted == per_list) {
      inserted = 0;
      refresh->arrive_and_wait();
    }
  }
  if (state.thread_index() == 0) {
    delete refresh;
    delete insert_target;
    insert_target = nullptr;
  }
}
BENCHMARK(BM_SkipListInsert)->ThreadRange(1, 8)->UseRealTime();

void BM_SkipListContains(benchmark::State& state) {
  static ConcurrentArena* arena = nullptr;
  static ConcurrentSkipList<const char*, U64Comparator>* list = nullptr;
  if (state.thread_index() == 0) {
    arena = new ConcurrentArena;
    list = new ConcurrentSkipList<const char*, U64Comparator>(U64Comparator(), arena);
    for (uint64_t i = 0; i < 100000; i++) {
      char* key = arena->AllocateAligned(8);
      EncodeFixed64(key, i);
      list->Insert(key);
    }
  }
  Random64 rnd(state.thread_index() + 1);
  char probe[8];
  for (auto _ : state) {
    EncodeFixed64(probe, rnd.Uniform(100000));
    benchmark::DoNotOptimize(list->Contains(probe));
  }
  if (state.thread_index() == 0) {
    delete list;
    delete arena;
  }
}
BENCHMARK(BM_SkipListContains)->ThreadRange(1, 8)->UseRealTime();

void BM_SharedLockAcquire(benchmark::State& state) {
  static SharedExclusiveLock lock;
  for (auto _ : state) {
    lock.LockShared();
    lock.UnlockShared();
  }
}
BENCHMARK(BM_SharedLockAcquire)->ThreadRange(1, 8)->UseRealTime();

void BM_ActiveSetAddRemove(benchmark::State& state) {
  static ActiveTimestampSet set;
  static TimeCounter counter;
  for (auto _ : state) {
    uint64_t ts = counter.IncAndGet();
    set.Add(ts);
    set.Remove(ts);
  }
}
BENCHMARK(BM_ActiveSetAddRemove)->ThreadRange(1, 8)->UseRealTime();

void BM_ActiveSetFindMin(benchmark::State& state) {
  static ActiveTimestampSet set;
  for (auto _ : state) {
    benchmark::DoNotOptimize(set.FindMin());
  }
}
BENCHMARK(BM_ActiveSetFindMin)->ThreadRange(1, 4)->UseRealTime();

void BM_MpscEnqueue(benchmark::State& state) {
  static MpscQueue<uint64_t>* queue = nullptr;
  static std::atomic<bool>* stop = nullptr;
  static std::thread* consumer = nullptr;
  if (state.thread_index() == 0) {
    queue = new MpscQueue<uint64_t>;
    stop = new std::atomic<bool>(false);
    consumer = new std::thread([] {
      while (!stop->load(std::memory_order_acquire)) {
        if (!queue->Dequeue().has_value()) {
          std::this_thread::yield();
        }
      }
      while (queue->Dequeue().has_value()) {
      }
    });
  }
  uint64_t i = 0;
  for (auto _ : state) {
    queue->Enqueue(i++);
  }
  if (state.thread_index() == 0) {
    stop->store(true, std::memory_order_release);
    consumer->join();
    delete consumer;
    delete queue;
    delete stop;
  }
}
BENCHMARK(BM_MpscEnqueue)->ThreadRange(1, 8)->UseRealTime();

// --- Observability overhead (PR-2 acceptance: <5% on Put/Get) ---

// One relaxed record into the sharded registry (the whole marginal cost a
// metrics-on op pays beyond its clock reads).
void BM_StatsRegistryRecord(benchmark::State& state) {
  static StatsRegistry* registry = nullptr;
  if (state.thread_index() == 0) {
    registry = new StatsRegistry;
  }
  uint64_t fake_nanos = 1000 + state.thread_index();
  for (auto _ : state) {
    registry->Record(OpMetric::kPut, fake_nanos);
    fake_nanos += 37;
  }
  if (state.thread_index() == 0) {
    delete registry;
    registry = nullptr;
  }
}
BENCHMARK(BM_StatsRegistryRecord)->ThreadRange(1, 8)->UseRealTime();

// Full DB Put/Get with Options::latency_metrics on vs off. Compare the
// /metrics:1 and /metrics:0 series of the same benchmark: the acceptance
// bound is <5% between them.
class InstrumentationFixture {
 public:
  explicit InstrumentationFixture(bool metrics_on) {
    std::string dir = "/tmp/clsm-bench-obs-" + std::to_string(metrics_on ? 1 : 0);
    std::string cmd = "rm -rf " + dir;
    int rc = system(cmd.c_str());
    (void)rc;
    Options options;
    options.latency_metrics = metrics_on;
    options.write_buffer_size = 64 << 20;  // avoid rolls: isolate the op path
    DB* raw = nullptr;
    Status s = ClsmDb::Open(options, dir, &raw);
    if (s.ok()) {
      db_.reset(raw);
      // A small resident key space so Gets hit the memtable.
      WriteOptions wo;
      char key[16];
      std::string value(256, 'v');
      for (uint64_t i = 0; i < 10000; i++) {
        EncodeFixed64(key, i);
        db_->Put(wo, Slice(key, 8), value);
      }
    }
  }
  DB* db() { return db_.get(); }

 private:
  std::unique_ptr<DB> db_;
};

template <bool kMetricsOn>
void BM_DbPutInstrumentation(benchmark::State& state) {
  static InstrumentationFixture* fixture = nullptr;
  if (state.thread_index() == 0) {
    fixture = new InstrumentationFixture(kMetricsOn);
  }
  WriteOptions wo;
  char key[16];
  std::string value(256, 'v');
  uint64_t i = state.thread_index() * 1000003;
  for (auto _ : state) {
    EncodeFixed64(key, (i++ * 2654435761u) % 10000);
    fixture->db()->Put(wo, Slice(key, 8), value);
  }
  if (state.thread_index() == 0) {
    delete fixture;
    fixture = nullptr;
  }
}
BENCHMARK_TEMPLATE(BM_DbPutInstrumentation, false)
    ->Name("BM_DbPut/metrics:0")->ThreadRange(1, 4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_DbPutInstrumentation, true)
    ->Name("BM_DbPut/metrics:1")->ThreadRange(1, 4)->UseRealTime();

template <bool kMetricsOn>
void BM_DbGetInstrumentation(benchmark::State& state) {
  static InstrumentationFixture* fixture = nullptr;
  if (state.thread_index() == 0) {
    fixture = new InstrumentationFixture(kMetricsOn);
  }
  ReadOptions ro;
  char key[16];
  std::string value;
  Random64 rnd(state.thread_index() + 1);
  for (auto _ : state) {
    EncodeFixed64(key, rnd.Uniform(10000));
    benchmark::DoNotOptimize(fixture->db()->Get(ro, Slice(key, 8), &value));
  }
  if (state.thread_index() == 0) {
    delete fixture;
    fixture = nullptr;
  }
}
BENCHMARK_TEMPLATE(BM_DbGetInstrumentation, false)
    ->Name("BM_DbGet/metrics:0")->ThreadRange(1, 4)->UseRealTime();
BENCHMARK_TEMPLATE(BM_DbGetInstrumentation, true)
    ->Name("BM_DbGet/metrics:1")->ThreadRange(1, 4)->UseRealTime();

// CRC32C at one WAL record (280 B) and one table block (4 KiB): Extend as
// dispatched (SSE4.2 where the CPU has it) against the portable table loop.
template <uint32_t (*kExtend)(uint32_t, const char*, size_t)>
void BM_Crc32c(benchmark::State& state) {
  const std::string data(static_cast<size_t>(state.range(0)), 'x');
  uint32_t crc = 0;
  for (auto _ : state) {
    crc = kExtend(crc, data.data(), data.size());
    benchmark::DoNotOptimize(crc);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK_TEMPLATE(BM_Crc32c, crc32c::Extend)->Name("BM_Crc32c/dispatched")->Arg(280)->Arg(4096);
BENCHMARK_TEMPLATE(BM_Crc32c, crc32c::internal::ExtendPortable)
    ->Name("BM_Crc32c/portable")->Arg(280)->Arg(4096);

// The 8-byte big-endian encoding of v (sorted like v): the table rows' keys.
void EncodeBigEndianKey(uint64_t v, char* key) {
  for (int b = 0; b < 8; b++) {
    key[b] = static_cast<char>(v >> (56 - 8 * b));
  }
}

// One 2 MiB table of 8 B keys and 256 B values, built into a file from
// Env::Default() and fdatasync'ed, as a flush or compaction writes it
// (including kernel writeback started every 1 MiB): the table-build layer
// of the merge throughput that bounds sustained ingest.
void BM_TableBuild(benchmark::State& state) {
  constexpr uint64_t kTableBytes = 2 << 20;
  constexpr uint64_t kWritebackBytes = 1 << 20;
  Env* env = Env::Default();
  const std::string dir = "/tmp/clsm-bench-table-build";
  env->CreateDir(dir);
  const std::string fname = dir + "/000001.sst";
  Options options;
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(options.bloom_bits_per_key));
  const std::string value(256, 'v');
  uint64_t bytes = 0;
  for (auto _ : state) {
    std::unique_ptr<WritableFile> file;
    if (!env->NewWritableFile(fname, &file).ok()) {
      state.SkipWithError("cannot create the table file");
      break;
    }
    TableBuilder builder(options, BytewiseComparator(), policy.get(), file.get());
    uint64_t next_writeback = kWritebackBytes;
    char key[8];
    for (uint64_t i = 0; builder.FileSize() < kTableBytes; i++) {
      EncodeBigEndianKey(i, key);
      builder.Add(Slice(key, sizeof(key)), value);
      if (builder.FileSize() >= next_writeback) {
        file->StartWriteback();
        next_writeback = builder.FileSize() + kWritebackBytes;
      }
    }
    Status s = builder.Finish();
    if (s.ok()) {
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    bytes += builder.FileSize();
  }
  env->RemoveFile(fname);
  env->RemoveDir(dir);
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TableBuild)->Unit(benchmark::kMillisecond)->UseRealTime();

// Point lookups inside one 2 MiB table of 8 B big-endian keys (the even
// integers) and 256 B values, opened with the default Bloom policy and an
// 8 MiB block cache. Absent keys (odd integers) measure the per-table cost
// a disk Get pays for each table it probes without finding the key: a
// probe the filter lets through seeks the index and reads (or finds
// cached) a data block for nothing; the false_positives counter is their
// share of the probes. Present keys measure the probe that finds its key.
void TableGet(benchmark::State& state, bool present) {
  constexpr uint64_t kTableBytes = 2 << 20;
  Env* env = Env::Default();
  const std::string dir = "/tmp/clsm-bench-table-get";
  env->CreateDir(dir);
  const std::string fname = dir + "/000001.sst";
  Options options;
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(options.bloom_bits_per_key));
  uint64_t keys = 0;
  Status s;
  {
    std::unique_ptr<WritableFile> file;
    s = env->NewWritableFile(fname, &file);
    if (s.ok()) {
      TableBuilder builder(options, BytewiseComparator(), policy.get(), file.get());
      const std::string value(256, 'v');
      char key[8];
      for (; builder.FileSize() < kTableBytes; keys++) {
        EncodeBigEndianKey(2 * keys, key);
        builder.Add(Slice(key, sizeof(key)), value);
      }
      s = builder.Finish();
      if (s.ok()) {
        s = file->Close();
      }
    }
  }
  uint64_t file_size = 0;
  std::unique_ptr<RandomAccessFile> file;
  BlockCache cache(8 << 20);
  Table* raw = nullptr;
  if (s.ok()) {
    s = env->GetFileSize(fname, &file_size);
  }
  if (s.ok()) {
    s = env->NewRandomAccessFile(fname, &file);
  }
  if (s.ok()) {
    s = Table::Open(options, BytewiseComparator(), policy.get(), &cache, std::move(file),
                    file_size, &raw);
  }
  std::unique_ptr<Table> table(raw);
  if (!s.ok()) {
    state.SkipWithError(s.ToString().c_str());
  } else {
    auto match = [](void* arg, const Slice& k, const Slice&) {
      return k == *reinterpret_cast<const Slice*>(arg);
    };
    Random64 rnd(301);
    char key[8];
    const Slice probe(key, sizeof(key));
    PerfContextStartOp(PerfLevel::kEnableCounts);  // counts accumulate over the loop
    for (auto _ : state) {
      EncodeBigEndianKey(2 * rnd.Uniform(keys - 1) + (present ? 0 : 1), key);
      Status get = table->InternalGet(ReadOptions(), probe, const_cast<Slice*>(&probe), match);
      benchmark::DoNotOptimize(get);
    }
    state.counters["false_positives"] =
        benchmark::Counter(static_cast<double>(GetPerfContext()->bloom_false_positives),
                           benchmark::Counter::kAvgIterations);
    PerfContextStartOp(PerfLevel::kDisabled);
  }
  table.reset();
  file.reset();
  env->RemoveFile(fname);
  env->RemoveDir(dir);
}
void BM_TableGetAbsent(benchmark::State& state) { TableGet(state, /*present=*/false); }
BENCHMARK(BM_TableGetAbsent);
void BM_TableGetPresent(benchmark::State& state) { TableGet(state, /*present=*/true); }
BENCHMARK(BM_TableGetPresent);

// The block cache as Table::BlockReader drives it: 4 KiB blocks (16 B keys,
// 256 B values) in an 8 MiB cache, the store's default. hit: each op looks
// up one of 512 cached blocks and releases it. miss: each op looks up a
// block no reader has asked for, builds it from a copy of the encoded block
// (standing in for the read), inserts it and releases it; once the cache is
// full every insert evicts the oldest block.
template <bool kHit>
void BM_BlockCache(benchmark::State& state) {
  constexpr uint64_t kCachedBlocks = 512;
  static BlockCache* cache = nullptr;
  static std::string* encoded = nullptr;
  auto new_block = [] {
    BlockContents contents{std::unique_ptr<char[]>(new char[encoded->size()]), encoded->size()};
    std::memcpy(contents.data.get(), encoded->data(), encoded->size());
    return new Block(std::move(contents));
  };
  if (state.thread_index() == 0) {
    Options options;
    BlockBuilder builder(&options, BytewiseComparator());
    char key[16];
    for (uint64_t i = 0; builder.CurrentSizeEstimate() < options.block_size; i++) {
      EncodeBigEndianKey(i, key);
      EncodeBigEndianKey(i, key + 8);
      builder.Add(Slice(key, sizeof(key)), std::string(256, 'v'));
    }
    encoded = new std::string(builder.Finish().ToString());
    cache = new BlockCache(8 << 20);
    for (uint64_t i = 0; i < kCachedBlocks; i++) {
      cache->Release(cache->Insert(1, i * encoded->size(), new_block()));
    }
  }
  Random64 rnd(state.thread_index() + 1);
  const uint64_t table_id = 2 + state.thread_index();  // misses: one table per thread
  uint64_t next_offset = 0;
  for (auto _ : state) {
    BlockCache::Entry* h;
    if (kHit) {
      h = cache->Lookup(1, rnd.Uniform(kCachedBlocks) * encoded->size());
    } else {
      h = cache->Lookup(table_id, next_offset);
      if (h == nullptr) {
        h = cache->Insert(table_id, next_offset, new_block());
      }
      next_offset += encoded->size();
    }
    benchmark::DoNotOptimize(BlockCache::Value(h));
    cache->Release(h);
  }
  if (state.thread_index() == 0) {
    delete cache;
    delete encoded;
  }
}
BENCHMARK_TEMPLATE(BM_BlockCache, true)
    ->Name("BM_BlockCache/hit")
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_BlockCache, false)
    ->Name("BM_BlockCache/miss")
    ->Threads(1)
    ->Threads(4)
    ->UseRealTime();

void BM_ConcurrentArenaAllocate(benchmark::State& state) {
  static ConcurrentArena* arena = nullptr;
  if (state.thread_index() == 0) {
    arena = new ConcurrentArena;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(arena->AllocateAligned(48));
  }
  if (state.thread_index() == 0) {
    delete arena;
  }
}
BENCHMARK(BM_ConcurrentArenaAllocate)->ThreadRange(1, 8)->UseRealTime();

}  // namespace
}  // namespace clsm

BENCHMARK_MAIN();
