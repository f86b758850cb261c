// Ablation studies of cLSM's design choices (beyond the paper's figures):
//   A1. asynchronous vs synchronous logging vs no WAL (write throughput) —
//       quantifies §4's "writes occur at memory speed" claim.
//   A2. Bloom filters on/off (read throughput on a disk-resident set).
//   A3. block cache size sweep (read throughput).
//   A4. dedicated flush thread on/off under compaction pressure (§5.3).
//   A5. serializable vs linearizable snapshot acquisition under write
//       churn (getSnap cost of the stronger guarantee, §3.2.1).
#include <chrono>

#include "bench/bench_common.h"
#include "src/core/clsm_db.h"

using namespace clsm;

namespace {

DriverResult RunWithOptions(const Options& options, const WorkloadSpec& spec, int threads,
                            const BenchConfig& config, const std::string& tag) {
  std::string dir = FreshDbDir("ablation-" + tag);
  DB* raw = nullptr;
  Status s = OpenDb(DbVariant::kClsm, options, dir, &raw);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return DriverResult();
  }
  std::unique_ptr<DB> db(raw);
  LoadKeySpace(db.get(), config.preload_keys, spec.key_size, spec.value_size);
  db->WaitForMaintenance();
  DriverResult r = RunWorkload(db.get(), spec, threads, config.duration_ms);
  db->WaitForMaintenance();
  return r;
}

}  // namespace

int main() {
  BenchConfig config = LoadBenchConfig();
  PrintFigureHeader("Ablations", "cLSM design-choice studies", config);
  const int kThreads = 4;

  {
    printf("\n--- A1: logging mode (100%% writes, %d threads) ---\n", kThreads);
    WorkloadSpec spec;
    spec.write_fraction = 1.0;
    spec.num_keys = config.num_keys;
    struct Mode {
      const char* name;
      bool sync;
      bool disable;
    };
    for (Mode m : {Mode{"async-wal (paper default)", false, false},
                   Mode{"sync-wal (every put fsyncs)", true, false},
                   Mode{"no-wal", false, true}}) {
      Options options = FigureOptions(config);
      options.sync_logging = m.sync;
      options.disable_wal = m.disable;
      DriverResult r = RunWithOptions(options, spec, kThreads, config, "log");
      printf("%-30s %12.0f writes/sec  p90=%.1fus\n", m.name, r.ops_per_sec,
             r.latency_micros.Percentile(90));
    }
  }

  {
    printf("\n--- A2: Bloom filters (uniform reads, 50%% absent keys) ---\n");
    WorkloadSpec spec;
    // Half the probed key space was never written: filters shine on misses
    // (and on multi-level probes), not on hits.
    spec.num_keys = config.preload_keys * 2;
    spec.distribution = KeyDist::kUniform;  // cache-hostile: filters matter
    for (int bits : {0, 10}) {
      Options options = FigureOptions(config);
      options.bloom_bits_per_key = bits;
      options.block_cache_size = 1 << 20;  // small cache: force block reads
      DriverResult r = RunWithOptions(options, spec, kThreads, config, "bloom");
      printf("bloom_bits_per_key=%-2d %16.0f reads/sec  p90=%.1fus\n", bits, r.ops_per_sec,
             r.latency_micros.Percentile(90));
    }
  }

  {
    printf("\n--- A3: block cache size (hot-block reads) ---\n");
    WorkloadSpec spec;
    spec.num_keys = config.preload_keys;
    spec.distribution = KeyDist::kHotBlock;
    for (size_t cache : {size_t{0}, size_t{1} << 20, size_t{8} << 20, size_t{64} << 20}) {
      Options options = FigureOptions(config);
      options.block_cache_size = cache;
      DriverResult r = RunWithOptions(options, spec, kThreads, config, "cache");
      printf("block_cache=%-10zu %13.0f reads/sec  p90=%.1fus\n", cache, r.ops_per_sec,
             r.latency_micros.Percentile(90));
    }
  }

  {
    // Flushes always run on their own thread, apart from the compaction
    // pool; this cell records write latency under that configuration.
    printf("\n--- A4: reserved flush thread under compaction pressure ---\n");
    WorkloadSpec spec;
    spec.write_fraction = 1.0;
    spec.num_keys = config.preload_keys;
    spec.value_size = 400;
    Options options = FigureOptions(config);
    options.write_buffer_size = 256 << 10;  // constant flush+compaction load
    DriverResult r = RunWithOptions(options, spec, kThreads, config, "flushthread");
    printf("reserved flush thread %10.0f writes/sec  p90=%.1fus\n", r.ops_per_sec,
           r.latency_micros.Percentile(90));
  }

  {
    printf("\n--- A5: snapshot acquisition mode under write churn ---\n");
    for (bool linearizable : {false, true}) {
      Options options = FigureOptions(config);
      options.linearizable_snapshots = linearizable;
      std::string dir = FreshDbDir("ablation-snap");
      DB* raw = nullptr;
      if (!OpenDb(DbVariant::kClsm, options, dir, &raw).ok()) {
        continue;
      }
      std::unique_ptr<DB> db(raw);
      LoadKeySpace(db.get(), 10'000, 8, 64);

      std::atomic<bool> stop{false};
      std::vector<std::thread> writers;
      for (int w = 0; w < 3; w++) {
        writers.emplace_back([&, w] {
          WriteOptions wo;
          ValueGenerator values(64, w);
          UniformGenerator keys(10'000, w * 77 + 1);
          std::string key;
          while (!stop.load()) {
            EncodeWorkloadKey(keys.Next(), 8, &key);
            db->Put(wo, key, values.Next());
          }
        });
      }
      Histogram snap_latency;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::milliseconds(config.duration_ms);
      uint64_t snaps = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        auto t0 = std::chrono::steady_clock::now();
        const Snapshot* snap = db->GetSnapshot();
        auto t1 = std::chrono::steady_clock::now();
        db->ReleaseSnapshot(snap);
        snap_latency.Add(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count() / 1000.0);
        snaps++;
      }
      stop = true;
      for (auto& w : writers) {
        w.join();
      }
      printf("linearizable=%-5s getSnap: %llu acquired, p50=%.2fus p99=%.2fus max=%.0fus\n",
             linearizable ? "true" : "false", static_cast<unsigned long long>(snaps),
             snap_latency.Percentile(50), snap_latency.Percentile(99), snap_latency.Max());
    }
  }

  return 0;
}
