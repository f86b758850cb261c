// Figure 11 (paper §5.3): workload with heavy disk compaction (RocksDB's
// benchmark [10]). The paper bulk-loads 1 billion items sequentially, then
// runs 1 billion uniform updates; compaction runs virtually all the time
// and Cm regularly fills before C'm finishes merging, so client writes
// throttle on the merge. Scaled down here: the dataset is shrunk but the
// dataset : write-buffer ratio is kept huge so the same throttling paths
// execute.
//
// Expected shape (paper): both cLSM and RocksDB keep scaling to 16 worker
// threads despite the compaction load, converging to similar throughput at
// 16 (RocksDB's multi-threaded compaction being orthogonal to cLSM's
// in-memory parallelism).
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "bench/bench_common.h"

using namespace clsm;

namespace {

// One cell of the compaction_threads sweep. Opens cLSM directly (instead of
// going through RunCell) so the stall accounting properties can be
// read off the live DB before it closes.
struct CompactionSweepResult {
  int compaction_threads = 0;
  double ops_per_sec = 0;
  double p99_put_micros = 0;
  uint64_t stall_micros = 0;
  bool ok = false;
};

CompactionSweepResult RunCompactionThreadsCell(const WorkloadSpec& spec, int client_threads,
                                               const BenchConfig& config, Options options,
                                               int compaction_threads) {
  CompactionSweepResult out;
  out.compaction_threads = compaction_threads;
  options.compaction_threads = compaction_threads;

  std::string dir = FreshDbDir("clsm-ct" + std::to_string(compaction_threads));
  DB* raw = nullptr;
  Status s = OpenDb(DbVariant::kClsm, options, dir, &raw);
  if (!s.ok()) {
    fprintf(stderr, "open clsm (ct=%d) failed: %s\n", compaction_threads, s.ToString().c_str());
    return out;
  }
  std::unique_ptr<DB> db(raw);
  s = LoadKeySpace(db.get(), config.preload_keys, spec.key_size, spec.value_size);
  if (!s.ok()) {
    fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
    return out;
  }
  db->WaitForMaintenance();

  DriverResult r = RunWorkload(db.get(), spec, client_threads, config.duration_ms);
  // Stall time accrued during the measured window (preload stalls are
  // negligible: WaitForMaintenance drained the pipeline before the run).
  out.stall_micros = strtoull(db->GetProperty("clsm.stall-micros").c_str(), nullptr, 10);
  out.ops_per_sec = r.ops_per_sec;
  out.p99_put_micros = r.latency_micros.Percentile(99);
  out.ok = true;
  db->WaitForMaintenance();
  return out;
}

}  // namespace

int main() {
  BenchConfig config = LoadBenchConfig();
  PrintFigureHeader("Figure 11", "heavy disk-compaction updates (RocksDB benchmark)", config);

  // Small write buffer + large key count => constant compaction pressure.
  Options options = FigureOptions(config);
  options.write_buffer_size = config.scale == "paper" ? (8 << 20) : (256 << 10);

  BenchConfig cell_config = config;
  cell_config.preload_keys = config.scale == "paper" ? 4'000'000 : 100'000;

  WorkloadSpec spec;
  spec.write_fraction = 1.0;  // 100% updates of existing keys
  spec.distribution = KeyDist::kUniform;
  spec.num_keys = cell_config.preload_keys;
  spec.key_size = 10;    // paper: 10-byte keys
  spec.value_size = 400; // paper: 400-byte values

  ResultTable table("updates/sec", config.thread_counts);
  for (DbVariant v : {DbVariant::kRocksDb, DbVariant::kClsm}) {
    for (int threads : config.thread_counts) {
      DriverResult r = RunCell(v, spec, threads, cell_config, options);
      table.AddResult(v, threads, r);
    }
  }

  printf("\n--- Fig 11: update throughput under continuous compaction ---\n");
  table.Print();
  table.WriteJson("fig11_compaction", config);
  printf("\n(paper shape: both systems scale to 16 threads and converge at 16)\n");

  // --- Parallel compaction scheduler sweep (§5.3): same update-heavy
  // workload, cLSM only, varying the number of compaction workers. More
  // workers should raise throughput and/or cut write-stall time. Results go
  // to bench_results/ as JSON so regressions are diffable.
  const int client_threads = std::min(4, config.thread_counts.back());
  printf("\n--- compaction_threads sweep (cLSM, %d client threads) ---\n", client_threads);
  printf("%-20s %14s %16s %14s\n", "compaction_threads", "updates/sec", "p99 put (us)",
         "stall (ms)");
  std::vector<CompactionSweepResult> sweep;
  for (int ct : {1, 2, 4}) {
    CompactionSweepResult r = RunCompactionThreadsCell(spec, client_threads, cell_config, options, ct);
    if (r.ok) {
      printf("%-20d %14.0f %16.1f %14.2f\n", r.compaction_threads, r.ops_per_sec,
             r.p99_put_micros, r.stall_micros / 1000.0);
      sweep.push_back(r);
    }
  }

  std::filesystem::create_directories("bench_results");
  const std::string json_path = "bench_results/fig11_compaction_threads.json";
  std::ofstream json(json_path);
  json << "{\n  \"figure\": \"fig11_compaction_threads\",\n  \"scale\": \"" << config.scale
       << "\",\n  \"client_threads\": " << client_threads << ",\n  \"duration_ms\": "
       << cell_config.duration_ms << ",\n  \"preload_keys\": " << cell_config.preload_keys
       << ",\n  \"cells\": [\n";
  for (size_t i = 0; i < sweep.size(); i++) {
    const CompactionSweepResult& r = sweep[i];
    json << "    {\"compaction_threads\": " << r.compaction_threads
         << ", \"updates_per_sec\": " << static_cast<uint64_t>(r.ops_per_sec)
         << ", \"p99_put_micros\": " << r.p99_put_micros
         << ", \"stall_micros\": " << r.stall_micros << "}"
         << (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  json.close();
  printf("\n(wrote %s)\n", json_path.c_str());
  return 0;
}
