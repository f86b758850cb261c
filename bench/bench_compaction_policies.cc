// Compaction sweep: the amplification grid of the leveled picker
// (DESIGN.md "Compaction picking") over three workloads. Every workload
// cell opens a fresh cLSM store with deliberately small file/level targets (so hundreds of
// picker decisions happen in seconds), runs a deterministic single-writer
// workload, waits for maintenance to quiesce, and reads the amplification
// triple off the stats document:
//
//   write-amp  clsm.stats.json "write_amp" — (flush + compaction bytes
//              written) / flushed bytes, the classic rewrite multiple.
//   space-amp  sum of live level bytes / logical data size (distinct live
//              keys x entry size) — how much dead weight the shape keeps.
//   read-amp   sorted-run count a point lookup may touch: L0 files plus
//              one per non-empty deeper level.
//
// Workloads: fillseq (ascending unique keys — the trivial-move showcase),
// fillrandom
// (uniform-random unique keys), zipfian_overwrite (preload then skewed
// overwrite — the write-amp regime the heuristics target).
//
// Output: bench_results/compaction_policies.json
//   { "figure":"compaction_policies", "scale":..., "ops":N, "keys":K,
//     "cells":[ { "policy":"leveled", "workload":"zipfian_overwrite",
//                 "ops":N, "ops_per_sec":..., "write_amp":...,
//                 "space_amp":..., "read_amp":..., "l0_files":...,
//                 "total_bytes":..., "logical_bytes":...,
//                 "picker":{"picks":..,"expansions":..,"output_splits":..,
//                           "trivial_moves_blocked":..,
//                           "grandparent_bytes":..},
//                 "trivial_moves":..., "compactions":... }, ... ] }
//
// CLSM_BENCH_OPS overrides the per-cell overwrite op count (CI smoke uses
// a small value just to validate the schema and that the leveled
// heuristics fire; the acceptance run uses the default or larger).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/workload/generator.h"

using namespace clsm;

namespace {

// Pulls the floating-point scalar following `"name":` out of a JSON
// snapshot ("write_amp":3.412).
double ExtractF64(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return 0;
  }
  return atof(json.c_str() + pos + needle.size());
}

// Every occurrence of `"name":<uint>` in document order. The per-level
// fields ("files", "bytes", "picker_expansions", ...) appear exactly once
// per level inside the "levels" array and nowhere else, so occurrence
// order is level order.
std::vector<uint64_t> ExtractAllCounters(const std::string& json, const std::string& name) {
  std::vector<uint64_t> values;
  const std::string needle = "\"" + name + "\":";
  size_t pos = 0;
  while ((pos = json.find(needle, pos)) != std::string::npos) {
    pos += needle.size();
    uint64_t value = 0;
    while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
      value = value * 10 + static_cast<uint64_t>(json[pos] - '0');
      pos++;
    }
    values.push_back(value);
  }
  return values;
}

uint64_t Sum(const std::vector<uint64_t>& v) {
  uint64_t total = 0;
  for (uint64_t x : v) {
    total += x;
  }
  return total;
}

struct CellResult {
  std::string policy;
  std::string workload;
  uint64_t ops = 0;
  double ops_per_sec = 0;
  double write_amp = 0;
  double space_amp = 0;
  double read_amp = 0;
  uint64_t l0_files = 0;
  uint64_t total_bytes = 0;
  uint64_t logical_bytes = 0;
  uint64_t compactions = 0;
  uint64_t trivial_moves = 0;
  uint64_t picker_picks = 0;
  uint64_t picker_expansions = 0;
  uint64_t picker_output_splits = 0;
  uint64_t picker_trivial_moves_blocked = 0;
  uint64_t picker_grandparent_bytes = 0;
};

constexpr size_t kKeySize = 16;
constexpr size_t kValueSize = 256;

// Small targets so the sweep exercises many picker decisions per second:
// ~1K entries per memtable, 64K output files, a 4-file level 1.
Options CellOptions() {
  Options options;
  options.write_buffer_size = 256 * 1024;
  options.target_file_size = 64 * 1024;
  options.level1_max_bytes = 256 * 1024;
  options.l0_compaction_trigger = 4;
  options.sync_logging = false;
  return options;
}

CellResult RunCell(const std::string& workload, uint64_t num_keys, uint64_t overwrite_ops) {
  CellResult result;
  result.policy = "leveled";
  result.workload = workload;

  const std::string dir = FreshDbDir("cpolicy-" + result.policy + "-" + workload);
  DB* raw = nullptr;
  Status s = OpenDb(DbVariant::kClsm, CellOptions(), dir, &raw);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    exit(1);
  }
  std::unique_ptr<DB> db(raw);

  ValueGenerator values(kValueSize, 13);
  std::string key;
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t ops = 0;
  // Quiesce maintenance after every memtable's worth of puts. Pacing the
  // single writer this way makes each cell's flush/compaction sequence
  // (and so its amplification) a deterministic function of the picker, not
  // of scheduler timing — without it a picker change drowns in +-10%
  // run-to-run noise from compactions racing the writer.
  const uint64_t pace = 1000;
  auto put = [&](uint64_t k) {
    EncodeWorkloadKey(k, kKeySize, &key);
    Status ps = db->Put(WriteOptions(), key, values.Next());
    if (!ps.ok()) {
      fprintf(stderr, "put failed: %s\n", ps.ToString().c_str());
      exit(1);
    }
    ops++;
    if (ops % pace == 0) {
      db->WaitForMaintenance();
    }
  };

  if (workload == "fillseq") {
    for (uint64_t i = 0; i < num_keys; i++) {
      put(i);
    }
  } else if (workload == "fillrandom") {
    // Deterministic full-period permutation of [0, num_keys): an LCG walk
    // over the next power of two, skipping out-of-range states. Every key
    // is written exactly once, in scattered order.
    uint64_t period = 1;
    while (period < num_keys) {
      period <<= 1;
    }
    uint64_t state = 12345 % period;
    for (uint64_t written = 0; written < num_keys;) {
      if (state < num_keys) {
        put(state);
        written++;
      }
      state = (state * 5 + 1) & (period - 1);  // full period for mod 2^k
    }
  } else {  // zipfian_overwrite
    for (uint64_t i = 0; i < num_keys; i++) {
      put(i);
    }
    ZipfianGenerator keys(num_keys, 0.99, 42);
    for (uint64_t i = 0; i < overwrite_ops; i++) {
      put(keys.Next());
    }
  }
  db->WaitForMaintenance();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  const std::string stats = db->GetProperty("clsm.stats.json");
  const std::vector<uint64_t> files = ExtractAllCounters(stats, "files");
  const std::vector<uint64_t> bytes = ExtractAllCounters(stats, "bytes");

  result.ops = ops;
  result.ops_per_sec = elapsed > 0 ? static_cast<double>(ops) / elapsed : 0;
  result.write_amp = ExtractF64(stats, "write_amp");
  result.total_bytes = Sum(bytes);
  result.logical_bytes = num_keys * (kKeySize + kValueSize);
  result.space_amp = result.logical_bytes > 0 ? static_cast<double>(result.total_bytes) /
                                                    static_cast<double>(result.logical_bytes)
                                              : 0;
  result.l0_files = files.empty() ? 0 : files[0];
  // Sorted runs a Get may consult: every L0 file plus each non-empty
  // deeper level.
  result.read_amp = static_cast<double>(result.l0_files);
  for (size_t l = 1; l < bytes.size(); l++) {
    if (bytes[l] > 0) {
      result.read_amp += 1;
    }
  }
  // counters.compactions, the total, leads the document; the per-level
  // "compactions" that follow it are its parts, not further jobs.
  const std::vector<uint64_t> compactions = ExtractAllCounters(stats, "compactions");
  result.compactions = compactions.empty() ? 0 : compactions.front();
  result.trivial_moves = Sum(ExtractAllCounters(stats, "trivial_moves"));
  result.picker_picks = Sum(ExtractAllCounters(stats, "picker_picks"));
  result.picker_expansions = Sum(ExtractAllCounters(stats, "picker_expansions"));
  result.picker_output_splits = Sum(ExtractAllCounters(stats, "picker_output_splits"));
  result.picker_trivial_moves_blocked =
      Sum(ExtractAllCounters(stats, "picker_trivial_moves_blocked"));
  result.picker_grandparent_bytes = Sum(ExtractAllCounters(stats, "picker_grandparent_bytes"));
  return result;
}

void EmitCell(FILE* f, const CellResult& c, bool last) {
  fprintf(f,
          "{\"policy\":\"%s\",\"workload\":\"%s\",\"ops\":%llu,\"ops_per_sec\":%.1f,"
          "\"write_amp\":%.3f,\"space_amp\":%.3f,\"read_amp\":%.1f,\"l0_files\":%llu,"
          "\"total_bytes\":%llu,\"logical_bytes\":%llu,"
          "\"picker\":{\"picks\":%llu,\"expansions\":%llu,\"output_splits\":%llu,"
          "\"trivial_moves_blocked\":%llu,\"grandparent_bytes\":%llu},"
          "\"trivial_moves\":%llu,\"compactions\":%llu}%s\n",
          c.policy.c_str(), c.workload.c_str(), static_cast<unsigned long long>(c.ops),
          c.ops_per_sec, c.write_amp, c.space_amp, c.read_amp,
          static_cast<unsigned long long>(c.l0_files),
          static_cast<unsigned long long>(c.total_bytes),
          static_cast<unsigned long long>(c.logical_bytes),
          static_cast<unsigned long long>(c.picker_picks),
          static_cast<unsigned long long>(c.picker_expansions),
          static_cast<unsigned long long>(c.picker_output_splits),
          static_cast<unsigned long long>(c.picker_trivial_moves_blocked),
          static_cast<unsigned long long>(c.picker_grandparent_bytes),
          static_cast<unsigned long long>(c.trivial_moves),
          static_cast<unsigned long long>(c.compactions), last ? "" : ",");
}

}  // namespace

int main() {
  BenchConfig config = LoadBenchConfig();
  // The cells are op-count driven (deterministic), not duration driven.
  uint64_t num_keys = config.scale == "paper" ? 200'000 : 20'000;
  uint64_t overwrite_ops = config.scale == "paper" ? 800'000 : 120'000;
  if (const char* env = getenv("CLSM_BENCH_OPS")) {
    overwrite_ops = std::max<uint64_t>(1000, strtoull(env, nullptr, 10));
    num_keys = std::max<uint64_t>(1000, overwrite_ops / 6);
  }

  const char* workloads[] = {"fillseq", "fillrandom", "zipfian_overwrite"};

  PrintFigureHeader("CompactionPolicies",
                    "write/space/read amplification of the leveled picker per workload", config);
  printf("%llu distinct keys, %llu overwrite ops, single writer, %zuB values\n\n",
         static_cast<unsigned long long>(num_keys),
         static_cast<unsigned long long>(overwrite_ops), kValueSize);

  std::vector<CellResult> cells;
  for (const char* workload : workloads) {
    CellResult c = RunCell(workload, num_keys, overwrite_ops);
    printf(
        "%-18s %-17s  wamp %6.2f  samp %5.2f  ramp %4.0f  %7.0f ops/s  "
        "(expand %llu, splits %llu, moves blocked %llu)\n",
        c.workload.c_str(), c.policy.c_str(), c.write_amp, c.space_amp, c.read_amp,
        c.ops_per_sec, static_cast<unsigned long long>(c.picker_expansions),
        static_cast<unsigned long long>(c.picker_output_splits),
        static_cast<unsigned long long>(c.picker_trivial_moves_blocked));
    cells.push_back(std::move(c));
  }

  int rc = system("mkdir -p bench_results");
  (void)rc;
  FILE* f = fopen("bench_results/compaction_policies.json", "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write bench_results/compaction_policies.json\n");
    return 1;
  }
  fprintf(f,
          "{\"figure\":\"compaction_policies\",\"scale\":\"%s\",\"keys\":%llu,"
          "\"overwrite_ops\":%llu,\n\"cells\":[\n",
          config.scale.c_str(), static_cast<unsigned long long>(num_keys),
          static_cast<unsigned long long>(overwrite_ops));
  for (size_t i = 0; i < cells.size(); i++) {
    EmitCell(f, cells[i], i + 1 == cells.size());
  }
  fprintf(f, "]}\n");
  fclose(f);
  printf("\nwrote bench_results/compaction_policies.json\n");
  return 0;
}
