// Sustained-load stability benchmark: a write-heavy Zipfian workload runs
// for a fixed wall-clock window against the cLSM chassis while a sampler
// thread captures a per-second time series of what the write controller
// (src/lsm/write_controller.h) does to it: throughput, p99/p999 put
// latency, L0 file count, the controller's admitted rate, and stall time.
//
// Write stalls from flush and compaction show up in the tail and in
// windowed throughput, not in the mean, so the summary reports the
// windowed-throughput coefficient of variation and p9999 next to the mean
// (on small hosts p999 sits on a scheduler-noise floor; roll waits are
// rarer than 1-in-1000 ops).
//
// Output: bench_results/stability_timeseries.json
//   { "figure":"stability_timeseries", "duration_ms":N, "threads":T,
//     "series":[ {"t_sec":..,"ops_per_sec":..,"p50_us":..,"p99_us":..,
//                 "p999_us":..,"l0_files":..,"rate_bytes_per_sec":..,
//                 "stall_ms":..}, ...],
//     "summary":{"mean_ops_per_sec":..,"throughput_cov":..,"p99_us":..,
//                "p999_us":..,"p9999_us":..,"stall_ms_total":..},
//     "stats":{...clsm.stats.json at the end of the run...} }
//
// CLSM_BENCH_DURATION_MS overrides the window (CI smoke uses a few
// seconds just to validate the schema).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/util/histogram.h"
#include "src/workload/generator.h"

using namespace clsm;

namespace {

// Pulls the unsigned integer following `"name":` out of a JSON snapshot.
uint64_t ExtractCounter(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return 0;
  }
  pos += needle.size();
  uint64_t value = 0;
  while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
    value = value * 10 + static_cast<uint64_t>(json[pos] - '0');
    pos++;
  }
  return value;
}

struct alignas(64) WorkerSlot {
  std::mutex mu;          // guards hist against the sampler's swap
  Histogram hist;         // put/get latency (micros) since the last sample
  std::atomic<uint64_t> ops{0};
};

struct SecondSample {
  double t_sec = 0;
  double ops_per_sec = 0;
  double p50_us = 0, p99_us = 0, p999_us = 0;
  int l0_files = 0;
  uint64_t rate_bytes_per_sec = 0;
  double stall_ms = 0;  // stall-time delta accrued in this window
};

struct RunResult {
  std::vector<SecondSample> series;
  double mean_ops_per_sec = 0;
  double throughput_cov = 0;  // stddev/mean of per-window throughput
  double p99_us = 0, p999_us = 0, p9999_us = 0;
  double stall_ms_total = 0;
  std::string final_stats_json;
};

RunResult Run(const BenchConfig& config, int threads, int duration_ms, int sample_ms) {
  RunResult result;

  Options options = FigureOptions(config);
  const std::string dir = FreshDbDir("stability");
  DB* raw = nullptr;
  Status s = OpenDb(DbVariant::kClsm, options, dir, &raw);
  if (!s.ok()) {
    fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    exit(1);
  }
  std::unique_ptr<DB> db(raw);
  s = LoadKeySpace(db.get(), config.preload_keys, 8, 256);
  if (!s.ok()) {
    fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
    exit(1);
  }

  std::vector<WorkerSlot> slots(threads);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (int t = 0; t < threads; t++) {
    workers.emplace_back([&, t] {
      // 90% puts / 10% gets, Zipfian keys: the paper's write-dominated
      // production shape, the regime where backpressure policy decides
      // tail latency.
      ZipfianGenerator keys(config.num_keys, 0.99, 1000 + static_cast<uint64_t>(t));
      UniformGenerator mix(100, 77 + static_cast<uint64_t>(t));
      ValueGenerator values(256, 13 + static_cast<uint64_t>(t));
      std::string key, value_out;
      WorkerSlot& slot = slots[t];
      while (!stop.load(std::memory_order_relaxed)) {
        EncodeWorkloadKey(keys.Next(), 8, &key);
        const auto t0 = std::chrono::steady_clock::now();
        if (mix.Next() < 90) {
          db->Put(WriteOptions(), key, values.Next());
        } else {
          db->Get(ReadOptions(), key, &value_out);
        }
        const double us =
            std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0)
                .count();
        {
          std::lock_guard<std::mutex> l(slot.mu);
          slot.hist.Add(us);
        }
        slot.ops.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Sampler: every sample_ms, swap out the per-thread histograms, diff the
  // op counters, and read the live gauges.
  Histogram run_hist;
  uint64_t prev_ops = 0;
  uint64_t prev_stall_micros = 0;
  const auto start = std::chrono::steady_clock::now();
  auto next_tick = start;
  while (true) {
    next_tick += std::chrono::milliseconds(sample_ms);
    std::this_thread::sleep_until(next_tick);
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    Histogram window;
    uint64_t ops = 0;
    for (auto& slot : slots) {
      std::lock_guard<std::mutex> l(slot.mu);
      window.Merge(slot.hist);
      slot.hist.Clear();
      ops += slot.ops.load(std::memory_order_relaxed);
    }
    run_hist.Merge(window);

    const std::string stats = db->GetProperty("clsm.stats.json");
    const uint64_t stall_micros = ExtractCounter(stats, "stall_micros") +
                                  ExtractCounter(stats, "rate_limit_delay_micros");
    SecondSample sample;
    sample.t_sec = elapsed;
    sample.ops_per_sec =
        static_cast<double>(ops - prev_ops) / (static_cast<double>(sample_ms) / 1000.0);
    if (window.Num() > 0) {
      sample.p50_us = window.Percentile(50);
      sample.p99_us = window.Percentile(99);
      sample.p999_us = window.Percentile(99.9);
    }
    sample.l0_files = atoi(db->GetProperty("clsm.l0-files").c_str());
    sample.rate_bytes_per_sec =
        strtoull(db->GetProperty("clsm.write-rate").c_str(), nullptr, 10);
    sample.stall_ms = static_cast<double>(stall_micros - prev_stall_micros) / 1000.0;
    result.series.push_back(sample);
    prev_ops = ops;
    prev_stall_micros = stall_micros;

    if (elapsed * 1000.0 >= duration_ms) {
      break;
    }
  }
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }

  // Per-window throughput statistics: the CoV is the stability metric.
  double sum = 0, sum_sq = 0, stall_total = 0;
  for (const SecondSample& sample : result.series) {
    sum += sample.ops_per_sec;
    sum_sq += sample.ops_per_sec * sample.ops_per_sec;
    stall_total += sample.stall_ms;
  }
  const double n = static_cast<double>(result.series.size());
  result.mean_ops_per_sec = n > 0 ? sum / n : 0;
  if (n > 0 && result.mean_ops_per_sec > 0) {
    const double var = std::max(0.0, sum_sq / n - result.mean_ops_per_sec * result.mean_ops_per_sec);
    result.throughput_cov = std::sqrt(var) / result.mean_ops_per_sec;
  }
  if (run_hist.Num() > 0) {
    result.p99_us = run_hist.Percentile(99);
    result.p999_us = run_hist.Percentile(99.9);
    result.p9999_us = run_hist.Percentile(99.99);
  }
  result.stall_ms_total = stall_total;
  result.final_stats_json = db->GetProperty("clsm.stats.json");
  return result;
}

void EmitRun(FILE* f, const RunResult& r) {
  fprintf(f, "\"series\":[");
  for (size_t i = 0; i < r.series.size(); i++) {
    const SecondSample& s = r.series[i];
    fprintf(f,
            "%s\n{\"t_sec\":%.2f,\"ops_per_sec\":%.1f,\"p50_us\":%.2f,\"p99_us\":%.2f,"
            "\"p999_us\":%.2f,\"l0_files\":%d,\"rate_bytes_per_sec\":%llu,\"stall_ms\":%.2f}",
            i == 0 ? "" : ",", s.t_sec, s.ops_per_sec, s.p50_us, s.p99_us, s.p999_us,
            s.l0_files, static_cast<unsigned long long>(s.rate_bytes_per_sec), s.stall_ms);
  }
  fprintf(f,
          "\n],\"summary\":{\"mean_ops_per_sec\":%.1f,\"throughput_cov\":%.4f,"
          "\"p99_us\":%.2f,\"p999_us\":%.2f,\"p9999_us\":%.2f,\"stall_ms_total\":%.2f},"
          "\n\"stats\":%s",
          r.mean_ops_per_sec, r.throughput_cov, r.p99_us, r.p999_us, r.p9999_us, r.stall_ms_total,
          r.final_stats_json.empty() ? "null" : r.final_stats_json.c_str());
}

}  // namespace

int main() {
  BenchConfig config = LoadBenchConfig();
  // The stability question needs a sustained window; the generic per-cell
  // default (1s) is only honored when set explicitly via the environment.
  int duration_ms = config.scale == "paper" ? 60'000 : 15'000;
  if (const char* env = getenv("CLSM_BENCH_DURATION_MS")) {
    duration_ms = std::max(1000, atoi(env));
  }
  // Per-second samples, finer when the whole window is only a few seconds
  // (CI smoke) so the series still has enough points to be a series.
  const int sample_ms = duration_ms <= 5000 ? 250 : 1000;
  // Default to moderate oversubscription of the host rather than the
  // figure sweeps' top thread count: 16 writers on a 1-core runner measure
  // scheduler thrash, not admission policy. An explicit CLSM_BENCH_THREADS
  // (whose last entry is taken) still overrides.
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  const int default_threads = std::max(2, std::min(8, 4 * hw));
  const int threads = getenv("CLSM_BENCH_THREADS") != nullptr && !config.thread_counts.empty()
                          ? config.thread_counts.back()
                          : default_threads;

  PrintFigureHeader("Stability", "sustained write-heavy Zipfian load under the write controller",
                    config);
  printf("duration %dms, %d worker threads, sample every %dms\n\n", duration_ms, threads,
         sample_ms);

  const RunResult r = Run(config, threads, duration_ms, sample_ms);
  printf("  mean throughput  %.0f ops/sec\n", r.mean_ops_per_sec);
  printf("  throughput CoV   %.4f\n", r.throughput_cov);
  printf("  p99 / p999 / p9999  %.0f / %.0f / %.0f us\n", r.p99_us, r.p999_us, r.p9999_us);
  printf("  stall time       %.1f ms\n", r.stall_ms_total);

  int rc = system("mkdir -p bench_results");
  (void)rc;
  FILE* f = fopen("bench_results/stability_timeseries.json", "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write bench_results/stability_timeseries.json\n");
    return 1;
  }
  fprintf(f, "{\"figure\":\"stability_timeseries\",\"scale\":\"%s\",\"duration_ms\":%d,"
             "\"threads\":%d,\"sample_ms\":%d,\n",
          config.scale.c_str(), duration_ms, threads, sample_ms);
  EmitRun(f, r);
  fprintf(f, "}\n");
  fclose(f);
  printf("\nwrote bench_results/stability_timeseries.json\n");
  return 0;
}
