// Measurement plumbing shared by the workloads: seeded input generators,
// latency histograms, the traced run's span log and engine-event listener,
// and a small JSON writer for the raw report perfbench/run.py turns into
// metrics.
#ifndef CLSM_PERFBENCH_HARNESS_H_
#define CLSM_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/event_listener.h"

namespace perfbench {

// Same clock as the engine's trace events (clsm::MonotonicNanos), so client
// spans and engine flush/compaction spans share one timeline.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// splitmix64 stream. Every input the benchmark sends derives from the
// --seed argument through one of these.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Uniform(uint64_t n) {
    return static_cast<uint64_t>((static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

// Independent stream `stream` of the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

// Zipfian over [0, n) (Gray et al.'s sampler, as in YCSB), with ranks
// scattered over the range by a seed-dependent bijection so the hot keys
// are not one contiguous prefix.
class Zipfian {
 public:
  Zipfian(uint64_t n, double theta, uint64_t seed);
  uint64_t Next(Rng& rng) const;

 private:
  uint64_t n_;
  double theta_;
  double alpha_;
  double zetan_;
  double eta_;
  uint64_t offset_;
};

// The read benchmark's hot-block distribution (paper §5.1, Fig 6): 90% of
// draws hit the hot 10% of keys, which are every 10th key so that every
// table block holds hot keys; the rest are uniform over [0, n).
uint64_t HotBlock(Rng& rng, uint64_t n);

// Log-linear latency histogram: exact below 128 ns, then 64 sub-buckets per
// power of two (about 1.6% resolution). Percentiles interpolate inside a
// bucket. Not thread-safe; one per client thread, merged after the run.
class LatencyHistogram {
 public:
  void Add(uint64_t nanos);
  void Merge(const LatencyHistogram& other);
  uint64_t Count() const { return count_; }
  double MeanNanos() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_; }
  double PercentileNanos(double p) const;

 private:
  static constexpr int kExact = 128;
  static constexpr int kSub = 64;
  static constexpr int kMaxExp = 42;
  static constexpr int kBuckets = kExact + (kMaxExp - 6) * kSub;
  static int Index(uint64_t nanos);
  static void Bounds(int index, double* low, double* width);

  std::vector<uint32_t> counts_;  // allocated on first Add
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
};

// Spans recorded around the benchmark's own calls into each layer (traced
// run only). Every span is summed per name; the first `keep` are retained
// for the Chrome trace file. One log per client thread.
class SpanLog {
 public:
  struct Span {
    const char* name;  // static string
    uint64_t start_ns;
    uint64_t dur_ns;
    uint64_t id;
    uint64_t parent;  // 0 = a top-level op
  };
  struct Total {
    const char* name;
    uint64_t count;
    uint64_t sum_ns;
  };

  SpanLog(uint32_t tid, size_t keep) : tid_(tid), keep_(keep) {}
  uint64_t NewId() { return (static_cast<uint64_t>(tid_) << 40) | ++seq_; }
  void Record(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t id, uint64_t parent);
  uint32_t tid() const { return tid_; }
  const std::vector<Span>& kept() const { return kept_; }
  const std::vector<Total>& totals() const { return totals_; }

 private:
  uint32_t tid_;
  size_t keep_;
  uint64_t seq_ = 0;
  std::vector<Span> kept_;
  std::vector<Total> totals_;
};

// Appends spans as Chrome trace_event complete ("X") events, comma-separated.
void AppendTraceEvents(const SpanLog& log, std::string* out);

// Engine background activity seen through Options::listeners: flush and
// compaction job time and bytes, and writer stalls by reason.
class BackgroundListener final : public clsm::EventListener {
 public:
  static constexpr int kStallReasons = 4;
  struct Totals {
    uint64_t flush_bytes = 0, flush_micros = 0;
    uint64_t compaction_bytes = 0, compaction_micros = 0;
    uint64_t stall_micros[kStallReasons] = {};
  };

  void OnFlushEnd(const clsm::FlushJobInfo& info) override;
  void OnCompactionEnd(const clsm::CompactionJobInfo& info) override;
  void OnStallEnd(clsm::StallReason reason, uint64_t micros) override;

  Totals Snapshot() const;

 private:
  static void Add(std::atomic<uint64_t>* c, uint64_t v) { c->fetch_add(v, std::memory_order_relaxed); }

  std::atomic<uint64_t> flush_bytes_{0}, flush_micros_{0};
  std::atomic<uint64_t> compaction_bytes_{0}, compaction_micros_{0};
  std::atomic<uint64_t> stall_micros_[kStallReasons] = {};
};

// Minimal streaming JSON writer (objects, arrays, numbers, strings, and
// pre-rendered JSON spliced in raw).
class Json {
 public:
  Json& Begin(const char* key = nullptr);       // {
  Json& End();                                   // }
  Json& BeginArray(const char* key = nullptr);  // [
  Json& EndArray();                              // ]
  Json& Num(const char* key, double v);
  Json& Int(const char* key, uint64_t v);
  Json& Bool(const char* key, bool v);
  Json& Str(const char* key, const std::string& v);
  Json& Raw(const char* key, const std::string& json);
  const std::string& str() const { return out_; }

 private:
  void Prefix(const char* key);
  std::string out_;
  std::vector<bool> first_;
};

// Compiler and build facts baked in at compile time, as a JSON object.
std::string BuildFactsJson();

// Peak and current resident set size of this process in KiB, 0 if unknown.
uint64_t PeakRssKib();
uint64_t ResidentKib();

// Sum of the per-level table bytes in a clsm.stats.json document (the
// first "levels" array: the engine's own, or the rollup when sharded).
uint64_t LiveTableBytes(const std::string& stats_json);

}  // namespace perfbench

#endif  // CLSM_PERFBENCH_HARNESS_H_
