#include "harness.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include <unistd.h>

namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  r.Next();
  return r.Next();
}

Zipfian::Zipfian(uint64_t n, double theta, uint64_t seed) : n_(n), theta_(theta) {
  // Exact zeta: the benchmark's Zipfian key spaces are at most 20K keys.
  zetan_ = 0;
  for (uint64_t i = 1; i <= n_; i++) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) / (1.0 - zeta2 / zetan_);
  offset_ = Rng(seed).Uniform(n_);
}

uint64_t Zipfian::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  const double uz = u * zetan_;
  uint64_t rank;
  if (uz < 1.0) {
    rank = 0;
  } else if (uz < 1.0 + std::pow(0.5, theta_)) {
    rank = 1;
  } else {
    rank = static_cast<uint64_t>(static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  }
  if (rank >= n_) {
    rank = n_ - 1;
  }
  // 1000003 is prime and larger than every key space used, hence coprime
  // with n: rank -> (rank * p + offset) mod n is a bijection.
  return (rank * 1000003ULL + offset_) % n_;
}

uint64_t HotBlock(Rng& rng, uint64_t n) {
  if (rng.NextDouble() < 0.9) {
    return (rng.Uniform(n / 10) * 10) % n;
  }
  return rng.Uniform(n);
}

int LatencyHistogram::Index(uint64_t nanos) {
  if (nanos < static_cast<uint64_t>(kExact)) {
    return static_cast<int>(nanos);
  }
  int e = 63 - __builtin_clzll(nanos);
  if (e > kMaxExp) {
    return kBuckets - 1;
  }
  const int sub = static_cast<int>(nanos >> (e - 6)) - kSub;
  return kExact + (e - 7) * kSub + sub;
}

void LatencyHistogram::Bounds(int index, double* low, double* width) {
  if (index < kExact) {
    *low = index;
    *width = 1;
    return;
  }
  const int e = 7 + (index - kExact) / kSub;
  const int sub = (index - kExact) % kSub;
  *width = std::ldexp(1.0, e - 6);
  *low = (kSub + sub) * *width;
}

void LatencyHistogram::Add(uint64_t nanos) {
  if (counts_.empty()) {
    counts_.assign(kBuckets, 0);
  }
  counts_[Index(nanos)]++;
  count_++;
  sum_ += nanos;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.counts_.empty()) {
    return;
  }
  if (counts_.empty()) {
    counts_.assign(kBuckets, 0);
  }
  for (int i = 0; i < kBuckets; i++) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::PercentileNanos(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = p / 100.0 * static_cast<double>(count_);
  double cumulative = 0;
  for (int i = 0; i < kBuckets; i++) {
    if (counts_[i] == 0) {
      continue;
    }
    if (cumulative + counts_[i] >= rank) {
      double low = 0, width = 0;
      Bounds(i, &low, &width);
      return low + width * (rank - cumulative) / counts_[i];
    }
    cumulative += counts_[i];
  }
  double low = 0, width = 0;
  Bounds(kBuckets - 1, &low, &width);
  return low + width;
}

void SpanLog::Record(const char* name, uint64_t start_ns, uint64_t end_ns, uint64_t id,
                     uint64_t parent) {
  const uint64_t dur = end_ns - start_ns;
  Total* total = nullptr;
  for (Total& t : totals_) {
    if (t.name == name) {
      total = &t;
      break;
    }
  }
  if (total == nullptr) {
    totals_.push_back(Total{name, 0, 0});
    total = &totals_.back();
  }
  total->count++;
  total->sum_ns += dur;
  if (kept_.size() < keep_) {
    kept_.push_back(Span{name, start_ns, dur, id, parent});
  }
}

void AppendTraceEvents(const SpanLog& log, std::string* out) {
  char buf[320];
  for (const SpanLog::Span& s : log.kept()) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64 "}}",
                  out->empty() ? "" : ",", s.name, log.tid(), s.start_ns / 1000.0,
                  s.dur_ns / 1000.0, s.id, s.parent);
    out->append(buf);
  }
}

void BackgroundListener::OnFlushEnd(const clsm::FlushJobInfo& info) {
  Add(&flush_bytes_, info.output_file_size);
  Add(&flush_micros_, info.micros);
}

void BackgroundListener::OnCompactionEnd(const clsm::CompactionJobInfo& info) {
  if (info.trivial_move) {
    return;  // a file move rewrites nothing
  }
  Add(&compaction_bytes_, info.bytes_written);
  Add(&compaction_micros_, info.micros);
}

void BackgroundListener::OnStallEnd(clsm::StallReason reason, uint64_t micros) {
  const int r = static_cast<int>(reason);
  if (r >= 0 && r < kStallReasons) {
    Add(&stall_micros_[r], micros);
  }
}

BackgroundListener::Totals BackgroundListener::Snapshot() const {
  Totals t;
  t.flush_bytes = flush_bytes_.load();
  t.flush_micros = flush_micros_.load();
  t.compaction_bytes = compaction_bytes_.load();
  t.compaction_micros = compaction_micros_.load();
  for (int r = 0; r < kStallReasons; r++) {
    t.stall_micros[r] = stall_micros_[r].load();
  }
  return t;
}

void Json::Prefix(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) {
      out_ += ',';
    }
    first_.back() = false;
  }
  if (key != nullptr) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

Json& Json::Begin(const char* key) {
  Prefix(key);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::End() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::BeginArray(const char* key) {
  Prefix(key);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::EndArray() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

Json& Json::Num(const char* key, double v) {
  Prefix(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), std::isfinite(v) ? "%.9g" : "null", v);
  out_ += buf;
  return *this;
}

Json& Json::Int(const char* key, uint64_t v) {
  Prefix(key);
  out_ += std::to_string(v);
  return *this;
}

Json& Json::Bool(const char* key, bool v) {
  Prefix(key);
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::Str(const char* key, const std::string& v) {
  Prefix(key);
  out_ += '"';
  for (char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out_ += buf;
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::Raw(const char* key, const std::string& json) {
  Prefix(key);
  out_ += json.empty() ? "null" : json;
  return *this;
}

std::string BuildFactsJson() {
  Json j;
  j.Begin();
  j.Str("compiler", __VERSION__);
  j.Str("build_type", PERFBENCH_BUILD_TYPE);
#if defined(__OPTIMIZE__)
  j.Bool("optimized", true);
#else
  j.Bool("optimized", false);
#endif
#if defined(NDEBUG)
  j.Bool("assertions", false);
#else
  j.Bool("assertions", true);
#endif
#if defined(__SANITIZE_ADDRESS__)
  j.Str("sanitizer", "address");
#elif defined(__SANITIZE_THREAD__)
  j.Str("sanitizer", "thread");
#else
  j.Str("sanitizer", "none");
#endif
  j.End();
  return j.str();
}

uint64_t PeakRssKib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

uint64_t ResidentKib() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  if (!(statm >> size >> resident)) {
    return 0;
  }
  return resident * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) / 1024;
}

uint64_t LiveTableBytes(const std::string& stats_json) {
  const size_t begin = stats_json.find("\"levels\":[");
  if (begin == std::string::npos) {
    return 0;
  }
  const size_t end = stats_json.find(']', begin);  // level entries hold scalars only
  const std::string key = "\"bytes\":";
  uint64_t total = 0;
  for (size_t at = stats_json.find(key, begin); at < end; at = stats_json.find(key, at + 1)) {
    total += std::strtoull(stats_json.c_str() + at + key.size(), nullptr, 10);
  }
  return total;
}

}  // namespace perfbench
