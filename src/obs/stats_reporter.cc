#include "src/obs/stats_reporter.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace clsm {

namespace {

// First occurrence of "key":<number> in json (0 if absent).
uint64_t JsonU64(const std::string& json, const char* key) {
  const std::string needle = std::string("\"") + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return 0;
  }
  return std::strtoull(json.c_str() + pos + needle.size(), nullptr, 10);
}

}  // namespace

std::string FormatReporterLine(const std::string& tag, double interval_secs,
                               const ReporterCounters& cur, const ReporterCounters& prev) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "[stats:%s] interval=%.1fs writes+%llu gets+%llu flushes+%llu "
                "compactions+%llu stall+%.1fms (hard+%.1f rate+%.1f)",
                tag.c_str(), interval_secs,
                static_cast<unsigned long long>(cur.writes - prev.writes),
                static_cast<unsigned long long>(cur.gets - prev.gets),
                static_cast<unsigned long long>(cur.flushes - prev.flushes),
                static_cast<unsigned long long>(cur.compactions - prev.compactions),
                (cur.stall_micros - prev.stall_micros) / 1000.0,
                (cur.hard_stall_micros - prev.hard_stall_micros) / 1000.0,
                (cur.rate_delay_micros - prev.rate_delay_micros) / 1000.0);
  std::string line(buf);
  // The serving tier rides along only where one exists — embedded DBs keep
  // the historical line format.
  if (cur.rpc_requests != 0 || prev.rpc_requests != 0) {
    std::snprintf(buf, sizeof(buf), " rpc+%llu",
                  static_cast<unsigned long long>(cur.rpc_requests - prev.rpc_requests));
    line += buf;
  }
  return line;
}

ReporterCounters CountersFromStatsJson(const std::string& json) {
  ReporterCounters c;
  c.writes = JsonU64(json, "puts_total") + JsonU64(json, "deletes_total");
  c.gets = JsonU64(json, "gets_total");
  c.flushes = JsonU64(json, "flushes");
  c.compactions = JsonU64(json, "compactions");
  c.hard_stall_micros = JsonU64(json, "stall_micros");
  c.rate_delay_micros = JsonU64(json, "rate_limit_delay_micros");
  c.stall_micros = c.hard_stall_micros + c.rate_delay_micros;
  // The rpc block's top-level total leads its per-op "requests_total"
  // keys in document order, so first-occurrence search reads the total.
  c.rpc_requests = JsonU64(json, "requests_total");
  return c;
}

StatsReporter::StatsReporter(std::string tag, unsigned period_sec,
                             std::function<std::string()> json_fn)
    : tag_(std::move(tag)), period_sec_(period_sec), json_fn_(std::move(json_fn)) {
  if (period_sec_ > 0) {
    thread_ = std::thread([this] { Loop(); });
  }
}

StatsReporter::~StatsReporter() { Stop(); }

void StatsReporter::Stop() {
  {
    std::lock_guard<std::mutex> l(mutex_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

void StatsReporter::Loop() {
  ReporterCounters prev = CountersFromStatsJson(json_fn_());
  auto prev_time = std::chrono::steady_clock::now();
  while (true) {
    {
      std::unique_lock<std::mutex> l(mutex_);
      if (cv_.wait_for(l, std::chrono::seconds(period_sec_), [this] { return stop_; })) {
        return;
      }
    }
    const std::string json = json_fn_();
    const ReporterCounters cur = CountersFromStatsJson(json);
    const auto now = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(now - prev_time).count();
    std::fprintf(stderr, "%s\n%s\n", FormatReporterLine(tag_, secs, cur, prev).c_str(),
                 json.c_str());
    std::fflush(stderr);
    prev = cur;
    prev_time = now;
    dumps_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace clsm
