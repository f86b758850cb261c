// StatsReporter: background thread that periodically logs a one-line
// interval delta summary plus the full structured JSON snapshot
// ("clsm.stats.json") to stderr. Enabled by Options::stats_dump_period_sec
// (0 = off, the default). The paper's instability modes — write stalls,
// compaction debt — are only visible as *time series*; this is the
// poor-man's time series for operators without a scrape pipeline.
#ifndef CLSM_OBS_STATS_REPORTER_H_
#define CLSM_OBS_STATS_REPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>

namespace clsm {

// Small counter sample the reporter diffs between ticks.
struct ReporterCounters {
  uint64_t writes = 0;       // puts + deletes
  uint64_t gets = 0;
  uint64_t flushes = 0;
  uint64_t compactions = 0;
  uint64_t stall_micros = 0;  // total blocked/delayed time (sum of the below)
  // Stall-reason breakdown: time writers spent hard-stopped (memtable full
  // / L0 safety valve) and in write-controller admission delays.
  uint64_t hard_stall_micros = 0;
  uint64_t rate_delay_micros = 0;
  // KV serving tier (the "rpc" stats block); stays 0 for embedded DBs
  // without a KvService attached.
  uint64_t rpc_requests = 0;
};

// The reporter's one-line interval summary, also used by `clsm_dump
// --watch` so live remote monitoring prints the exact same lines as the
// in-process reporter: "[stats:tag] interval=1.0s writes+N gets+N ...".
std::string FormatReporterLine(const std::string& tag, double interval_secs,
                               const ReporterCounters& cur, const ReporterCounters& prev);

// Recovers a ReporterCounters sample from a clsm.stats.json document (a
// single DB's or a ShardedClsm rollup, as rendered by the reporter or
// served by GET /stats), by first-occurrence key search — the sampled
// keys all appear first inside the "counters"/"stall" groups, which lead
// the document, or the "rpc" block's leading total. Missing keys read 0.
// The reporter's only sampler, so both monitors print identical lines.
ReporterCounters CountersFromStatsJson(const std::string& json);

class StatsReporter {
 public:
  // tag: printed on every line (the variant name). json_fn renders the
  // full clsm.stats.json snapshot; each tick prints it after the interval
  // line, whose counters CountersFromStatsJson reads from that same
  // document. json_fn runs on the reporter thread and must stay valid
  // until Stop()/destruction. period_sec == 0 disables the reporter
  // entirely: no thread is spawned and NumDumps() stays 0 (callers need not
  // special-case construction).
  StatsReporter(std::string tag, unsigned period_sec, std::function<std::string()> json_fn);
  ~StatsReporter();

  StatsReporter(const StatsReporter&) = delete;
  StatsReporter& operator=(const StatsReporter&) = delete;

  // Joins the thread; idempotent. Call before tearing down anything the
  // callback reads.
  void Stop();

  uint64_t NumDumps() const { return dumps_; }

 private:
  void Loop();

  const std::string tag_;
  const unsigned period_sec_;
  const std::function<std::string()> json_fn_;

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::atomic<uint64_t> dumps_{0};
  std::thread thread_;
};

}  // namespace clsm

#endif  // CLSM_OBS_STATS_REPORTER_H_
