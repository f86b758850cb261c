// perfbench: runs one workload against the engine and prints one JSON
// report of raw measurements on stdout; perfbench/run.py derives the named
// metrics from it.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR
//             [--trace-file PATH]
//
// --trace 0: repeated setups (the store is opened, preloaded and quiesced at
// least kMinSetups times and for at least kMinSetupSeconds; the last one is
// measured), then one untraced phase.
// --trace 1: an untraced phase and a traced phase, each on a fresh setup;
// the traced phase records spans and PerfContext timers, and the Chrome
// trace_event file is written at exit.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "src/obs/trace_listener.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kKeptSpansPerClient = 20000;
// Set-up time is reported as the median of several setups; cheap setups are
// repeated more often so that their median is as steady as a costly one's.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 15;
constexpr double kMinSetupSeconds = 3.0;
// The sampler reads resident memory and table bytes this often.
constexpr uint64_t kSampleNanos = 200'000'000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dir;
  std::string trace_file;
};

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

void Check(const clsm::Status& s, const char* what) {
  if (!s.ok()) {
    Die(std::string(what) + ": " + s.ToString());
  }
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atof(v);
    } else if (flag == "--trace") {
      a.trace = std::atoi(v) != 0;
    } else if (flag == "--dir") {
      a.dir = v;
    } else if (flag == "--trace-file") {
      a.trace_file = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || a.dir.empty() || a.seconds <= 0) {
    Die("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --dir DIR "
        "[--trace-file PATH]");
  }
  return a;
}

void WriteLatency(Json* j, const char* key, const LatencyHistogram& h) {
  j->Begin(key);
  j->Int("count", h.Count());
  j->Num("mean_us", h.MeanNanos() / 1000.0);
  j->Num("p50_us", h.PercentileNanos(50) / 1000.0);
  j->Num("p99_us", h.PercentileNanos(99) / 1000.0);
  j->Num("p999_us", h.PercentileNanos(99.9) / 1000.0);
  j->End();
}

void WriteBackground(Json* j, const BackgroundListener::Totals& a,
                     const BackgroundListener::Totals& b) {
  j->Begin("background");
  j->Int("flush_bytes", b.flush_bytes - a.flush_bytes);
  j->Int("flush_micros", b.flush_micros - a.flush_micros);
  j->Int("compaction_bytes", b.compaction_bytes - a.compaction_bytes);
  j->Int("compaction_micros", b.compaction_micros - a.compaction_micros);
  j->Begin("stall_micros");
  for (int r = 0; r < BackgroundListener::kStallReasons; r++) {
    j->Int(clsm::StallReasonName(static_cast<clsm::StallReason>(r)),
           b.stall_micros[r] - a.stall_micros[r]);
  }
  j->End();
  j->End();
}

void WritePerf(Json* j, const PerfSums& p) {
  j->Begin("perf");
  j->Int("puts", p.puts);
  j->Int("put_throttle_ns", p.put_throttle);
  j->Int("put_lock_getts_ns", p.put_lock_getts);
  j->Int("put_shared_lock_wait_ns", p.put_shared_lock_wait);
  j->Int("put_mem_insert_ns", p.put_mem_insert);
  j->Int("put_wal_append_ns", p.put_wal_append);
  j->Int("put_span_ns", p.put_total);
  j->Int("gets", p.gets);
  j->Int("get_mem_search_ns", p.get_mem_search);
  j->Int("get_disk_search_ns", p.get_disk_search);
  j->Int("get_skiplist_nodes", p.get_skiplist_nodes);
  j->Int("get_table_probes", p.get_table_probes);
  j->Int("get_block_reads", p.get_block_reads);
  j->Int("get_cache_hits", p.get_cache_hits);
  j->Int("get_bloom_skips", p.get_bloom_skips);
  j->End();
}

// One measured phase on the store `w` has set up: closed-loop clients until
// the deadline, then quiesce and audit. Appends one phase object to *j and,
// when traced, the client spans to *events.
void RunPhase(Workload& w, const Args& a, bool traced, const BackgroundListener* bg,
              const std::shared_ptr<clsm::TraceEventListener>& ring, Json* j,
              std::string* events) {
  Check(w.BeginPhase(traced, ring), "starting the phase");
  std::vector<ClientStats> stats(kClients);
  for (int c = 0; c < kClients; c++) {
    if (traced) {
      stats[c].spans = std::make_unique<SpanLog>(c + 1, kKeptSpansPerClient);
    }
  }
  const std::string stats_begin = w.StatsJson();
  const BackgroundListener::Totals bg_begin = bg ? bg->Snapshot() : BackgroundListener::Totals();

  // Clients start together a little after they are spawned.
  const uint64_t start = NowNanos() + 20'000'000;
  const uint64_t deadline = start + static_cast<uint64_t>(a.seconds * 1e9);

  // Resident memory and space amplification are sampled through the phase
  // and reported as time averages: at any one instant they depend on where
  // the store happens to be in a flush/compaction cycle.
  const uint64_t live_at_start = w.LiveKeys();
  std::vector<uint64_t> rss_kib, table_bytes, live_keys;
  std::thread sampler([&] {
    for (uint64_t next = start + kSampleNanos / 2; next < deadline; next += kSampleNanos) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(next - std::min(next, NowNanos())));
      uint64_t live = live_at_start;
      for (const ClientStats& s : stats) {
        live += s.created.load(std::memory_order_relaxed);
      }
      rss_kib.push_back(ResidentKib());
      table_bytes.push_back(LiveTableBytes(w.StatsJson()));
      live_keys.push_back(live);
    }
  });
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; c++) {
    threads.emplace_back([&, c] {
      ClientCtx ctx(c, SubSeed(a.seed, 100 + c + (traced ? 10 : 0)), &stats[c], traced);
      while (NowNanos() < start) {
        std::this_thread::yield();
      }
      while (NowNanos() < deadline) {
        w.Op(ctx);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  sampler.join();
  const double elapsed = (NowNanos() - start) / 1e9;
  const std::string stats_end = w.StatsJson();
  const BackgroundListener::Totals bg_end = bg ? bg->Snapshot() : BackgroundListener::Totals();

  ClientStats total;
  for (ClientStats& s : stats) {
    for (int k = 0; k < kNumOpKinds; k++) {
      total.ops[k].Merge(s.ops[k]);
    }
    total.attempted += s.attempted;
    total.failed += s.failed;
    total.wrong += s.wrong;
    total.user_writes += s.user_writes;
    total.increments += s.increments;
    total.perf.Merge(s.perf);
    for (std::string& e : s.errors) {
      if (total.errors.size() < 8) {
        total.errors.push_back(std::move(e));
      }
    }
  }

  j->Begin();
  j->Bool("traced", traced);
  j->Num("elapsed_s", elapsed);
  j->Int("attempted", total.attempted);
  j->Int("failed", total.failed);
  j->Int("wrong", total.wrong);
  j->Int("user_writes", total.user_writes);
  j->Int("increments", total.increments);
  j->Begin("ops");
  LatencyHistogram all;
  for (int k = 0; k < kNumOpKinds; k++) {
    if (total.ops[k].Count() > 0) {
      WriteLatency(j, OpName(k), total.ops[k]);
      if (k != kOpPing) {
        all.Merge(total.ops[k]);
      }
    }
  }
  j->End();
  WriteLatency(j, "all", all);
  j->Begin("samples");
  for (const auto& [key, series] : {std::pair{"rss_kib", &rss_kib},
                                    std::pair{"table_bytes", &table_bytes},
                                    std::pair{"live_keys", &live_keys}}) {
    j->BeginArray(key);
    for (uint64_t v : *series) {
      j->Int(nullptr, v);
    }
    j->EndArray();
  }
  j->End();

  ClientStats checks;  // the closing checks: traced extras and the audit
  if (traced) {
    WriteBackground(j, bg_begin, bg_end);
    WritePerf(j, total.perf);
    SpanLog extras(kClients + 1, kKeptSpansPerClient);
    j->Begin("extras");
    w.TracedExtras(j, &extras, &checks);
    j->End();
    std::vector<const SpanLog*> logs = {&extras};
    for (const ClientStats& s : stats) {
      logs.push_back(s.spans.get());
    }
    std::map<std::string, std::pair<uint64_t, uint64_t>> sums;  // name -> count, ns
    for (const SpanLog* log : logs) {
      for (const SpanLog::Total& t : log->totals()) {
        sums[t.name].first += t.count;
        sums[t.name].second += t.sum_ns;
      }
      AppendTraceEvents(*log, events);
    }
    j->Begin("spans");
    for (const auto& [name, sum] : sums) {
      j->Begin(name.c_str());
      j->Int("count", sum.first);
      j->Int("sum_ns", sum.second);
      j->End();
    }
    j->End();
  }
  w.EndPhase();

  const uint64_t t_quiesce = NowNanos();
  Check(w.Quiesce(), "reopening the store");
  j->Num("quiesce_s", (NowNanos() - t_quiesce) / 1e9);
  const std::string stats_reopen = w.StatsJson();
  const uint64_t t_audit = NowNanos();
  w.Audit(total.increments, &checks);
  j->Num("audit_s", (NowNanos() - t_audit) / 1e9);
  j->Int("live_keys", w.LiveKeys());
  j->Begin("audit");
  j->Int("checked", checks.attempted);
  j->Int("failed", checks.failed);
  j->Int("wrong", checks.wrong);
  j->End();
  j->BeginArray("errors");
  for (const std::string& e : total.errors) {
    j->Str(nullptr, e);
  }
  for (const std::string& e : checks.errors) {
    j->Str(nullptr, e);
  }
  j->EndArray();
  j->Raw("stats_begin", stats_begin);
  j->Raw("stats_end", stats_end);
  j->Raw("stats_reopen", stats_reopen);
  j->End();
}

void WriteTraceFile(const std::string& path, const std::string& client_events,
                    const clsm::TraceEventListener& ring) {
  // Splice the client spans into the engine's own trace_event document so
  // both share one timeline (same clock, same file format).
  std::string doc = ring.DumpChromeTrace();
  const std::string marker = "\"traceEvents\":[";
  const size_t at = doc.find(marker);
  if (at == std::string::npos) {
    Die("unexpected trace document from TraceEventListener");
  }
  const size_t insert = at + marker.size();
  std::string spliced = client_events;
  if (!client_events.empty() && doc[insert] != ']') {
    spliced += ',';
  }
  doc.insert(insert, spliced);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << doc;
  if (!out) {
    Die("cannot write " + path);
  }
}

int Main(int argc, char** argv) {
  const Args a = ParseArgs(argc, argv);
  std::unique_ptr<Workload> w = Workload::Make(a.workload, a.seed);
  if (w == nullptr) {
    Die("unknown workload " + a.workload);
  }
  Json j;
  j.Begin();
  j.Str("workload", a.workload);
  j.Int("seed", a.seed);
  j.Num("seconds", a.seconds);
  j.Bool("trace", a.trace);
  j.Raw("build", BuildFactsJson());

  const clsm::Options untraced;  // engine defaults
  j.BeginArray("setup_s");
  double setup_total = 0;
  for (int i = 0; i < (a.trace ? 1 : kMaxSetups); i++) {
    if (i >= kMinSetups && setup_total >= kMinSetupSeconds) {
      break;
    }
    const uint64_t t0 = NowNanos();
    Check(w->Setup(a.dir, untraced), "setting up the store");
    const double s = (NowNanos() - t0) / 1e9;
    setup_total += s;
    j.Num(nullptr, s);
  }
  j.EndArray();

  j.BeginArray("phases");
  std::string events;
  RunPhase(*w, a, /*traced=*/false, nullptr, nullptr, &j, &events);
  auto ring = std::make_shared<clsm::TraceEventListener>();
  if (a.trace) {
    auto bg = std::make_shared<BackgroundListener>();
    clsm::Options traced;
    traced.perf_level = clsm::PerfLevel::kEnableTimers;
    traced.listeners = {bg, ring};
    Check(w->Setup(a.dir, traced), "setting up the traced store");
    RunPhase(*w, a, /*traced=*/true, bg.get(), ring, &j, &events);
  }
  j.EndArray();
  w->Close();
  if (a.trace && !a.trace_file.empty()) {
    WriteTraceFile(a.trace_file, events, *ring);
    j.Str("trace_file", a.trace_file);
  }
  std::filesystem::remove_all(a.dir);
  j.Int("peak_rss_kib", PeakRssKib());
  j.End();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
