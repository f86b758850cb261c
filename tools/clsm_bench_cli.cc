// clsm_bench: db_bench-style command-line workload runner. Runs any
// operation mix against any DB variant with any thread count — the manual
// companion to the per-figure binaries in bench/. Example (one command
// line):
//
//   clsm_bench --db=/tmp/x --variant=clsm --threads=8 --duration_ms=5000
//              --writes=0.5 --scans=0.05 --rmws=0.05 --dist=hotblock
//              --keys=1000000 --value_size=256 --preload=500000
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "src/baselines/factory.h"
#include "src/obs/op_trace.h"
#include "src/obs/slow_op.h"
#include "src/workload/driver.h"
#include "src/workload/generator.h"

using namespace clsm;

namespace {

struct Flags {
  std::string db = "/tmp/clsm-bench-cli";
  std::string variant = "clsm";
  std::string dist = "uniform";
  int threads = 4;
  int duration_ms = 3000;
  double writes = 0.0;
  double scans = 0.0;
  double rmws = 0.0;
  uint64_t keys = 1'000'000;
  uint64_t preload = 200'000;
  size_t key_size = 8;
  size_t value_size = 256;
  size_t write_buffer = 8 << 20;
  bool fresh = true;
  bool stats = false;
  double zipf_theta = 0.99;
  std::string perf_level;      // ""|off|counts|timers
  std::string trace;           // record every op to this file (clsm_trace input)
  std::string slow_log;        // slow-op JSONL sink path
  uint64_t slow_us = 0;        // slow-op threshold (0 = off)
  int admin_port = -1;         // admin HTTP server (-1 off, 0 ephemeral)
};

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  std::string prefix = std::string("--") + name + "=";
  if (strncmp(arg, prefix.c_str(), prefix.size()) == 0) {
    *out = arg + prefix.size();
    return true;
  }
  return false;
}

int Usage() {
  fprintf(stderr,
          "flags: --db=PATH --variant=clsm|leveldb|hyperleveldb|rocksdb|blsm|striped-rmw\n"
          "       --threads=N --duration_ms=N --writes=F --scans=F --rmws=F\n"
          "       --dist=uniform|hotblock|zipfian --zipf_theta=F\n"
          "       --keys=N --preload=N --key_size=N --value_size=N\n"
          "       --write_buffer=BYTES --keep (reuse existing db) --stats\n"
          "       --perf_level=off|counts|timers (clsm.perf.json of a probe read)\n"
          "       --trace=PATH (record every op; replay with clsm_trace)\n"
          "       --slow_us=N --slow_log=PATH (slow-op JSONL records)\n"
          "       --admin_port=N (admin HTTP server; 0 = ephemeral, prints the port)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; i++) {
    std::string v;
    if (ParseFlag(argv[i], "db", &v)) {
      flags.db = v;
    } else if (ParseFlag(argv[i], "variant", &v)) {
      flags.variant = v;
    } else if (ParseFlag(argv[i], "dist", &v)) {
      flags.dist = v;
    } else if (ParseFlag(argv[i], "threads", &v)) {
      flags.threads = atoi(v.c_str());
    } else if (ParseFlag(argv[i], "duration_ms", &v)) {
      flags.duration_ms = atoi(v.c_str());
    } else if (ParseFlag(argv[i], "writes", &v)) {
      flags.writes = atof(v.c_str());
    } else if (ParseFlag(argv[i], "scans", &v)) {
      flags.scans = atof(v.c_str());
    } else if (ParseFlag(argv[i], "rmws", &v)) {
      flags.rmws = atof(v.c_str());
    } else if (ParseFlag(argv[i], "keys", &v)) {
      flags.keys = strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "preload", &v)) {
      flags.preload = strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "key_size", &v)) {
      flags.key_size = atoi(v.c_str());
    } else if (ParseFlag(argv[i], "value_size", &v)) {
      flags.value_size = atoi(v.c_str());
    } else if (ParseFlag(argv[i], "write_buffer", &v)) {
      flags.write_buffer = strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "zipf_theta", &v)) {
      flags.zipf_theta = atof(v.c_str());
    } else if (ParseFlag(argv[i], "perf_level", &v)) {
      flags.perf_level = v;
    } else if (ParseFlag(argv[i], "trace", &v)) {
      flags.trace = v;
    } else if (ParseFlag(argv[i], "slow_log", &v)) {
      flags.slow_log = v;
    } else if (ParseFlag(argv[i], "slow_us", &v)) {
      flags.slow_us = strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "admin_port", &v)) {
      flags.admin_port = atoi(v.c_str());
    } else if (strcmp(argv[i], "--keep") == 0) {
      flags.fresh = false;
    } else if (strcmp(argv[i], "--stats") == 0) {
      flags.stats = true;
    } else {
      fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return Usage();
    }
  }

  DbVariant variant;
  if (!ParseVariant(flags.variant, &variant)) {
    fprintf(stderr, "unknown variant: %s\n", flags.variant.c_str());
    return Usage();
  }

  if (flags.fresh) {
    std::string cmd = "rm -rf " + flags.db;
    int rc = system(cmd.c_str());
    (void)rc;
  }

  Options options;
  options.write_buffer_size = flags.write_buffer;
  if (flags.perf_level == "counts") {
    options.perf_level = PerfLevel::kEnableCounts;
  } else if (flags.perf_level == "timers" || flags.perf_level == "counts+timers") {
    options.perf_level = PerfLevel::kEnableTimers;
  } else if (!flags.perf_level.empty() && flags.perf_level != "off") {
    fprintf(stderr, "unknown perf level: %s\n", flags.perf_level.c_str());
    return Usage();
  }
  std::shared_ptr<TraceWriter> tracer;
  if (!flags.trace.empty()) {
    tracer = std::make_shared<TraceWriter>(flags.trace);
    options.listeners.push_back(tracer);
  }
  std::shared_ptr<SlowOpJsonlSink> slow_sink;
  if (flags.slow_us > 0) {
    options.slow_op_threshold_micros = flags.slow_us;
    if (!flags.slow_log.empty()) {
      slow_sink = std::make_shared<SlowOpJsonlSink>(flags.slow_log);
      options.listeners.push_back(slow_sink);
    }
  }
  options.admin_port = flags.admin_port;
  DB* raw = nullptr;
  Status s = OpenDb(variant, options, flags.db, &raw);
  if (!s.ok()) {
    fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> db(raw);
  if (flags.admin_port >= 0) {
    // Machine-readable so CI can scrape an ephemeral (--admin_port=0) bind.
    fprintf(stderr, "admin_port=%s\n", db->GetProperty("clsm.admin-port").c_str());
    fflush(stderr);
  }

  if (flags.preload > 0 && flags.fresh) {
    fprintf(stderr, "preloading %llu keys...\n",
            static_cast<unsigned long long>(flags.preload));
    s = LoadKeySpace(db.get(), flags.preload, flags.key_size, flags.value_size);
    if (!s.ok()) {
      fprintf(stderr, "preload: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  WorkloadSpec spec;
  spec.write_fraction = flags.writes;
  spec.scan_fraction = flags.scans;
  spec.rmw_fraction = flags.rmws;
  spec.num_keys = flags.keys;
  spec.key_size = flags.key_size;
  spec.value_size = flags.value_size;
  spec.zipf_theta = flags.zipf_theta;
  if (flags.dist == "hotblock") {
    spec.distribution = KeyDist::kHotBlock;
  } else if (flags.dist == "zipfian") {
    spec.distribution = KeyDist::kZipfian;
  } else {
    spec.distribution = KeyDist::kUniform;
  }

  fprintf(stderr, "running %s: %d threads, %d ms...\n", flags.variant.c_str(), flags.threads,
          flags.duration_ms);
  DriverResult result = RunWorkload(db.get(), spec, flags.threads, flags.duration_ms);

  printf("%s  threads=%d  %s\n", flags.variant.c_str(), flags.threads,
         result.Summary().c_str());
  printf("ops: reads=%llu writes=%llu scans=%llu rmws=%llu\n",
         static_cast<unsigned long long>(result.reads),
         static_cast<unsigned long long>(result.writes),
         static_cast<unsigned long long>(result.scans),
         static_cast<unsigned long long>(result.rmws));
  db->WaitForMaintenance();
  if (tracer != nullptr) {
    Status ts = tracer->Finish();
    std::string suffix = ts.ok() ? "" : " (" + ts.ToString() + ")";
    fprintf(stderr, "trace: %llu records -> %s%s\n",
            static_cast<unsigned long long>(tracer->records_written()), flags.trace.c_str(),
            suffix.c_str());
  }
  if (slow_sink != nullptr) {
    fprintf(stderr, "slow ops: %llu records -> %s\n",
            static_cast<unsigned long long>(slow_sink->lines_written()),
            flags.slow_log.c_str());
  }
  if (flags.stats) {
    printf("levels: %s\n", db->GetProperty("clsm.levels").c_str());
    printf("--- stats json ---\n%s\n", db->GetProperty("clsm.stats.json").c_str());
  }
  if (options.perf_level != PerfLevel::kDisabled) {
    // PerfContext is thread-local; the workers' contexts died with them, so
    // issue one attributed probe read from this thread.
    std::string probe_key, value;
    EncodeWorkloadKey(0, flags.key_size, &probe_key);
    db->Get(ReadOptions(), probe_key, &value);
    printf("--- perf json (probe read) ---\n%s\n",
           db->GetProperty("clsm.perf.json").c_str());
  }
  return 0;
}
