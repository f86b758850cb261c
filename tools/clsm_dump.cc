// clsm_dump: inspect a store directory — manifest state, level layout,
// SSTable contents, WAL records. Read-only; safe on a live copy.
//
//   clsm_dump <dbdir>                 overview: levels + files + stats
//   clsm_dump --table <file.sst>      dump one SSTable's entries
//   clsm_dump --wal <file.log>        dump one WAL file's records
//   clsm_dump --scan <dbdir>          full user-visible key dump
//   clsm_dump --stats <dbdir>         level summary + clsm.stats.json
//   clsm_dump --perf <dbdir>          probe reads with full attribution
//   clsm_dump --trace <file.trace>    op mix / key skew / latency summary
//   clsm_dump --watch SEC HOST:PORT   live delta lines from a running
//                                     process's admin server (GET /stats)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>

#include "src/core/clsm_db.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/filename.h"
#include "src/lsm/repair.h"
#include "src/lsm/storage_engine.h"
#include "src/obs/op_trace.h"
#include "src/obs/perf_context.h"
#include "src/obs/stats_reporter.h"
#include "src/server/http_client.h"
#include "src/table/table.h"
#include "src/util/env.h"
#include "src/wal/log_reader.h"

namespace clsm {
namespace {

void PrintInternalEntry(const Slice& ikey, const Slice& value) {
  ParsedInternalKey parsed;
  if (!ParseInternalKey(ikey, &parsed)) {
    printf("  <corrupt internal key, %zu bytes>\n", ikey.size());
    return;
  }
  printf("  '%s' @ ts=%llu : %s%.*s%s\n", parsed.user_key.ToString().c_str(),
         static_cast<unsigned long long>(parsed.sequence),
         parsed.type == kTypeDeletion ? "<deleted>" : "'",
         parsed.type == kTypeDeletion ? 0 : static_cast<int>(std::min<size_t>(value.size(), 60)),
         value.data(), parsed.type == kTypeDeletion ? "" : "'");
}

int DumpTable(const char* fname) {
  Env* env = Env::Default();
  uint64_t file_size = 0;
  Status s = env->GetFileSize(fname, &file_size);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<RandomAccessFile> file;
  s = env->NewRandomAccessFile(fname, &file);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  Options options;
  InternalKeyComparator icmp(BytewiseComparator());
  BlockCache block_cache(0);
  Table* table = nullptr;
  s = Table::Open(options, &icmp, nullptr, &block_cache, std::move(file), file_size, &table);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<Table> owned(table);
  printf("table %s (%llu bytes):\n", fname, static_cast<unsigned long long>(file_size));
  ReadOptions ro;
  std::unique_ptr<Iterator> iter(table->NewIterator(ro));
  uint64_t n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    PrintInternalEntry(iter->key(), iter->value());
    n++;
  }
  printf("%llu entries\n", static_cast<unsigned long long>(n));
  return iter->status().ok() ? 0 : 1;
}

int DumpWal(const char* fname) {
  Env* env = Env::Default();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  struct StderrReporter : public log::Reader::Reporter {
    void Corruption(size_t bytes, const Status& status) override {
      fprintf(stderr, "  corruption: %zu bytes dropped: %s\n", bytes, status.ToString().c_str());
    }
  };
  StderrReporter reporter;
  log::Reader reader(file.get(), &reporter, true, 0);
  printf("wal %s:\n", fname);
  Slice record;
  std::string scratch;
  uint64_t n = 0;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.empty()) {
      printf("  <sync barrier>\n");
      continue;
    }
    Slice rest = record;
    int ops_in_record = 0;
    while (!rest.empty()) {
      SequenceNumber seq;
      ValueType type;
      Slice key, value;
      if (!DecodeWalOpFrom(&rest, &seq, &type, &key, &value)) {
        printf("  <unparseable record tail, %zu bytes>\n", rest.size());
        break;
      }
      printf("  ts=%llu %s '%s'%s%.*s%s%s\n", static_cast<unsigned long long>(seq),
             type == kTypeDeletion ? "del" : "put", key.ToString().c_str(),
             type == kTypeDeletion ? "" : " = '",
             type == kTypeDeletion ? 0 : static_cast<int>(std::min<size_t>(value.size(), 60)),
             value.data(), type == kTypeDeletion ? "" : "'",
             ops_in_record > 0 ? "  (batch)" : "");
      ops_in_record++;
    }
    n++;
  }
  printf("%llu records\n", static_cast<unsigned long long>(n));
  return 0;
}

int DumpOverview(const char* dbdir) {
  Env* env = Env::Default();
  std::vector<std::string> children;
  Status s = env->GetChildren(dbdir, &children);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  printf("store directory %s:\n", dbdir);
  uint64_t tables = 0, logs = 0, bytes = 0;
  for (const std::string& f : children) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(f, &number, &type)) {
      continue;
    }
    uint64_t size = 0;
    env->GetFileSize(std::string(dbdir) + "/" + f, &size);
    bytes += size;
    const char* kind = "?";
    switch (type) {
      case kLogFile:
        kind = "wal";
        logs++;
        break;
      case kTableFile:
        kind = "sst";
        tables++;
        break;
      case kDescriptorFile:
        kind = "manifest";
        break;
      case kCurrentFile:
        kind = "current";
        break;
      case kDBLockFile:
        kind = "lock";
        break;
      case kTempFile:
        kind = "temp";
        break;
    }
    printf("  %-24s %-9s %10llu bytes\n", f.c_str(), kind,
           static_cast<unsigned long long>(size));
  }
  printf("totals: %llu tables, %llu wals, %llu bytes\n\n",
         static_cast<unsigned long long>(tables), static_cast<unsigned long long>(logs),
         static_cast<unsigned long long>(bytes));

  // Open read-only-ish (recovers) for the level summary.
  Options options;
  options.create_if_missing = false;
  DB* raw = nullptr;
  s = ClsmDb::Open(options, dbdir, &raw);
  if (!s.ok()) {
    fprintf(stderr, "open for level summary failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> db(raw);
  printf("levels: %s\n", db->GetProperty("clsm.levels").c_str());
  printf("last timestamp: %s\n", db->GetProperty("clsm.last-ts").c_str());
  return 0;
}

int ScanAll(const char* dbdir) {
  Options options;
  options.create_if_missing = false;
  DB* raw = nullptr;
  Status s = ClsmDb::Open(options, dbdir, &raw);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> db(raw);
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  uint64_t n = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
    printf("'%s' = '%.*s'\n", iter->key().ToString().c_str(),
           static_cast<int>(std::min<size_t>(iter->value().size(), 100)), iter->value().data());
    n++;
  }
  fprintf(stderr, "%llu live keys\n", static_cast<unsigned long long>(n));
  return 0;
}

// Recovers the store (read-only-ish, like DumpOverview) and prints the
// level summary plus the clsm.stats.json snapshot — counters are near
// zero on a freshly opened store, but the level layout, file counts and
// write-amp gauges reflect the on-disk state.
int DumpStats(const char* dbdir) {
  Options options;
  options.create_if_missing = false;
  DB* raw = nullptr;
  Status s = ClsmDb::Open(options, dbdir, &raw);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> db(raw);
  printf("levels: %s\n", db->GetProperty("clsm.levels").c_str());
  printf("--- clsm.stats.json ---\n%s\n", db->GetProperty("clsm.stats.json").c_str());
  return 0;
}

// Opens the store with perf_level=counts+timers and issues two probe reads
// — the first live key (a hit) and a key that cannot exist (a miss) —
// printing the full PerfContext JSON after each. Shows, per level, where a
// read on this store's current shape actually spends its time.
int DumpPerf(const char* dbdir) {
  Options options;
  options.create_if_missing = false;
  options.perf_level = PerfLevel::kEnableTimers;
  DB* raw = nullptr;
  Status s = ClsmDb::Open(options, dbdir, &raw);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> db(raw);

  std::string first_key;
  {
    std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
    iter->SeekToFirst();
    if (iter->Valid()) {
      first_key = iter->key().ToString();
    }
  }
  std::string value;
  if (!first_key.empty()) {
    s = db->Get(ReadOptions(), first_key, &value);
    printf("--- get('%s') -> %s ---\n%s\n", first_key.c_str(), s.ToString().c_str(),
           db->GetProperty("clsm.perf.json").c_str());
  } else {
    printf("store is empty; skipping hit probe\n");
  }
  s = db->Get(ReadOptions(), Slice("\xff\xff<clsm_dump-perf-probe>"), &value);
  printf("--- get(<missing key>) -> %s ---\n%s\n", s.ToString().c_str(),
         db->GetProperty("clsm.perf.json").c_str());
  return 0;
}

int DumpTraceSummary(const char* path) {
  TraceSummary summary;
  Status s = SummarizeTrace(Env::Default(), path, &summary);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  printf("%s", summary.ToString().c_str());
  return 0;
}

// Live mode: poll GET /stats on a running process's admin server every
// `period_sec` seconds and print the same interval delta lines the
// in-process StatsReporter logs. Ctrl-C to stop.
int Watch(unsigned period_sec, const char* target) {
  const char* colon = strrchr(target, ':');
  if (colon == nullptr || period_sec == 0) {
    fprintf(stderr, "usage: clsm_dump --watch SEC HOST:PORT\n");
    return 2;
  }
  const std::string host(target, colon - target);
  const int port = atoi(colon + 1);

  // Extract the db name for the line tag from the first snapshot.
  int http_status = 0;
  std::string body;
  Status s = HttpGet(host, port, "/stats", &http_status, &body);
  if (!s.ok()) {
    fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::string tag = "?";
  const size_t dbpos = body.find("\"db\":\"");
  if (dbpos != std::string::npos) {
    const size_t start = dbpos + 6;
    tag = body.substr(start, body.find('"', start) - start);
  }

  ReporterCounters prev = CountersFromStatsJson(body);
  auto prev_time = std::chrono::steady_clock::now();
  while (true) {
    std::this_thread::sleep_for(std::chrono::seconds(period_sec));
    s = HttpGet(host, port, "/stats", &http_status, &body);
    if (!s.ok()) {
      fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    if (http_status != 200) {
      fprintf(stderr, "GET /stats -> HTTP %d\n", http_status);
      return 1;
    }
    const ReporterCounters cur = CountersFromStatsJson(body);
    const auto now = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(now - prev_time).count();
    printf("%s\n", FormatReporterLine(tag, secs, cur, prev).c_str());
    fflush(stdout);
    prev = cur;
    prev_time = now;
  }
}

int Repair(const char* dbdir) {
  Options options;
  Status s = RepairDb(options, dbdir);
  if (!s.ok()) {
    fprintf(stderr, "repair failed: %s\n", s.ToString().c_str());
    return 1;
  }
  fprintf(stderr, "repair succeeded; verify with: clsm_dump %s\n", dbdir);
  return 0;
}

int Usage() {
  fprintf(stderr,
          "usage:\n"
          "  clsm_dump <dbdir>\n"
          "  clsm_dump --scan <dbdir>\n"
          "  clsm_dump --stats <dbdir>\n"
          "  clsm_dump --table <file.sst>\n"
          "  clsm_dump --wal <file.log>\n"
          "  clsm_dump --perf <dbdir>     (probe reads with attribution)\n"
          "  clsm_dump --trace <file>     (operation-trace summary)\n"
          "  clsm_dump --repair <dbdir>   (rebuild a lost/corrupt manifest)\n"
          "  clsm_dump --watch SEC HOST:PORT  (live deltas via the admin server)\n");
  return 2;
}

}  // namespace
}  // namespace clsm

int main(int argc, char** argv) {
  if (argc == 2) {
    return clsm::DumpOverview(argv[1]);
  }
  if (argc == 3 && strcmp(argv[1], "--table") == 0) {
    return clsm::DumpTable(argv[2]);
  }
  if (argc == 3 && strcmp(argv[1], "--wal") == 0) {
    return clsm::DumpWal(argv[2]);
  }
  if (argc == 3 && strcmp(argv[1], "--scan") == 0) {
    return clsm::ScanAll(argv[2]);
  }
  if (argc == 3 && strcmp(argv[1], "--stats") == 0) {
    return clsm::DumpStats(argv[2]);
  }
  if (argc == 3 && strcmp(argv[1], "--perf") == 0) {
    return clsm::DumpPerf(argv[2]);
  }
  if (argc == 3 && strcmp(argv[1], "--trace") == 0) {
    return clsm::DumpTraceSummary(argv[2]);
  }
  if (argc == 3 && strcmp(argv[1], "--repair") == 0) {
    return clsm::Repair(argv[2]);
  }
  if (argc == 4 && strcmp(argv[1], "--watch") == 0) {
    return clsm::Watch(static_cast<unsigned>(atoi(argv[2])), argv[3]);
  }
  return clsm::Usage();
}
