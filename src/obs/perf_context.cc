#include "src/obs/perf_context.h"

#include <cinttypes>
#include <cstdio>

namespace clsm {

const char* PerfLevelName(PerfLevel level) {
  switch (level) {
    case PerfLevel::kDisabled:
      return "off";
    case PerfLevel::kEnableCounts:
      return "counts";
    case PerfLevel::kEnableTimers:
      return "counts+timers";
  }
  return "unknown";
}

namespace {
void AppendU64(std::string* out, const char* key, uint64_t v, bool comma = true) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"%s\":%" PRIu64 "%s", key, v, comma ? "," : "");
  out->append(buf);
}
}  // namespace

std::string PerfContext::ToJson() const {
  // Schema documented in docs/TESTING.md ("clsm.perf.json"). All keys are
  // emitted at every level so consumers need no presence checks; fields a
  // level does not populate are 0.
  std::string out;
  out.reserve(768);
  out.push_back('{');
  out.append("\"level\":\"");
  out.append(PerfLevelName(level));
  out.append("\",\"counters\":{");
  AppendU64(&out, "skiplist_search_nodes", skiplist_search_nodes);
  AppendU64(&out, "memtable_probes", memtable_probes);
  out.append("\"table_reads_per_level\":[");
  for (int l = 0; l < kMaxLevels; l++) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "%s", table_reads_per_level[l],
                  l + 1 < kMaxLevels ? "," : "");
    out.append(buf);
  }
  out.append("],");
  AppendU64(&out, "index_seeks", index_seeks);
  AppendU64(&out, "block_reads", block_reads);
  AppendU64(&out, "block_read_bytes", block_read_bytes);
  AppendU64(&out, "block_cache_hits", block_cache_hits);
  AppendU64(&out, "bloom_useful", bloom_useful);
  AppendU64(&out, "bloom_false_positives", bloom_false_positives, /*comma=*/false);
  out.append("},\"timers_nanos\":{");
  AppendU64(&out, "total", total_nanos);
  AppendU64(&out, "throttle", throttle_nanos);
  AppendU64(&out, "memtable_roll_wait", memtable_roll_wait_nanos);
  AppendU64(&out, "write_delay", write_delay_nanos);
  AppendU64(&out, "lock_getts", lock_getts_nanos);
  AppendU64(&out, "shared_lock_wait", shared_lock_wait_nanos);
  AppendU64(&out, "mem_insert", mem_insert_nanos);
  AppendU64(&out, "wal_append", wal_append_nanos);
  AppendU64(&out, "mem_search", mem_search_nanos);
  AppendU64(&out, "disk_search", disk_search_nanos);
  AppendU64(&out, "filter_probe", filter_probe_nanos);
  AppendU64(&out, "index_seek", index_seek_nanos);
  AppendU64(&out, "block_read", block_read_nanos);
  AppendU64(&out, "crc_verify", crc_verify_nanos, /*comma=*/false);
  out.append("}}");
  return out;
}

}  // namespace clsm
