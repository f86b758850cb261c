#include "src/core/stats.h"

#include <cstdio>

namespace clsm {

std::string CompactionStats::ToString() const {
  std::string out;
  char buf[256];
  for (int l = 0; l < kMaxLevels; l++) {
    const LevelStats& ls = levels_[l];
    const uint64_t n = ls.compactions.load(std::memory_order_relaxed);
    if (n == 0) {
      continue;
    }
    std::snprintf(buf, sizeof(buf),
                  "compact L%d: count=%llu moves=%llu read=%llu written=%llu micros=%llu "
                  "sync_micros=%llu\n",
                  l, static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(ls.trivial_moves.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(ls.bytes_read.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(ls.bytes_written.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(ls.micros.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(ls.sync_micros.load(std::memory_order_relaxed)));
    out.append(buf);
  }
  if (out.empty()) {
    out = "compact: none\n";
  }
  const uint64_t flushes = flush_count.load(std::memory_order_relaxed);
  if (flushes > 0) {
    std::snprintf(buf, sizeof(buf),
                  "flush: count=%llu written=%llu micros=%llu sync_micros=%llu write_amp=%.2f\n",
                  static_cast<unsigned long long>(flushes),
                  static_cast<unsigned long long>(flush_bytes_written.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(flush_micros.load(std::memory_order_relaxed)),
                  static_cast<unsigned long long>(
                      flush_sync_micros.load(std::memory_order_relaxed)),
                  EstimatedWriteAmp());
    out.append(buf);
  }
  return out;
}

std::string DbStats::ToString() const {
  char buf[1280];
  std::snprintf(
      buf, sizeof(buf),
      "gets: total=%llu mem=%llu imm=%llu disk=%llu\n"
      "writes: puts=%llu deletes=%llu batches=%llu\n"
      "rmw: total=%llu conflicts=%llu noop=%llu\n"
      "snapshots: acquired=%llu iterators=%llu getts_rollbacks=%llu\n"
      "maintenance: rolls=%llu flushes=%llu compactions=%llu throttle_waits=%llu\n"
      "stalls: stall_micros=%llu rate_limit_waits=%llu rate_limit_delay_micros=%llu\n"
      "slow_ops: total=%llu reported=%llu dropped=%llu\n",
      static_cast<unsigned long long>(gets_total.load()),
      static_cast<unsigned long long>(gets_from_mem.load()),
      static_cast<unsigned long long>(gets_from_imm.load()),
      static_cast<unsigned long long>(gets_from_disk.load()),
      static_cast<unsigned long long>(puts_total.load()),
      static_cast<unsigned long long>(deletes_total.load()),
      static_cast<unsigned long long>(batches_total.load()),
      static_cast<unsigned long long>(rmw_total.load()),
      static_cast<unsigned long long>(rmw_conflicts.load()),
      static_cast<unsigned long long>(rmw_noop.load()),
      static_cast<unsigned long long>(snapshots_acquired.load()),
      static_cast<unsigned long long>(iterators_created.load()),
      static_cast<unsigned long long>(getts_rollbacks.load()),
      static_cast<unsigned long long>(memtable_rolls.load()),
      static_cast<unsigned long long>(flushes.load()),
      static_cast<unsigned long long>(compactions.load()),
      static_cast<unsigned long long>(throttle_waits.load()),
      static_cast<unsigned long long>(stall_micros.load()),
      static_cast<unsigned long long>(rate_limit_waits.load()),
      static_cast<unsigned long long>(rate_limit_delay_micros.load()),
      static_cast<unsigned long long>(slow_ops_total.load()),
      static_cast<unsigned long long>(slow_ops_reported.load()),
      static_cast<unsigned long long>(slow_ops_dropped.load()));
  return buf;
}

void DbStats::Reset() {
  for (std::atomic<uint64_t>* c :
       {&gets_total, &gets_from_mem, &gets_from_imm, &gets_from_disk, &puts_total,
        &deletes_total, &batches_total, &rmw_total, &rmw_conflicts, &rmw_noop,
        &snapshots_acquired, &iterators_created, &getts_rollbacks, &memtable_rolls, &flushes,
        &compactions, &throttle_waits, &stall_micros,
        &rate_limit_waits, &rate_limit_delay_micros, &slow_ops_total, &slow_ops_reported,
        &slow_ops_dropped}) {
    c->store(0, std::memory_order_relaxed);
  }
}

}  // namespace clsm
