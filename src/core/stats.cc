#include "src/core/stats.h"

namespace clsm {

namespace {

// Indexed by DbCounter. The stats export emits these strings; renaming one
// is a breaking change for consumers.
constexpr const char* kDbCounterNames[] = {
    "gets_total", "gets_from_mem", "gets_from_imm", "gets_from_disk", "puts_total", "deletes_total",
    "batches_total", "rmw_total", "rmw_conflicts", "rmw_noop", "snapshots_acquired",
    "iterators_created", "getts_rollbacks", "memtable_rolls", "flushes", "throttle_waits",
    "slow_ops_total", "slow_ops_reported", "slow_ops_dropped", "stall_micros", "rate_limit_waits",
    "rate_limit_delay_micros",
};
static_assert(sizeof(kDbCounterNames) / sizeof(kDbCounterNames[0]) == kNumDbCounters,
              "one name per DbCounter");

}  // namespace

const char* DbCounterName(DbCounter c) { return kDbCounterNames[static_cast<int>(c)]; }

}  // namespace clsm
