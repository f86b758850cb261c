// Structured stats export: ONE traversal of a DB's observability state
// (counters, stall/controller gauges, latency histograms, per-level
// gauges, errors, thread slots, process telemetry) drives every renderer
// through the StatsVisitor interface:
//
//  * BuildStatsJson        — the machine-readable snapshot behind
//                            GetProperty("clsm.stats.json"), identical
//                            schema for ClsmDb AND the baseline variants
//                            (schema documented in docs/TESTING.md);
//  * BuildStatsPrometheus  — Prometheus text exposition format 0.0.4 for
//                            the admin server's GET /metrics (sanitized
//                            clsm_* names, {db=...,level=...,op=...}
//                            labels, latency histograms as cumulative
//                            _bucket/_sum/_count series).
//
// Adding a metric to the traversal (VisitStats) lands it in both outputs;
// renderers cannot drift apart.
#ifndef CLSM_OBS_STATS_EXPORT_H_
#define CLSM_OBS_STATS_EXPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/stats.h"
#include "src/obs/metrics.h"

namespace clsm {

class ActiveTimestampSet;
class Histogram;
class RpcServerStats;
class StorageEngine;
class WriteThrottle;

struct StatsJsonSource {
  const char* db = "?";                  // variant name (DB::Name())
  const DbStats* counters = nullptr;     // operation counters (required)
  const StatsRegistry* registry = nullptr;  // latency histograms (optional)
  StorageEngine* engine = nullptr;       // per-level gauges + compaction stats
  // Active-set slot gauges (cLSM only; the engine's epoch gauges are taken
  // from `engine` directly). Adds the "thread_slots" block when non-null.
  const ActiveTimestampSet* active_set = nullptr;
  // Write admission gate; adds the "write_controller" block when non-null.
  const WriteThrottle* throttle = nullptr;
  // Serving-tier metrics (KvService attaches one after open); adds the
  // "rpc" block / clsm_rpc_* families when non-null.
  const RpcServerStats* rpc = nullptr;
};

// Receives one stats snapshot as a stream of scoped, typed scalar events.
// Group scopes nest ("thread_slots" > "active_set"); the level-array scope
// repeats one set of names once per LSM level. The Counter/Gauge split is
// semantic (counters are monotone modulo explicit resets) — JSON renders
// both alike, Prometheus types them.
class StatsVisitor {
 public:
  virtual ~StatsVisitor() = default;

  virtual void BeginSnapshot(const char* db) = 0;
  virtual void EndSnapshot() = 0;

  virtual void BeginGroup(const char* name) = 0;
  virtual void EndGroup() = 0;

  // Per-level repetition: the array brackets the whole series, Begin/
  // EndLevel bracket one level's scalars.
  virtual void BeginLevelArray(const char* name) = 0;
  virtual void BeginLevel(int level) = 0;
  virtual void EndLevel() = 0;
  virtual void EndLevelArray() = 0;

  // Labeled repetition: brackets one member of a family whose instances
  // differ by a label value rather than a level index (per-opcode RPC
  // series: BeginSeries("op", "get") ... EndSeries()). The default maps a
  // series onto a group keyed by its value, which is exactly what the
  // JSON renderer and the path-keyed rollup visitors want; the Prometheus
  // renderer overrides it to emit `label="value"` pairs instead of a name
  // segment. Values are identifier-safe literals, like Text().
  virtual void BeginSeries(const char* label, const char* value) {
    (void)label;
    BeginGroup(value);
  }
  virtual void EndSeries() { EndGroup(); }

  virtual void Counter(const char* name, uint64_t v) = 0;
  virtual void GaugeU64(const char* name, uint64_t v) = 0;
  virtual void GaugeI64(const char* name, int64_t v) = 0;
  virtual void GaugeF64(const char* name, double v) = 0;
  // Short enum-name string (mode, severity): identifier-safe literals
  // only, never free text (neither renderer escapes beyond label rules).
  virtual void Text(const char* name, const char* value) = 0;
  // One latency series, nanosecond domain, aggregated across shards.
  virtual void LatencyHistogram(const char* name, const Histogram& h) = 0;
};

// Walks src and emits every metric of the snapshot into visitor — the one
// place that knows the full schema:
// {
//   "db": "clsm",
//   "counters": { "compactions": N,                  // CompactionStats total
//                 "gets_total": N, ... },            // DbCounter, by DbCounterName
//   "stall": {"stall_micros":N,"rate_limit_waits":N,"rate_limit_delay_micros":N},
//   "write_controller": {"rate_bytes_per_sec":N,
//                        "effective_max_bytes_per_sec":N,
//                        "drain_rate_bytes_per_sec":N,
//                        "debt":D,"tokens":N,"delayed_writers":N,
//                        "delays_total":N,"delay_micros_total":N,
//                        "rate_updates":N,"safety_valve_engagements":N,
//                        "l0_hard_stop":N},
//   "latency_us": { "put": {"count":N,"avg":..,"p50":..,"p95":..,"p99":..,
//                           "p999":..,"max":..}, ... },
//   "levels": [ {"level":0,"files":N,"bytes":N,"score":S,"compactions":N,
//                "bytes_read":N,"bytes_written":N,"micros":N}, ... ],
//   "flush": {"count":N,"bytes_written":N,"micros":N},
//   "write_amp": W,
//   "errors": {"bg_severity":"none|soft|hard|fatal","bg_severity_code":0-3,
//              "file_cleanup_failures":N,"wal_recovery_drops":N},
//   "thread_slots": {                                  // slot-registry health
//     "active_set": {"in_use":N,"high_water":N,"reclaims":N,"overflow_ops":N},
//     "epoch": { ... same gauges ... }                 // engine's EpochManager
//   },
//   "rpc": {                                           // when src.rpc != nullptr
//     "requests_total":N,"bytes_in_total":N,"bytes_out_total":N,
//     "errors_total":N,"sheds_total":N,"connections_total":N,
//     "in_flight":N,"connections_active":N,
//     "slow_requests_total":N,"slow_requests_reported":N,
//     "slow_requests_suppressed":N,"trace_spans_total":N,
//     "trace_sample_rate":F,
//     "op": { "get": {"requests_total":N,"bytes_in":N,"bytes_out":N,
//                     "responses":{"ok":{"total":N},"not_found":{"total":N},
//                                  "error":{"total":N},"bad_request":{"total":N}}},
//             ... one per opcode ... },
//     "latency_us": { "get": {...percentiles...}, ... } },
//   "process": {"uptime_seconds":S,"rss_bytes":N,"vm_bytes":N,
//               "open_fds":N,"threads":N}              // always present
// }
void VisitStats(const StatsJsonSource& src, StatsVisitor* visitor);

// Renders the snapshot above as JSON.
std::string BuildStatsJson(const StatsJsonSource& src);

// Renders the same traversal in Prometheus text exposition format 0.0.4:
// each scalar becomes `clsm_<group...>_<name>{db="..."}` (the "counters"
// group is flattened away; a name already starting with its group is not
// doubled), per-level gauges get a {level="N"} label, and every latency
// series joins the `clsm_op_latency_seconds{op="..."}` histogram family as
// cumulative _bucket/_sum/_count samples (seconds; only buckets with
// occupancy are listed plus the mandatory +Inf, so cumulative counts stay
// strictly informative and monotone).
std::string BuildStatsPrometheus(const StatsJsonSource& src);

// Cross-shard rollup (src/shard/sharded_clsm.h): one document for N
// member instances, rendered as
//   {"db":<db>,"shard_count":N,
//    "rollup":{...the clsm.stats.json schema, aggregated...},
//    "shards":[{...shard 0's clsm.stats.json...}, ...]}
// Aggregation is per metric path: counters and integer gauges sum (but
// errors.bg_severity_code takes the worst member's code), float gauges
// average, enum-text fields keep their common value (or "mixed"),
// latency histograms merge bucket-by-bucket — so rollup percentiles are
// true cross-shard percentiles, not averages of percentiles. The "process"
// block describes the one shared process, so it is carried through rather
// than multiplied by the shard count. `rpc` (optional) is the serving
// tier's accumulator — one KvService fronts every shard, so the "rpc"
// block renders once at the wrapper level, not per shard.
std::string BuildStatsJsonSharded(const char* db, const std::vector<StatsJsonSource>& shards,
                                  const RpcServerStats* rpc = nullptr);

// The same N instances as one Prometheus exposition: every family is
// declared once and carries a shard="i" label next to db="..."; histogram
// series stay coherent per (labels minus le). Scrapers aggregate across
// shards with sum by (…) — and can spot one hot shard, which a pre-summed
// exposition would hide. The clsm_rpc_* families (when `rpc` is non-null)
// carry no shard label: the serving tier is shared.
std::string BuildStatsPrometheusSharded(const char* db,
                                        const std::vector<StatsJsonSource>& shards,
                                        const RpcServerStats* rpc = nullptr);

// Exposed for tests (prometheus_format_test) and other exporters.
// Sanitize an arbitrary string into a legal metric name fragment
// ([a-zA-Z_:][a-zA-Z0-9_:]*): illegal characters become '_', a leading
// digit gains a '_' prefix.
std::string PrometheusSanitizeName(const std::string& name);
// Escape a label value per the exposition format: backslash, double quote
// and newline.
std::string PrometheusEscapeLabel(const std::string& value);

}  // namespace clsm

#endif  // CLSM_OBS_STATS_EXPORT_H_
