#include "src/obs/stats_export.h"

#include <algorithm>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>
#include <vector>

#include "src/core/stats.h"
#include "src/lsm/bg_error.h"
#include "src/lsm/dbformat.h"
#include "src/lsm/storage_engine.h"
#include "src/lsm/version_set.h"
#include "src/lsm/write_controller.h"
#include "src/obs/event_listener.h"
#include "src/obs/metrics.h"
#include "src/obs/process_metrics.h"
#include "src/obs/rpc_stats.h"
#include "src/sync/active_set.h"
#include "src/sync/thread_slots.h"
#include "src/util/histogram.h"

namespace clsm {

namespace {

// Minimal append-only JSON builder (keys and names here are all
// JSON-safe literals, so no string escaping is needed).
class JsonOut {
 public:
  void U64(const char* key, uint64_t v) {
    Comma();
    Appendf("\"%s\":%" PRIu64, key, v);
  }
  void I64(const char* key, int64_t v) {
    Comma();
    Appendf("\"%s\":%" PRId64, key, v);
  }
  void F64(const char* key, double v) {
    Comma();
    Appendf("\"%s\":%.3f", key, v);
  }
  void Str(const char* key, const char* v) {
    Comma();
    Appendf("\"%s\":\"%s\"", key, v);
  }
  void BeginObject(const char* key = nullptr) {
    Comma();
    if (key != nullptr) {
      Appendf("\"%s\":", key);
    }
    out_ += '{';
    fresh_ = true;
  }
  void EndObject() {
    out_ += '}';
    fresh_ = false;
  }
  void BeginArray(const char* key) {
    Comma();
    Appendf("\"%s\":", key);
    out_ += '[';
    fresh_ = true;
  }
  void EndArray() {
    out_ += ']';
    fresh_ = false;
  }

  std::string Take() { return std::move(out_); }

 private:
  void Comma() {
    if (!fresh_ && !out_.empty()) {
      out_ += ',';
    }
    fresh_ = false;
  }
  void Appendf(const char* fmt, ...) __attribute__((format(printf, 2, 3))) {
    char buf[128];
    va_list ap;
    va_start(ap, fmt);
    vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    out_ += buf;
  }

  std::string out_;
  bool fresh_ = true;
};

// Renders the traversal as the clsm.stats.json document.
class JsonVisitor : public StatsVisitor {
 public:
  void BeginSnapshot(const char* db) override {
    j_.BeginObject();
    j_.Str("db", db);
  }
  void EndSnapshot() override { j_.EndObject(); }
  void BeginGroup(const char* name) override { j_.BeginObject(name); }
  void EndGroup() override { j_.EndObject(); }
  void BeginLevelArray(const char* name) override { j_.BeginArray(name); }
  void BeginLevel(int level) override {
    j_.BeginObject();
    j_.I64("level", level);
  }
  void EndLevel() override { j_.EndObject(); }
  void EndLevelArray() override { j_.EndArray(); }
  void Counter(const char* name, uint64_t v) override { j_.U64(name, v); }
  void GaugeU64(const char* name, uint64_t v) override { j_.U64(name, v); }
  void GaugeI64(const char* name, int64_t v) override { j_.I64(name, v); }
  void GaugeF64(const char* name, double v) override { j_.F64(name, v); }
  void Text(const char* name, const char* value) override { j_.Str(name, value); }
  void LatencyHistogram(const char* name, const Histogram& h) override {
    // Nanosecond domain, rendered as microseconds (the benches' unit).
    j_.BeginObject(name);
    j_.U64("count", static_cast<uint64_t>(h.Num()));
    if (h.Num() > 0) {
      j_.F64("avg", h.Average() / 1000.0);
      j_.F64("p50", h.Percentile(50) / 1000.0);
      j_.F64("p95", h.Percentile(95) / 1000.0);
      j_.F64("p99", h.Percentile(99) / 1000.0);
      j_.F64("p999", h.Percentile(99.9) / 1000.0);
      j_.F64("max", h.Max() / 1000.0);
    }
    j_.EndObject();
  }

  std::string Take() { return j_.Take(); }

 private:
  JsonOut j_;
};

// Renders the traversal as Prometheus text exposition format 0.0.4.
// Samples are buffered per metric family so repeated families (one sample
// per level, one histogram per op) come out contiguously under a single
// # TYPE line, as the format requires.
class PrometheusVisitor : public StatsVisitor {
 public:
  // When >= 0, every sample carries a shard="N" label (the sharded rollup
  // runs one visitor across all member traversals so each family is
  // declared exactly once).
  void set_shard(int shard) { shard_ = shard; }

  void BeginSnapshot(const char* db) override { db_label_ = PrometheusEscapeLabel(db); }
  void EndSnapshot() override {}
  void BeginGroup(const char* name) override { groups_.emplace_back(name); }
  void EndGroup() override { groups_.pop_back(); }
  void BeginLevelArray(const char* name) override {
    (void)name;
    groups_.emplace_back("level");
  }
  void BeginLevel(int level) override { level_ = level; }
  void EndLevel() override { level_ = -1; }
  void EndLevelArray() override { groups_.pop_back(); }
  // A series member contributes a label pair, not a name segment: the
  // per-opcode RPC counters come out as one family with {op="..."} (and
  // {status="..."}) labels instead of a family per opcode.
  void BeginSeries(const char* label, const char* value) override {
    series_.emplace_back(PrometheusSanitizeName(label), PrometheusEscapeLabel(value));
  }
  void EndSeries() override { series_.pop_back(); }

  void Counter(const char* name, uint64_t v) override { Scalar(name, "counter", U64(v)); }
  void GaugeU64(const char* name, uint64_t v) override { Scalar(name, "gauge", U64(v)); }
  void GaugeI64(const char* name, int64_t v) override {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    Scalar(name, "gauge", buf);
  }
  void GaugeF64(const char* name, double v) override { Scalar(name, "gauge", F64(v)); }
  void Text(const char* name, const char* value) override {
    // Info-style: the string rides as a label on a constant-1 gauge, e.g.
    // clsm_errors_bg_severity{db="clsm",bg_severity="none"} 1.
    std::string labels = BaseLabels();
    labels += ',';
    labels += PrometheusSanitizeName(name);
    labels += "=\"";
    labels += PrometheusEscapeLabel(value);
    labels += '"';
    Sample(FamilyName(name), "gauge", labels, "1");
  }

  void LatencyHistogram(const char* name, const Histogram& h) override {
    // One shared family, ops distinguished by label; nanoseconds become the
    // conventional base unit (seconds). Only occupied buckets are listed —
    // any le-subset of a cumulative histogram is valid — plus the mandatory
    // +Inf; cumulative counts are monotone by construction. Serving-tier
    // series (inside the "rpc" group) get their own family so engine-op
    // and RPC latencies never share one histogram.
    const std::string family = !groups_.empty() && groups_.front() == "rpc"
                                   ? "clsm_rpc_latency_seconds"
                                   : "clsm_op_latency_seconds";
    std::string labels = BaseLabels();
    labels += ",op=\"";
    labels += PrometheusEscapeLabel(name);
    labels += '"';
    uint64_t cum = 0;
    for (int b = 0; b < Histogram::kNumBuckets; b++) {
      const uint64_t n = static_cast<uint64_t>(h.BucketCount(b));
      if (n == 0) {
        continue;
      }
      cum += n;
      std::string le_labels = labels;
      le_labels += ",le=\"";
      le_labels += F64(Histogram::BucketLimit(b) / 1e9);
      le_labels += '"';
      Sample(family + "_bucket", "histogram", le_labels, U64(cum), family);
    }
    Sample(family + "_bucket", "histogram", labels + ",le=\"+Inf\"",
           U64(static_cast<uint64_t>(h.Num())), family);
    Sample(family + "_sum", "histogram", labels, F64(h.Sum() / 1e9), family);
    Sample(family + "_count", "histogram", labels, U64(static_cast<uint64_t>(h.Num())),
           family);
  }

  std::string Take() {
    std::string out;
    for (const std::string& family : family_order_) {
      Family& f = families_[family];
      out += "# TYPE ";
      out += family;
      out += ' ';
      out += f.type;
      out += '\n';
      for (const std::string& line : f.lines) {
        out += line;
      }
    }
    return out;
  }

 private:
  struct Family {
    std::string type;
    std::vector<std::string> lines;
  };

  static std::string U64(uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    return buf;
  }
  static std::string F64(double v) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
  }

  // clsm_<groups...>_<name>, flattening the "counters" group and skipping
  // a group segment the name already starts with ("stall"/"stall_micros"
  // renders as clsm_stall_micros, not clsm_stall_stall_micros).
  std::string FamilyName(const char* name) const {
    std::string out = "clsm";
    const std::string sane = PrometheusSanitizeName(name);
    for (const std::string& g : groups_) {
      if (g == "counters") {
        continue;
      }
      if (sane.compare(0, g.size(), g) == 0 &&
          (sane.size() == g.size() || sane[g.size()] == '_')) {
        continue;
      }
      out += '_';
      out += PrometheusSanitizeName(g);
    }
    out += '_';
    out += sane;
    return out;
  }

  std::string BaseLabels() const {
    std::string labels = "db=\"";
    labels += db_label_;
    labels += '"';
    if (shard_ >= 0) {
      labels += ",shard=\"";
      labels += std::to_string(shard_);
      labels += '"';
    }
    if (level_ >= 0) {
      labels += ",level=\"";
      labels += std::to_string(level_);
      labels += '"';
    }
    for (const auto& [label, value] : series_) {
      labels += ',';
      labels += label;
      labels += "=\"";
      labels += value;
      labels += '"';
    }
    return labels;
  }

  void Scalar(const char* name, const char* type, const std::string& value) {
    Sample(FamilyName(name), type, BaseLabels(), value);
  }

  // Appends one sample line to its family's buffer. type_key identifies
  // the family for the # TYPE line when the sample name carries a suffix
  // (histogram _bucket/_sum/_count all belong to the base family).
  void Sample(const std::string& name, const char* type, const std::string& labels,
              const std::string& value, const std::string& type_key = std::string()) {
    const std::string& family = type_key.empty() ? name : type_key;
    auto it = families_.find(family);
    if (it == families_.end()) {
      it = families_.emplace(family, Family{type, {}}).first;
      family_order_.push_back(family);
    }
    std::string line = name;
    line += '{';
    line += labels;
    line += "} ";
    line += value;
    line += '\n';
    it->second.lines.push_back(std::move(line));
  }

  std::string db_label_;
  std::vector<std::string> groups_;
  std::vector<std::pair<std::string, std::string>> series_;
  int shard_ = -1;
  int level_ = -1;
  std::map<std::string, Family> families_;
  std::vector<std::string> family_order_;
};

// --- cross-shard aggregation (BuildStatsJsonSharded) ---
//
// Pass 1 (AggregateStatsVisitor): walk every shard's traversal and fold
// each metric, keyed by its path in the snapshot tree, into one
// accumulator — counters/integer gauges sum (except the severity code,
// which takes the worst member's), float gauges average, enum-text keeps
// the common value, histograms merge. Pass 2
// (RollupReplayVisitor): walk shard 0's traversal again for its structure
// only, emitting the aggregated value at every node through a JsonVisitor.

struct MetricAgg {
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double f64_sum = 0;
  int f64_n = 0;
  const char* text = nullptr;  // visitor contract: literal enum names
  bool text_mixed = false;
  Histogram hist;
};

// Maintains the path key ("stall/stall_micros", "levels/0/files",
// "latency_us/put") identically in both passes.
class PathedVisitor : public StatsVisitor {
 public:
  void BeginSnapshot(const char* db) override { (void)db; }
  void EndSnapshot() override {}
  void BeginGroup(const char* name) override { path_.emplace_back(name); }
  void EndGroup() override { path_.pop_back(); }
  void BeginLevelArray(const char* name) override { path_.emplace_back(name); }
  void BeginLevel(int level) override { path_.push_back(std::to_string(level)); }
  void EndLevel() override { path_.pop_back(); }
  void EndLevelArray() override { path_.pop_back(); }

 protected:
  std::string Key(const char* name) const {
    std::string key;
    for (const std::string& seg : path_) {
      key += seg;
      key += '/';
    }
    key += name;
    return key;
  }
  // The "process" block describes the shared process, identical in every
  // shard's traversal: carry it through instead of multiplying it by N.
  bool InProcessGroup() const { return !path_.empty() && path_.front() == "process"; }

 private:
  std::vector<std::string> path_;
};

class AggregateStatsVisitor : public PathedVisitor {
 public:
  void Counter(const char* name, uint64_t v) override { AddU64(name, v); }
  void GaugeU64(const char* name, uint64_t v) override {
    if (std::strcmp(name, "bg_severity_code") == 0) {
      // A ladder position, not a quantity: the rollup reports the worst
      // member (as /health does) so it stays on the 0-3 ladder.
      MetricAgg& a = agg_[Key(name)];
      a.u64 = std::max(a.u64, v);
      return;
    }
    AddU64(name, v);
  }
  void GaugeI64(const char* name, int64_t v) override {
    MetricAgg& a = agg_[Key(name)];
    a.i64 = InProcessGroup() ? v : a.i64 + v;
  }
  void GaugeF64(const char* name, double v) override {
    MetricAgg& a = agg_[Key(name)];
    if (InProcessGroup()) {
      a.f64_sum = v;
      a.f64_n = 1;
    } else {
      a.f64_sum += v;
      a.f64_n++;
    }
  }
  void Text(const char* name, const char* value) override {
    MetricAgg& a = agg_[Key(name)];
    if (a.text == nullptr) {
      a.text = value;
    } else if (std::string(a.text) != value) {
      a.text_mixed = true;
    }
  }
  void LatencyHistogram(const char* name, const Histogram& h) override {
    agg_[Key(name)].hist.Merge(h);
  }

  const MetricAgg* Find(const std::string& key) const {
    auto it = agg_.find(key);
    return it == agg_.end() ? nullptr : &it->second;
  }

 private:
  void AddU64(const char* name, uint64_t v) {
    MetricAgg& a = agg_[Key(name)];
    a.u64 = InProcessGroup() ? v : a.u64 + v;
  }

  std::map<std::string, MetricAgg> agg_;
};

class RollupReplayVisitor : public PathedVisitor {
 public:
  explicit RollupReplayVisitor(const AggregateStatsVisitor* agg, const char* db)
      : agg_(agg), db_(db) {}

  void BeginSnapshot(const char* db) override {
    (void)db;
    json_.BeginSnapshot(db_);
  }
  void EndSnapshot() override { json_.EndSnapshot(); }
  void BeginGroup(const char* name) override {
    PathedVisitor::BeginGroup(name);
    json_.BeginGroup(name);
  }
  void EndGroup() override {
    PathedVisitor::EndGroup();
    json_.EndGroup();
  }
  void BeginLevelArray(const char* name) override {
    PathedVisitor::BeginLevelArray(name);
    json_.BeginLevelArray(name);
  }
  void BeginLevel(int level) override {
    PathedVisitor::BeginLevel(level);
    json_.BeginLevel(level);
  }
  void EndLevel() override {
    PathedVisitor::EndLevel();
    json_.EndLevel();
  }
  void EndLevelArray() override {
    PathedVisitor::EndLevelArray();
    json_.EndLevelArray();
  }

  // Every value node replays with the aggregate (pass 1 visited shard 0
  // too, so the lookup always hits).
  void Counter(const char* name, uint64_t v) override {
    const MetricAgg* a = agg_->Find(Key(name));
    json_.Counter(name, a != nullptr ? a->u64 : v);
  }
  void GaugeU64(const char* name, uint64_t v) override {
    const MetricAgg* a = agg_->Find(Key(name));
    json_.GaugeU64(name, a != nullptr ? a->u64 : v);
  }
  void GaugeI64(const char* name, int64_t v) override {
    const MetricAgg* a = agg_->Find(Key(name));
    json_.GaugeI64(name, a != nullptr ? a->i64 : v);
  }
  void GaugeF64(const char* name, double v) override {
    const MetricAgg* a = agg_->Find(Key(name));
    json_.GaugeF64(name, a != nullptr && a->f64_n > 0 ? a->f64_sum / a->f64_n : v);
  }
  void Text(const char* name, const char* value) override {
    const MetricAgg* a = agg_->Find(Key(name));
    if (a != nullptr && a->text != nullptr) {
      json_.Text(name, a->text_mixed ? "mixed" : a->text);
    } else {
      json_.Text(name, value);
    }
  }
  void LatencyHistogram(const char* name, const Histogram& h) override {
    const MetricAgg* a = agg_->Find(Key(name));
    json_.LatencyHistogram(name, a != nullptr ? a->hist : h);
  }

  std::string Take() { return json_.Take(); }

 private:
  const AggregateStatsVisitor* agg_;
  const char* db_;
  JsonVisitor json_;
};

// One loop over the DbCounter name table: the "counters" group, then the
// "stall" group from kFirstStallCounter on. The compaction total leads the
// counters group; it is counted per level by the engine and read from there.
void VisitCounters(StatsVisitor* v, const DbStats& s, StorageEngine* engine) {
  v->BeginGroup("counters");
  if (engine != nullptr) {
    v->Counter("compactions", engine->compaction_stats()->TotalCompactions());
  }
  for (int i = 0; i < kNumDbCounters; i++) {
    const DbCounter c = static_cast<DbCounter>(i);
    if (c == kFirstStallCounter) {
      v->EndGroup();
      v->BeginGroup("stall");
    }
    v->Counter(DbCounterName(c), s.Get(c));
  }
  v->EndGroup();
}

// Controller state snapshot: the live knob (admitted rate), its inputs
// (debt), the bucket, and the totals the stability bench plots.
void VisitWriteController(StatsVisitor* v, const WriteThrottle& throttle) {
  const WriteController& c = *throttle.controller();
  v->BeginGroup("write_controller");
  v->GaugeU64("rate_bytes_per_sec", c.current_rate());
  v->GaugeU64("effective_max_bytes_per_sec", c.effective_max_rate());
  v->GaugeU64("drain_rate_bytes_per_sec", c.drain_rate_estimate());
  v->GaugeF64("debt", static_cast<double>(c.debt_ppm()) / 1e6);
  v->GaugeI64("tokens", c.tokens());
  v->GaugeU64("delayed_writers", c.delayed_writers());
  v->Counter("delays_total", c.delays_total());
  v->Counter("delay_micros_total", c.delay_nanos_total() / 1000);
  v->Counter("rate_updates", c.rate_updates());
  v->Counter("safety_valve_engagements", c.safety_engagements());
  v->GaugeU64("l0_hard_stop", static_cast<uint64_t>(throttle.hard_stop_files()));
  v->EndGroup();
}

void VisitLatencies(StatsVisitor* v, const StatsRegistry& registry) {
  v->BeginGroup("latency_us");
  for (int m = 0; m < kNumOpMetrics; m++) {
    const OpMetric op = static_cast<OpMetric>(m);
    Histogram h;  // nanosecond domain
    registry.AggregateInto(op, &h);
    v->LatencyHistogram(OpMetricName(op), h);
  }
  v->EndGroup();
}

void VisitLevels(StatsVisitor* v, StorageEngine& engine) {
  const CompactionStats& cstats = *engine.compaction_stats();
  VersionSet* versions = engine.versions();
  const CompactionPickerStats& picker = versions->picker_stats();
  v->BeginLevelArray("levels");
  for (int l = 0; l < kNumLevels; l++) {
    const CompactionStats::LevelStats& ls = cstats.level(l);
    const CompactionPickerLevelStats& ps = picker.levels[l];
    v->BeginLevel(l);
    v->GaugeI64("files", versions->NumLevelFiles(l));
    v->GaugeI64("bytes", versions->NumLevelBytes(l));
    v->GaugeF64("score", versions->LevelScore(l));
    v->Counter("compactions", ls.compactions.load(std::memory_order_relaxed));
    v->Counter("trivial_moves", ls.trivial_moves.load(std::memory_order_relaxed));
    v->Counter("bytes_read", ls.bytes_read.load(std::memory_order_relaxed));
    v->Counter("bytes_written", ls.bytes_written.load(std::memory_order_relaxed));
    v->Counter("micros", ls.micros.load(std::memory_order_relaxed));
    v->Counter("sync_micros", ls.sync_micros.load(std::memory_order_relaxed));
    v->Counter("subcompactions", ls.subcompactions.load(std::memory_order_relaxed));
    // Input-selection decisions of the picker at this input level
    // (DESIGN.md "Compaction picking").
    v->Counter("picker_picks", ps.picks.load(std::memory_order_relaxed));
    v->Counter("picker_expansions", ps.expansions.load(std::memory_order_relaxed));
    v->Counter("picker_output_splits", ps.output_splits.load(std::memory_order_relaxed));
    v->Counter("picker_trivial_moves_blocked",
               ps.trivial_moves_blocked.load(std::memory_order_relaxed));
    v->Counter("picker_grandparent_bytes",
               ps.grandparent_bytes.load(std::memory_order_relaxed));
    v->EndLevel();
  }
  v->EndLevelArray();
  v->BeginGroup("flush");
  v->Counter("count", cstats.flush_count.load(std::memory_order_relaxed));
  v->Counter("bytes_written", cstats.flush_bytes_written.load(std::memory_order_relaxed));
  v->Counter("micros", cstats.flush_micros.load(std::memory_order_relaxed));
  v->Counter("sync_micros", cstats.flush_sync_micros.load(std::memory_order_relaxed));
  v->EndGroup();
  v->GaugeF64("write_amp", cstats.EstimatedWriteAmp());
}

// Background-error health block. Only enum-name literals go into the
// output (never Status strings, which neither renderer fully escapes).
void VisitErrors(StatsVisitor* v, StorageEngine& engine) {
  const BackgroundErrorState* bg = engine.bg_error();
  const BgErrorSeverity sev = bg->severity();
  v->BeginGroup("errors");
  v->Text("bg_severity", BgErrorSeverityName(sev));
  if (sev != BgErrorSeverity::kNone) {
    v->Text("bg_reason", BgErrorReasonName(bg->reason()));
  }
  // Numeric mirror of the severity ladder (0 none, 1 soft, 2 hard,
  // 3 fatal) so scrapers can alert on it without string matching.
  v->GaugeU64("bg_severity_code", static_cast<uint64_t>(sev));
  v->Counter("file_cleanup_failures", engine.cleanup_failures());
  v->Counter("wal_recovery_drops", engine.wal_recovery_drops());
  v->EndGroup();
}

void VisitSlotGauges(StatsVisitor* v, const char* key, const ThreadSlotGauges& g) {
  v->BeginGroup(key);
  v->GaugeU64("in_use", g.in_use);
  v->GaugeU64("high_water", g.high_water);
  v->Counter("reclaims", g.reclaims);
  v->Counter("overflow_ops", g.overflow_ops);
  v->EndGroup();
}

// Thread-slot registry health: slots held by live threads, the scan bound,
// how many dying threads returned their slot, and how many operations had
// to degrade to the shared overflow slots (a sustained nonzero rate means
// the deployment runs more concurrent threads than kMaxSlots).
void VisitThreadSlots(StatsVisitor* v, const StatsJsonSource& src) {
  v->BeginGroup("thread_slots");
  if (src.active_set != nullptr) {
    VisitSlotGauges(v, "active_set", src.active_set->SlotGauges());
  }
  if (src.engine != nullptr) {
    VisitSlotGauges(v, "epoch", src.engine->epochs()->SlotGauges());
  }
  v->EndGroup();
}

// Serving-tier block: totals and gauges first, then the per-opcode series
// (requests/bytes plus responses by status class), then one latency
// histogram per opcode. Everything keys off one RpcServerStats, shared
// between the KvService recording it and the DB exporting it.
void VisitRpcBlock(StatsVisitor* v, const RpcServerStats& r) {
  v->BeginGroup("rpc");
  v->Counter("requests_total", r.TotalRequests());
  v->Counter("bytes_in_total", r.TotalBytesIn());
  v->Counter("bytes_out_total", r.TotalBytesOut());
  v->Counter("errors_total", r.TotalErrors());
  v->Counter("sheds_total", r.Get(RpcCounter::kSheds));
  v->Counter("connections_total", r.Get(RpcCounter::kConnections));
  v->GaugeI64("in_flight", r.in_flight.load(std::memory_order_relaxed));
  v->GaugeI64("connections_active", r.connections_active.load(std::memory_order_relaxed));
  v->Counter("slow_requests_total", r.Get(RpcCounter::kSlowRequests));
  v->Counter("slow_requests_reported", r.Get(RpcCounter::kSlowReported));
  v->Counter("slow_requests_suppressed", r.Get(RpcCounter::kSlowSuppressed));
  v->Counter("trace_spans_total", r.Get(RpcCounter::kTraceSpans));
  v->GaugeF64("trace_sample_rate", static_cast<double>(r.TraceSamplePpm()) / 1e6);
  v->BeginGroup("op");
  for (int m = 0; m < kNumRpcOps; m++) {
    const RpcOp op = static_cast<RpcOp>(m);
    v->BeginSeries("op", RpcOpName(op));
    v->Counter("requests_total", r.Requests(op));
    v->Counter("bytes_in", r.BytesIn(op));
    v->Counter("bytes_out", r.BytesOut(op));
    v->BeginGroup("responses");
    for (int c = 0; c < kNumRpcStatusClasses; c++) {
      const RpcStatusClass sc = static_cast<RpcStatusClass>(c);
      v->BeginSeries("status", RpcStatusClassName(sc));
      v->Counter("total", r.Responses(op, sc));
      v->EndSeries();
    }
    v->EndGroup();
    v->EndSeries();
  }
  v->EndGroup();
  v->BeginGroup("latency_us");
  for (int m = 0; m < kNumRpcOps; m++) {
    const RpcOp op = static_cast<RpcOp>(m);
    Histogram h;  // nanosecond domain
    r.AggregateLatency(op, &h);
    v->LatencyHistogram(RpcOpName(op), h);
  }
  v->EndGroup();
  v->EndGroup();
}

void VisitProcess(StatsVisitor* v) {
  const ProcessMetricsSnapshot p = SampleProcessMetrics();
  v->BeginGroup("process");
  v->GaugeF64("uptime_seconds", p.uptime_seconds);
  v->GaugeU64("rss_bytes", p.rss_bytes);
  v->GaugeU64("vm_bytes", p.vm_bytes);
  v->GaugeU64("open_fds", p.open_fds);
  v->GaugeU64("threads", p.threads);
  v->EndGroup();
}

}  // namespace

void VisitStats(const StatsJsonSource& src, StatsVisitor* v) {
  v->BeginSnapshot(src.db);
  if (src.counters != nullptr) {
    VisitCounters(v, *src.counters, src.engine);
  }
  if (src.throttle != nullptr) {
    VisitWriteController(v, *src.throttle);
  }
  if (src.registry != nullptr) {
    VisitLatencies(v, *src.registry);
  }
  if (src.engine != nullptr) {
    VisitLevels(v, *src.engine);
    VisitErrors(v, *src.engine);
  }
  if (src.active_set != nullptr || src.engine != nullptr) {
    VisitThreadSlots(v, src);
  }
  if (src.rpc != nullptr) {
    VisitRpcBlock(v, *src.rpc);
  }
  VisitProcess(v);
  v->EndSnapshot();
}

std::string BuildStatsJson(const StatsJsonSource& src) {
  JsonVisitor v;
  VisitStats(src, &v);
  return v.Take();
}

std::string BuildStatsPrometheus(const StatsJsonSource& src) {
  PrometheusVisitor v;
  VisitStats(src, &v);
  return v.Take();
}

std::string BuildStatsJsonSharded(const char* db, const std::vector<StatsJsonSource>& shards,
                                  const RpcServerStats* rpc) {
  std::string rollup = "{}";
  if (!shards.empty()) {
    AggregateStatsVisitor agg;
    for (const StatsJsonSource& s : shards) {
      VisitStats(s, &agg);
    }
    RollupReplayVisitor replay(&agg, db);
    VisitStats(shards[0], &replay);
    rollup = replay.Take();
  }
  // db names are identifier-safe literals (DB::Name contract), no escaping.
  std::string out = "{\"db\":\"";
  out += db;
  out += "\",\"shard_count\":";
  out += std::to_string(shards.size());
  out += ",\"rollup\":";
  out += rollup;
  out += ",\"shards\":[";  // array index == shard index
  for (size_t i = 0; i < shards.size(); i++) {
    if (i > 0) {
      out += ',';
    }
    out += BuildStatsJson(shards[i]);
  }
  out += ']';
  if (rpc != nullptr) {
    // The serving tier is shared by every shard: render its block once at
    // the wrapper level. A JsonVisitor driven from BeginGroup emits
    // exactly the `"rpc":{...}` member fragment.
    JsonVisitor v;
    VisitRpcBlock(&v, *rpc);
    out += ',';
    out += v.Take();
  }
  out += '}';
  return out;
}

std::string BuildStatsPrometheusSharded(const char* db,
                                        const std::vector<StatsJsonSource>& shards,
                                        const RpcServerStats* rpc) {
  PrometheusVisitor v;
  for (size_t i = 0; i < shards.size(); i++) {
    StatsJsonSource src = shards[i];
    src.db = db;  // one db label for the fleet; shards differ by label
    v.set_shard(static_cast<int>(i));
    VisitStats(src, &v);
  }
  if (rpc != nullptr) {
    // clsm_rpc_* samples carry no shard label — one KvService serves the
    // whole fleet.
    v.set_shard(-1);
    v.BeginSnapshot(db);
    VisitRpcBlock(&v, *rpc);
    v.EndSnapshot();
  }
  return v.Take();
}

std::string PrometheusSanitizeName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (size_t i = 0; i < name.size(); i++) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
    const bool digit = c >= '0' && c <= '9';
    if (alpha || (digit && !out.empty())) {
      out += c;
    } else if (digit) {  // leading digit
      out += '_';
      out += c;
    } else {
      out += '_';
    }
  }
  if (out.empty()) {
    out.push_back('_');
  }
  return out;
}

std::string PrometheusEscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

}  // namespace clsm
