// Exposition-format correctness for BuildStatsPrometheus: name
// sanitization, label escaping, family grouping (`# TYPE` once per
// family), cumulative-bucket monotonicity with a trailing +Inf, and
// `_sum`/`_count` agreement with the recorded samples — first against a
// synthetic StatsJsonSource whose exact contents we control, then against
// a live DB to make sure the full traversal renders cleanly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/baselines/factory.h"
#include "src/core/stats.h"
#include "src/obs/metrics.h"
#include "src/obs/stats_export.h"
#include "src/server/http_client.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

// All samples of `family` (lines "name{labels} value" where name matches
// exactly), in document order, as (labels, value) pairs.
std::vector<std::pair<std::string, double>> Samples(const std::string& text,
                                                    const std::string& family) {
  std::vector<std::pair<std::string, double>> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t brace = line.find('{');
    const size_t space = line.rfind(' ');
    const std::string name = line.substr(0, brace == std::string::npos ? space : brace);
    if (name != family) {
      continue;
    }
    std::string labels;
    if (brace != std::string::npos) {
      labels = line.substr(brace, line.rfind('}') - brace + 1);
    }
    out.emplace_back(labels, std::strtod(line.c_str() + space + 1, nullptr));
  }
  return out;
}

int CountOccurrences(const std::string& text, const std::string& needle) {
  int n = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size())) {
    n++;
  }
  return n;
}

TEST(PrometheusFormatTest, SanitizeName) {
  EXPECT_EQ("already_legal_123", PrometheusSanitizeName("already_legal_123"));
  EXPECT_EQ("dots_and_dashes_", PrometheusSanitizeName("dots.and-dashes%"));
  EXPECT_EQ("_0_leading_digit", PrometheusSanitizeName("0_leading_digit"));
  EXPECT_EQ("colons:ok", PrometheusSanitizeName("colons:ok"));
  // An empty fragment still yields a legal (if degenerate) name.
  EXPECT_EQ("_", PrometheusSanitizeName(""));
}

TEST(PrometheusFormatTest, EscapeLabel) {
  EXPECT_EQ("plain", PrometheusEscapeLabel("plain"));
  EXPECT_EQ("a\\\\b", PrometheusEscapeLabel("a\\b"));
  EXPECT_EQ("say \\\"hi\\\"", PrometheusEscapeLabel("say \"hi\""));
  EXPECT_EQ("line\\nbreak", PrometheusEscapeLabel("line\nbreak"));
}

TEST(PrometheusFormatTest, SyntheticSourceRendersTypedFamilies) {
  DbStats stats;
  stats.Add(DbCounter::kPutsTotal, 42);
  stats.Add(DbCounter::kGetsTotal, 17);
  stats.Add(DbCounter::kStallMicros, 1234);

  StatsJsonSource src;
  src.db = "synthetic";
  src.counters = &stats;
  const std::string text = BuildStatsPrometheus(src);

  // The "counters" group is flattened; stall keeps its group prefix.
  EXPECT_NE(std::string::npos, text.find("# TYPE clsm_puts_total counter")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_puts_total{db=\"synthetic\"} 42")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_gets_total{db=\"synthetic\"} 17")) << text;
  // "stall_micros" already starts with its group, so the segment is not
  // doubled into clsm_stall_stall_micros.
  EXPECT_NE(std::string::npos, text.find("clsm_stall_micros{db=\"synthetic\"} 1234")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_stall_rate_limit_waits{db=\"synthetic\"} 0"))
      << text;
  // Process telemetry rides along on every snapshot.
  EXPECT_NE(std::string::npos, text.find("# TYPE clsm_process_rss_bytes gauge")) << text;
  // Every # TYPE line names a family exactly once.
  EXPECT_EQ(1, CountOccurrences(text, "# TYPE clsm_puts_total "));
  EXPECT_EQ(1, CountOccurrences(text, "# TYPE clsm_process_rss_bytes "));
}

TEST(PrometheusFormatTest, HistogramBucketsAreCumulativeAndConsistent) {
  DbStats stats;
  StatsRegistry registry;
  // A spread of samples across decades so several buckets are occupied.
  const uint64_t nanos[] = {800,     950,      12'000,    12'500,   13'000,
                            250'000, 2'600'000, 9'000'000, 100'000'000};
  uint64_t expect_sum = 0;
  for (uint64_t n : nanos) {
    registry.Record(OpMetric::kPut, n);
    expect_sum += n;
  }
  const uint64_t expect_count = sizeof(nanos) / sizeof(nanos[0]);

  StatsJsonSource src;
  src.db = "hist";
  src.counters = &stats;
  src.registry = &registry;
  const std::string text = BuildStatsPrometheus(src);

  // One histogram family, declared once.
  EXPECT_EQ(1, CountOccurrences(text, "# TYPE clsm_op_latency_seconds histogram")) << text;

  // The op="put" bucket series is cumulative, monotone non-decreasing,
  // has strictly increasing le= thresholds, and ends at +Inf == _count.
  const auto buckets = Samples(text, "clsm_op_latency_seconds_bucket");
  std::vector<std::pair<double, double>> put_series;  // (le, cumulative)
  for (const auto& [labels, value] : buckets) {
    if (labels.find("op=\"put\"") == std::string::npos) {
      continue;
    }
    const size_t le = labels.find("le=\"");
    ASSERT_NE(std::string::npos, le) << labels;
    const std::string le_str = labels.substr(le + 4, labels.find('"', le + 4) - (le + 4));
    const double bound =
        le_str == "+Inf" ? HUGE_VAL : std::strtod(le_str.c_str(), nullptr);
    put_series.emplace_back(bound, value);
  }
  ASSERT_GE(put_series.size(), 3u) << text;
  for (size_t i = 1; i < put_series.size(); i++) {
    EXPECT_GT(put_series[i].first, put_series[i - 1].first) << "le not increasing at " << i;
    EXPECT_GE(put_series[i].second, put_series[i - 1].second)
        << "cumulative count decreased at " << i;
  }
  EXPECT_EQ(HUGE_VAL, put_series.back().first) << "missing +Inf bucket";
  EXPECT_EQ(static_cast<double>(expect_count), put_series.back().second);

  // _count matches the samples; _sum is the recorded nanoseconds in
  // seconds (bucket bounds are exact, the sum is exact by construction).
  const auto counts = Samples(text, "clsm_op_latency_seconds_count");
  const auto sums = Samples(text, "clsm_op_latency_seconds_sum");
  double put_count = -1, put_sum = -1;
  for (const auto& [labels, value] : counts) {
    if (labels.find("op=\"put\"") != std::string::npos) {
      put_count = value;
    }
  }
  for (const auto& [labels, value] : sums) {
    if (labels.find("op=\"put\"") != std::string::npos) {
      put_sum = value;
    }
  }
  EXPECT_EQ(static_cast<double>(expect_count), put_count);
  EXPECT_NEAR(static_cast<double>(expect_sum) / 1e9, put_sum, 1e-6);

  // Ops with no samples still emit the mandatory +Inf bucket (count 0)
  // but none of the finite occupied buckets.
  for (const auto& [labels, value] : buckets) {
    if (labels.find("op=\"rmw\"") == std::string::npos) {
      continue;
    }
    EXPECT_NE(std::string::npos, labels.find("le=\"+Inf\"")) << labels;
    EXPECT_EQ(0.0, value) << labels;
  }
}

TEST(PrometheusFormatTest, JsonAndPrometheusAgreeOnOneTraversal) {
  DbStats stats;
  stats.Add(DbCounter::kPutsTotal, 7);
  stats.Add(DbCounter::kSlowOpsDropped, 3);

  StatsJsonSource src;
  src.db = "agree";
  src.counters = &stats;
  const std::string json = BuildStatsJson(src);
  const std::string prom = BuildStatsPrometheus(src);

  EXPECT_NE(std::string::npos, json.find("\"puts_total\":7")) << json;
  EXPECT_NE(std::string::npos, prom.find("clsm_puts_total{db=\"agree\"} 7")) << prom;
  EXPECT_NE(std::string::npos, json.find("\"slow_ops_dropped\":3")) << json;
  EXPECT_NE(std::string::npos, prom.find("clsm_slow_ops_dropped{db=\"agree\"} 3")) << prom;
  EXPECT_NE(std::string::npos, json.find("\"process\":{")) << json;
}

// One legal metric-name character.
bool NameChar(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

TEST(PrometheusFormatTest, LiveDbFullTraversalIsWellFormed) {
  ScratchDir dir("promlive");
  Options options;
  options.write_buffer_size = 64 * 1024;
  options.admin_port = 0;
  DB* raw = nullptr;
  ASSERT_TRUE(OpenDb(DbVariant::kClsm, options, dir.path() + "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);
  WriteOptions wo;
  ReadOptions ro;
  std::string v;
  for (int i = 0; i < 500; i++) {
    ASSERT_TRUE(db->Put(wo, "k" + std::to_string(i), std::string(256, 'x')).ok());
  }
  for (int i = 0; i < 100; i++) {
    db->Get(ro, "k" + std::to_string(i), &v);
  }
  db->WaitForMaintenance();

  const int port = std::atoi(db->GetProperty("clsm.admin-port").c_str());
  ASSERT_GT(port, 0);
  int code = 0;
  std::string text;
  ASSERT_TRUE(HttpGet("127.0.0.1", port, "/metrics", &code, &text).ok());
  ASSERT_EQ(200, code);

  // Grammar sweep over the whole live document: every non-comment line is
  // `name{labels} value` with a legal name and a finite value, every
  // sample's family was declared by a preceding # TYPE, and declared
  // types are legal.
  std::istringstream in(text);
  std::string line;
  std::vector<std::string> declared;
  int samples = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      std::istringstream hl(line);
      std::string hash, kind, family, type;
      hl >> hash >> kind >> family >> type;
      ASSERT_EQ("TYPE", kind) << line;
      ASSERT_TRUE(type == "counter" || type == "gauge" || type == "histogram") << line;
      declared.push_back(family);
      continue;
    }
    samples++;
    size_t name_end = 0;
    while (name_end < line.size() && NameChar(line[name_end], name_end == 0)) {
      name_end++;
    }
    ASSERT_GT(name_end, 0u) << line;
    ASSERT_TRUE(line[name_end] == '{' || line[name_end] == ' ') << line;
    const std::string name = line.substr(0, name_end);
    EXPECT_EQ(0u, name.find("clsm_")) << line;
    // The sample's family (name minus histogram suffixes) must have been
    // declared.
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const size_t n = family.size(), m = strlen(suffix);
      if (n > m && family.compare(n - m, m, suffix) == 0 &&
          family.compare(0, 24, "clsm_op_latency_seconds_") == 0) {
        family = family.substr(0, n - m);
      }
    }
    bool found = false;
    for (const std::string& d : declared) {
      if (d == family) {
        found = true;
        break;
      }
    }
    EXPECT_TRUE(found) << "sample before/without # TYPE: " << line;
    // Labels are balanced and the value parses.
    const size_t space = line.rfind(' ');
    ASSERT_NE(std::string::npos, space) << line;
    char* end = nullptr;
    const double value = std::strtod(line.c_str() + space + 1, &end);
    EXPECT_EQ('\0', *end) << line;
    EXPECT_FALSE(std::isnan(value)) << line;
    EXPECT_NE(std::string::npos, line.find("db=\"clsm\"")) << line;
  }
  EXPECT_GT(samples, 40) << text;
  // The acceptance floor: counters, per-level gauges, write-controller
  // gauges, process gauges, and at least three distinct op histograms.
  EXPECT_NE(std::string::npos, text.find("level=\"0\"")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_write_controller_")) << text;
  EXPECT_NE(std::string::npos, text.find("clsm_process_")) << text;
  int histogram_ops = 0;
  for (const char* op : {"op=\"put\"", "op=\"get\"", "op=\"wal_append\"", "op=\"mem_insert\"",
                         "op=\"flush\""}) {
    if (text.find(std::string("clsm_op_latency_seconds_count{db=\"clsm\",") + op) !=
        std::string::npos) {
      histogram_ops++;
    }
  }
  EXPECT_GE(histogram_ops, 3) << text;
}

}  // namespace
}  // namespace clsm
