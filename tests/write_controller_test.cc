// Tests of the feedback-driven write admission controller (PR 6,
// src/lsm/write_controller.h):
//  * WriteControllerConfig::FromOptions clamps degenerate knobs into a
//    self-consistent config;
//  * token-bucket arithmetic is exact under an injected mock clock —
//    refill, deficit-to-delay conversion, the 250ms cap and its deficit
//    forgiveness, and the burst ceiling;
//  * the debt -> rate curve is monotone (more debt never admits faster)
//    and the smoothing filter ramps toward the target without
//    oscillation or overshoot;
//  * the unthrottled fast-path flag transitions re-arm the bucket;
//  * concurrent Admit() is data-race-free (TSan) and every delay honors
//    the per-writer bound;
//  * DB integration: the controller produces rate-limit delays under
//    pressure on both chassis, and the L0 safety valve engages when
//    flushes outrun compaction.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/baselines/factory.h"
#include "src/lsm/write_controller.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

std::unique_ptr<DB> OpenFresh(DbVariant variant, Options options, const std::string& dir) {
  DB* raw = nullptr;
  Status s = OpenDb(variant, options, dir, &raw);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return std::unique_ptr<DB>(raw);
}

std::string Key(int i) {
  char buf[32];
  snprintf(buf, sizeof(buf), "key-%08d", i);
  return buf;
}

// Pulls the unsigned integer following `"name":` out of a JSON snapshot.
// Returns 0 (and sets *found=false) when the key is absent.
uint64_t ExtractCounter(const std::string& json, const std::string& name,
                        bool* found = nullptr) {
  const std::string needle = "\"" + name + "\":";
  size_t pos = json.find(needle);
  if (found != nullptr) {
    *found = pos != std::string::npos;
  }
  if (pos == std::string::npos) {
    return 0;
  }
  pos += needle.size();
  uint64_t value = 0;
  while (pos < json.size() && json[pos] >= '0' && json[pos] <= '9') {
    value = value * 10 + static_cast<uint64_t>(json[pos] - '0');
    pos++;
  }
  return value;
}

// A controller wired to a test-owned nanosecond counter: time moves only
// when the test says so, making every refill computation exact.
struct MockClockController {
  explicit MockClockController(const WriteControllerConfig& config)
      : now(0), controller(config, [this] { return now.load(); }) {}

  std::atomic<uint64_t> now;
  WriteController controller;
};

WriteControllerConfig SmallConfig() {
  WriteControllerConfig config;
  config.min_rate = 1 << 20;   // 1 MiB/s
  config.max_rate = 4 << 20;   // 4 MiB/s
  config.gain = 1.0;           // no smoothing: UpdateRate lands on target
  config.refresh_nanos = 10'000'000;
  config.l0_debt_start = 4;
  config.l0_safety_cap = 24;
  config.backlog_debt_cap = 64 << 20;
  return config;
}

WriteController::DebtInputs L0Debt(int l0_files) {
  WriteController::DebtInputs debt;
  debt.l0_files = l0_files;
  return debt;
}

TEST(WriteControllerConfigTest, FromOptionsClampsDegenerateKnobs) {
  Options options;  // defaults
  WriteControllerConfig c = WriteControllerConfig::FromOptions(options);
  EXPECT_EQ(c.min_rate, uint64_t{1} << 20);
  EXPECT_EQ(c.max_rate, uint64_t{512} << 20);
  EXPECT_DOUBLE_EQ(c.gain, 0.4);
  EXPECT_EQ(c.refresh_nanos, uint64_t{10'000'000});
  EXPECT_EQ(c.l0_debt_start, options.l0_compaction_trigger);
  EXPECT_EQ(c.l0_safety_cap, options.l0_safety_cap);
  EXPECT_EQ(c.backlog_debt_cap, 4 * options.level1_max_bytes);

  options.min_write_rate = 8 << 20;
  options.max_write_rate = 2 << 20;  // below min: lifted to min
  options.write_rate_gain = -1.0;    // out of range: default restored
  options.l0_safety_cap = 2;         // below debt start: lifted above it
  c = WriteControllerConfig::FromOptions(options);
  EXPECT_EQ(c.max_rate, c.min_rate);
  EXPECT_DOUBLE_EQ(c.gain, 0.4);
  EXPECT_EQ(c.l0_safety_cap, c.l0_debt_start + 1);

  options.write_rate_gain = 7.5;  // above 1: clamped
  c = WriteControllerConfig::FromOptions(options);
  EXPECT_DOUBLE_EQ(c.gain, 1.0);
}

TEST(WriteControllerTest, DebtScoreNormalizesEachSignalAndTakesTheWorst) {
  MockClockController m(SmallConfig());
  const WriteController& c = m.controller;

  // L0 below the debt start contributes nothing.
  EXPECT_DOUBLE_EQ(c.DebtScore(L0Debt(0)), 0.0);
  EXPECT_DOUBLE_EQ(c.DebtScore(L0Debt(4)), 0.0);
  // Linear in between, saturating (and clamping) at the safety cap.
  EXPECT_DOUBLE_EQ(c.DebtScore(L0Debt(14)), 0.5);
  EXPECT_DOUBLE_EQ(c.DebtScore(L0Debt(24)), 1.0);
  EXPECT_DOUBLE_EQ(c.DebtScore(L0Debt(1000)), 1.0);

  // A pending immutable weighs in only as the active memtable refills
  // behind it: nothing until real headroom is gone (fill 0.5), then a ramp
  // to 0.6 at the full mark (the precursor of the memtable-full hard
  // stall), clamped beyond it.
  WriteController::DebtInputs imm;
  imm.pending_immutables = 1;
  EXPECT_DOUBLE_EQ(c.DebtScore(imm), 0.0);
  imm.memtable_fill = 0.5;
  EXPECT_DOUBLE_EQ(c.DebtScore(imm), 0.0);
  imm.memtable_fill = 0.75;
  EXPECT_DOUBLE_EQ(c.DebtScore(imm), 0.3);
  imm.memtable_fill = 1.0;
  EXPECT_DOUBLE_EQ(c.DebtScore(imm), 0.6);
  imm.memtable_fill = 3.0;  // cLSM's lazy roll can overshoot the buffer
  EXPECT_DOUBLE_EQ(c.DebtScore(imm), 0.6);
  // Without the pending immutable the fill level alone is not debt — a
  // filling memtable with a free slot behind it rolls without stalling.
  imm.pending_immutables = 0;
  EXPECT_DOUBLE_EQ(c.DebtScore(imm), 0.0);

  // Backlog normalizes against its cap.
  WriteController::DebtInputs backlog;
  backlog.compaction_backlog_bytes = 32 << 20;
  EXPECT_DOUBLE_EQ(c.DebtScore(backlog), 0.5);

  // Combined signals take the worst, not the sum.
  WriteController::DebtInputs both = L0Debt(14);
  both.compaction_backlog_bytes = 48 << 20;  // 0.75: dominates the L0 0.5
  both.pending_immutables = 1;
  EXPECT_DOUBLE_EQ(c.DebtScore(both), 0.75);
}

TEST(WriteControllerTest, TokenBucketMathIsExactUnderMockClock) {
  MockClockController m(SmallConfig());
  WriteController& c = m.controller;

  // Full debt with gain 1.0: the rate lands on the floor immediately and
  // the bucket re-arms with one burst at the new rate.
  c.UpdateRate(L0Debt(24));
  const uint64_t rate = c.current_rate();
  EXPECT_EQ(rate, uint64_t{1} << 20);
  EXPECT_FALSE(c.unthrottled());
  const int64_t burst = static_cast<int64_t>(rate / 10);  // > 16 KiB floor
  EXPECT_EQ(c.tokens(), burst);

  // Spending exactly the burst admits instantly and empties the bucket.
  EXPECT_EQ(c.Admit(static_cast<uint64_t>(burst)), 0u);
  EXPECT_EQ(c.tokens(), 0);

  // The next 1 MiB is a full second of deficit at 1 MiB/s: the delay is
  // capped at 250ms and the excess deficit is forgiven down to exactly
  // 250ms worth of tokens.
  EXPECT_EQ(c.Admit(uint64_t{1} << 20), WriteController::kMaxDelayNanos);
  const int64_t forgiven = static_cast<int64_t>(
      static_cast<double>(WriteController::kMaxDelayNanos) * static_cast<double>(rate) / 1e9);
  EXPECT_EQ(c.tokens(), -forgiven);

  // Advancing the clock by that 250ms refills the deficit to zero; the
  // next tiny write pays only its own marginal delay (~1 byte at 1 MiB/s).
  m.now += WriteController::kMaxDelayNanos;
  const uint64_t marginal = c.Admit(1);
  EXPECT_GT(marginal, 0u);
  EXPECT_LT(marginal, 10'000u);  // ~953ns expected

  // An idle stretch refills to the burst ceiling, never beyond it.
  m.now += uint64_t{10} * 1'000'000'000;
  EXPECT_EQ(c.Admit(1), 0u);
  EXPECT_EQ(c.tokens(), burst - 1);
}

TEST(WriteControllerTest, MoreDebtNeverAdmitsFaster) {
  MockClockController m(SmallConfig());  // gain 1.0: rate == target
  WriteController& c = m.controller;

  uint64_t prev_rate = UINT64_MAX;
  for (int l0 = 0; l0 <= 30; l0++) {
    c.UpdateRate(L0Debt(l0));
    const uint64_t rate = c.current_rate();
    EXPECT_LE(rate, prev_rate) << "rate rose as L0 grew to " << l0;
    EXPECT_GE(rate, c.config().min_rate);
    EXPECT_LE(rate, c.config().max_rate);
    prev_rate = rate;
  }
  // Endpoints of the quadratic decay: full speed at zero debt, the floor
  // at the safety cap.
  c.UpdateRate(L0Debt(0));
  EXPECT_EQ(c.current_rate(), c.config().max_rate);
  c.UpdateRate(L0Debt(24));
  EXPECT_EQ(c.current_rate(), c.config().min_rate);
  // Midpoint: debt 0.5 -> min + span/4.
  c.UpdateRate(L0Debt(14));
  const uint64_t span = c.config().max_rate - c.config().min_rate;
  EXPECT_NEAR(static_cast<double>(c.current_rate()),
              static_cast<double>(c.config().min_rate) + static_cast<double>(span) * 0.25,
              2.0);
}

TEST(WriteControllerTest, SmoothedRampConvergesWithoutOscillation) {
  WriteControllerConfig config = SmallConfig();
  config.gain = 0.5;
  MockClockController m(config);
  WriteController& c = m.controller;

  // Step the debt to full and hold it: each refresh must move the rate
  // strictly toward the floor, never past it, never back up.
  uint64_t prev = c.current_rate();
  EXPECT_EQ(prev, config.max_rate);
  for (int i = 0; i < 64; i++) {
    c.UpdateRate(L0Debt(24));
    const uint64_t rate = c.current_rate();
    EXPECT_LE(rate, prev) << "downward ramp oscillated at step " << i;
    EXPECT_GE(rate, config.min_rate) << "downward ramp overshot the floor";
    prev = rate;
  }
  EXPECT_LT(prev, config.min_rate + config.min_rate / 50);  // converged ~min

  // Step the debt back to zero: the recovery ramp is monotone too, and the
  // fast-path flag only re-engages once the rate has recovered to ~max.
  for (int i = 0; i < 64; i++) {
    c.UpdateRate(L0Debt(0));
    const uint64_t rate = c.current_rate();
    EXPECT_GE(rate, prev) << "recovery ramp oscillated at step " << i;
    EXPECT_LE(rate, config.max_rate) << "recovery ramp overshot the ceiling";
    if (!c.unthrottled()) {
      EXPECT_LT(static_cast<double>(rate), 0.999 * static_cast<double>(config.max_rate))
          << "fast path engaged before the rate recovered";
    }
    prev = rate;
  }
  EXPECT_TRUE(c.unthrottled());
  EXPECT_GE(static_cast<double>(prev), 0.999 * static_cast<double>(config.max_rate));
}

TEST(WriteControllerTest, UnthrottledFastPathBypassesAndRearmsTheBucket) {
  MockClockController m(SmallConfig());
  WriteController& c = m.controller;

  // Fresh controller: zero debt, fast path on, Admit charges nothing no
  // matter how large the write.
  ASSERT_TRUE(c.unthrottled());
  const int64_t before = c.tokens();
  EXPECT_EQ(c.Admit(uint64_t{1} << 30), 0u);
  EXPECT_EQ(c.tokens(), before);

  // Debt appears: the transition re-arms the bucket with one fresh burst
  // at the new rate, so the idle period is not charged against writers.
  m.now += 60ull * 1'000'000'000;  // long idle gap
  c.UpdateRate(L0Debt(24));
  EXPECT_FALSE(c.unthrottled());
  EXPECT_EQ(c.tokens(), static_cast<int64_t>(c.current_rate() / 10));

  // Debt clears: with gain 1.0 one update restores max rate and the flag.
  c.UpdateRate(L0Debt(0));
  EXPECT_TRUE(c.unthrottled());
  EXPECT_EQ(c.current_rate(), c.config().max_rate);
}

TEST(WriteControllerTest, AutoCeilingTracksMeasuredDrainRate) {
  WriteControllerConfig config = SmallConfig();
  MockClockController m(config);
  WriteController& c = m.controller;

  // A window with no flush output closes without producing a sample: the
  // ceiling stays at the configured max (idle says nothing about drain).
  WriteController::DebtInputs debt;  // zero debt throughout
  m.now += 600'000'000;
  c.UpdateRate(debt);
  EXPECT_EQ(c.drain_rate_estimate(), 0u);
  EXPECT_EQ(c.effective_max_rate(), config.max_rate);
  EXPECT_EQ(c.current_rate(), config.max_rate);

  // 256 KiB flushed over the next 500ms window: drain = 512 KiB/s, and
  // the ceiling (headroom 2x) clamps up to the min-rate floor of 1 MiB/s.
  m.now += 500'000'000;
  debt.flushed_bytes_total = 256 << 10;
  c.UpdateRate(debt);
  EXPECT_EQ(c.drain_rate_estimate(), uint64_t{512} << 10);
  EXPECT_EQ(c.effective_max_rate(), uint64_t{1} << 20);
  EXPECT_EQ(c.current_rate(), uint64_t{1} << 20);
  // Zero debt at a recovered (reduced) ceiling still counts as unthrottled:
  // the ceiling bounds what throttled writers get, it is not itself debt.
  EXPECT_TRUE(c.unthrottled());

  // 1.5 MiB more over the next window: instantaneous drain 3 MiB/s. The
  // estimate is peak-hold (max of sample and 0.9x prior), so it jumps to
  // 3 MiB/s and the 2x headroom ceiling clamps back to the config max.
  m.now += 500'000'000;
  debt.flushed_bytes_total += 1536 << 10;
  c.UpdateRate(debt);
  EXPECT_EQ(c.drain_rate_estimate(), uint64_t{3} << 20);
  EXPECT_EQ(c.effective_max_rate(), config.max_rate);
  EXPECT_EQ(c.current_rate(), config.max_rate);

  // An idle window: the estimate holds instead of bleeding — a stalled
  // drain shows up through the debt signals, and a decayed estimate would
  // strangle the next burst for no reason. Only measured (nonzero) windows
  // bleed the peak.
  m.now += 500'000'000;
  c.UpdateRate(debt);
  EXPECT_EQ(c.drain_rate_estimate(), uint64_t{3} << 20);
  EXPECT_EQ(c.effective_max_rate(), config.max_rate);

  // A slower measured window bleeds the peak at 0.9x rather than tracking
  // the sample: 64 KiB over 500ms is 128 KiB/s, estimate moves to
  // 0.9 * 3 MiB/s instead.
  m.now += 500'000'000;
  debt.flushed_bytes_total += 64 << 10;
  c.UpdateRate(debt);
  EXPECT_EQ(c.drain_rate_estimate(),
            static_cast<uint64_t>(0.9 * static_cast<double>(uint64_t{3} << 20)));
}

TEST(WriteControllerTest, RefreshDueFollowsTheInjectedClock) {
  MockClockController m(SmallConfig());  // refresh_nanos = 10ms
  WriteController& c = m.controller;

  m.now += SmallConfig().refresh_nanos;
  EXPECT_TRUE(c.RefreshDue());  // a full interval since construction
  c.UpdateRate(L0Debt(0));
  EXPECT_FALSE(c.RefreshDue());
  m.now += 9'999'999;
  EXPECT_FALSE(c.RefreshDue());
  m.now += 1;
  EXPECT_TRUE(c.RefreshDue());
  const uint64_t updates_before = c.rate_updates();
  c.UpdateRate(L0Debt(0));
  EXPECT_EQ(c.rate_updates(), updates_before + 1);
  EXPECT_FALSE(c.RefreshDue());
}

// Hammer Admit from many threads against a frozen clock (no refill): the
// point is TSan coverage of the bucket under contention plus the
// per-writer delay bound — even with an unbounded aggregate deficit, no
// single writer is ever told to wait more than kMaxDelayNanos, and the
// bookkeeping counters balance exactly.
TEST(WriteControllerTest, ConcurrentAdmitHonorsTheDelayBound) {
  MockClockController m(SmallConfig());
  WriteController& c = m.controller;
  c.UpdateRate(L0Debt(24));  // throttled at the floor
  ASSERT_FALSE(c.unthrottled());

  constexpr int kThreads = 8;
  constexpr int kAdmitsPerThread = 1000;
  std::atomic<uint64_t> total_delayed_ops{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&c, &total_delayed_ops] {
      for (int i = 0; i < kAdmitsPerThread; i++) {
        const uint64_t delay = c.Admit(1024);
        ASSERT_LE(delay, WriteController::kMaxDelayNanos);
        if (delay > 0) {
          c.OnDelayStart();
          c.OnDelayEnd(delay);  // fairness test: account, don't sleep
          total_delayed_ops.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }

  // 8 MiB charged against a 100 KiB burst at 1 MiB/s with time frozen:
  // almost every op past the burst must have been delayed.
  EXPECT_GT(total_delayed_ops.load(), uint64_t{kThreads * kAdmitsPerThread} / 2);
  EXPECT_EQ(c.delays_total(), total_delayed_ops.load());
  EXPECT_EQ(c.delayed_writers(), 0u);
  EXPECT_GT(c.delay_nanos_total(), 0u);
  // Deficit forgiveness bounds the bucket debt: at most 250ms worth of
  // tokens plus one in-flight charge.
  const int64_t floor_tokens = -static_cast<int64_t>(
      static_cast<double>(WriteController::kMaxDelayNanos) *
      static_cast<double>(c.current_rate()) / 1e9);
  EXPECT_GE(c.tokens(), floor_tokens - 1024);
}

// --- DB integration: the shared gate in both modes, on both chassis ---

// Pulls the (possibly fractional) number following `"name":` out of a JSON
// snapshot; NaN when absent. ExtractCounter above stops at '.', which
// truncates float gauges like write_controller.debt.
double ExtractDouble(const std::string& json, const std::string& name) {
  const std::string needle = "\"" + name + "\":";
  size_t pos = json.find(needle);
  if (pos == std::string::npos) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

// Under write pressure the controller sees debt (pending immutable, L0
// growth, deep-level backlog), throttles, and the delays surface as
// rate_limit_waits. The whole sequence runs on an injected mock clock
// (Options::write_controller_clock): rate refreshes happen exactly at the
// test's sampler writes and token refill is frozen everywhere else, so the
// assertions are schedule-independent — under load the background
// compactor may drain debt between rounds, but it can never unfreeze the
// bucket or slip an extra refresh in. (The wall-clock version of this test
// flaked ~3/20 under 6x CPU stress: a fixed write budget raced the
// compactor for whether the bucket ever reached deficit.)
TEST(WriteControllerIntegrationTest, ControllerDelaysWritersUnderDebt) {
  for (DbVariant variant : {DbVariant::kClsm, DbVariant::kLevelDb}) {
    SCOPED_TRACE(variant == DbVariant::kClsm ? "clsm" : "leveldb");
    ScratchDir dir("wc-controller");
    // The clock outlives the DB (the throttle holds the closure).
    auto clock = std::make_shared<std::atomic<uint64_t>>(uint64_t{1} << 30);
    Options options;
    options.write_controller_clock = [clock] { return clock->load(); };
    options.write_buffer_size = 32 * 1024;
    options.write_rate_refresh_micros = 1000;
    // A tiny level-1 target makes the deep-level byte backlog (cap = 4x
    // this) the dominant debt signal, and an early L0 debt start is a
    // second, independent one — some sampler round is certain to observe
    // debt > 0. gain = 1.0 disables smoothing: each refresh lands exactly
    // on the debt -> rate curve, so every (debt, rate) sample must lie on
    // one deterministic monotone function.
    options.level1_max_bytes = 64 * 1024;
    options.l0_compaction_trigger = 2;
    options.min_write_rate = 1 << 20;
    options.max_write_rate = 3 << 19;  // 1.5 MiB/s: a 150 KiB burst
    options.write_rate_gain = 1.0;
    std::unique_ptr<DB> db = OpenFresh(variant, options, dir.path() + "/db");

    const uint64_t refresh_nanos =
        uint64_t{options.write_rate_refresh_micros} * 1000;
    std::vector<std::pair<double, uint64_t>> samples;  // (debt, rate)

    // Phase 1 — escalate until the controller throttles. Each round writes
    // a burst of data (unmetered while the controller is unthrottled),
    // advances the mock clock past the refresh interval, and issues one
    // tiny sampler write: the ONLY point where UpdateRate can run. The
    // instant a sampler observes debt > 0 the rate drops below the ceiling
    // and, with the clock frozen from here on, must stay there.
    int next_key = 0;
    bool throttled = false;
    for (int round = 0; round < 60 && !throttled; round++) {
      for (int i = 0; i < 200; i++) {
        ASSERT_TRUE(
            db->Put(WriteOptions(), Key(next_key++), std::string(1024, 'c'))
                .ok());
      }
      clock->fetch_add(refresh_nanos + 1);
      ASSERT_TRUE(db->Put(WriteOptions(), "sampler", "s").ok());
      const std::string json = db->GetProperty("clsm.stats.json");
      const double debt = ExtractDouble(json, "debt");
      const double rate = ExtractDouble(json, "rate_bytes_per_sec");
      ASSERT_FALSE(std::isnan(debt)) << json;
      ASSERT_FALSE(std::isnan(rate)) << json;
      samples.emplace_back(debt, static_cast<uint64_t>(rate));
      throttled = debt > 0.0;
    }
    ASSERT_TRUE(throttled) << "no sampler round ever observed debt";

    // Monotone property: with gain = 1.0 the rate is a memoryless function
    // of the sampled debt, strictly decreasing in it. Sorting the samples
    // by debt must therefore sort the rates in (weakly) descending order.
    // The 16-byte slack absorbs the ppm rounding of the exported gauge.
    std::sort(samples.begin(), samples.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 1; i < samples.size(); i++) {
      EXPECT_LE(samples[i].second, samples[i - 1].second + 16)
          << "debt " << samples[i].first << " admits faster than debt "
          << samples[i - 1].first;
    }

    // Phase 2 — deterministic bucket exhaustion. The clock is frozen: no
    // refill, no further rate refresh. The throttle transition re-armed
    // the bucket with one burst (at most max_rate / 10 = 150 KiB), so
    // metered 1 KiB writes must run it into deficit — and the first
    // deficit write takes a rate-limit delay — within 400 writes,
    // regardless of machine speed or compactor scheduling.
    for (int i = 0; i < 400; i++) {
      ASSERT_TRUE(
          db->Put(WriteOptions(), Key(next_key++), std::string(1024, 'c'))
              .ok());
      if (i % 16 == 15 && ExtractCounter(db->GetProperty("clsm.stats.json"),
                                         "rate_limit_waits") > 0) {
        break;
      }
    }

    const std::string json = db->GetProperty("clsm.stats.json");
    bool found = false;
    EXPECT_GT(ExtractCounter(json, "rate_limit_waits", &found), 0u) << json;
    EXPECT_TRUE(found);
    EXPECT_GT(ExtractCounter(json, "rate_limit_delay_micros"), 0u) << json;
    EXPECT_GT(ExtractCounter(json, "rate_updates"), 0u) << json;

    // The live-rate property parses and sits inside the configured clamp.
    const std::string rate_str = db->GetProperty("clsm.write-rate");
    ASSERT_FALSE(rate_str.empty());
    const uint64_t rate = std::stoull(rate_str);
    EXPECT_GE(rate, options.min_write_rate);
    EXPECT_LE(rate, options.max_write_rate);
  }
}

// With the safety cap forced down to two L0 files, rapid tiny flushes
// outrun compaction and the hard stop must engage (and be counted) — the
// valve behind the smooth ramp.
TEST(WriteControllerIntegrationTest, SafetyValveEngagesWhenFlushesOutrunCompaction) {
  ScratchDir dir("wc-valve");
  Options options;
  options.write_buffer_size = 8 * 1024;
  options.l0_compaction_trigger = 1;
  options.l0_safety_cap = 2;
  options.write_rate_refresh_micros = 1000;
  options.min_write_rate = 8 << 20;
  // Keep everything in L1 (no spill to L2): with uniformly random keys
  // every flushed L0 file overlaps the whole of L1, so each L0->L1
  // compaction rewrites a level that only ever grows. Compaction time
  // rises with data volume while flush time stays flat — flushes must
  // eventually outrun compaction and pile L0 up to the two-file cap.
  options.level1_max_bytes = uint64_t{1} << 30;
  std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir.path() + "/db");

  constexpr int kThreads = 4;
  constexpr int kBatch = 250;
  std::atomic<bool> engaged{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t) * 7919 + 17);
      // Write in batches until the valve fires (or a generous cap, so a
      // pathological scheduler cannot hang the test).
      for (int round = 0; round < 40 && !engaged.load(); round++) {
        for (int i = 0; i < kBatch; i++) {
          const int k = static_cast<int>(rng() % 100'000'000u);
          ASSERT_TRUE(db->Put(WriteOptions(), Key(k), std::string(1024, 'v')).ok());
        }
        const std::string json = db->GetProperty("clsm.stats.json");
        if (ExtractCounter(json, "safety_valve_engagements") > 0) {
          engaged.store(true);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_TRUE(engaged.load()) << db->GetProperty("clsm.stats.json");

  // The valve surfaced as a counted hard stall too.
  const std::string json = db->GetProperty("clsm.stats.json");
  EXPECT_GT(ExtractCounter(json, "throttle_waits"), 0u) << json;
  EXPECT_EQ(ExtractCounter(json, "l0_hard_stop"), 2u) << json;
}

}  // namespace
}  // namespace clsm
