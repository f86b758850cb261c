// Tests of the operation trace pipeline (src/obs/op_trace.h +
// src/obs/trace_replay.h): the TraceWriter listener records every public
// op in completion order; TraceReader decodes the binary format
// bit-for-bit; SummarizeTrace reports the exact op mix; ReplayTrace
// reproduces the mix and every per-op found/not-found outcome against a
// fresh store of any variant.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/baselines/factory.h"
#include "src/core/write_batch.h"
#include "src/obs/op_trace.h"
#include "src/obs/trace_replay.h"
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
  snprintf(buf, sizeof(buf), "trace-key-%06d", i);
  return buf;
}

// A deterministic self-contained workload (starts from an empty store, so
// a replay from empty reproduces every outcome): misses before puts, hits
// after, deletes turning hits back into misses, RMWs that write and RMWs
// that decline.
struct WorkloadShape {
  uint64_t puts = 0, deletes = 0, gets = 0, writes = 0, rmws = 0;
  uint64_t get_hits = 0, get_misses = 0;
};

WorkloadShape RunMixedWorkload(DB* db) {
  WorkloadShape shape;
  WriteOptions wo;
  ReadOptions ro;
  std::string value;
  for (int i = 0; i < 50; i++) {
    // Miss first: the key does not exist yet.
    Status s = db->Get(ro, Key(i), &value);
    EXPECT_TRUE(s.IsNotFound());
    shape.gets++;
    shape.get_misses++;

    EXPECT_TRUE(db->Put(wo, Key(i), "value-" + std::to_string(i)).ok());
    shape.puts++;

    s = db->Get(ro, Key(i), &value);
    EXPECT_TRUE(s.ok());
    shape.gets++;
    shape.get_hits++;
  }
  for (int i = 0; i < 10; i++) {
    EXPECT_TRUE(db->Delete(wo, Key(i)).ok());
    shape.deletes++;
    Status s = db->Get(ro, Key(i), &value);
    EXPECT_TRUE(s.IsNotFound());
    shape.gets++;
    shape.get_misses++;
  }
  // RMW that writes (append to an existing value) and RMW that declines
  // (put-if-absent observing a present key).
  for (int i = 20; i < 30; i++) {
    bool performed = false;
    EXPECT_TRUE(db->ReadModifyWrite(wo, Key(i),
                                    [](const std::optional<Slice>& cur) {
                                      std::string next = cur ? cur->ToString() : "";
                                      next += "+rmw";
                                      return std::optional<std::string>(next);
                                    },
                                    &performed)
                    .ok());
    EXPECT_TRUE(performed);
    shape.rmws++;
    EXPECT_TRUE(db->ReadModifyWrite(wo, Key(i),
                                    [](const std::optional<Slice>& cur)
                                        -> std::optional<std::string> {
                                      if (cur) {
                                        return std::nullopt;  // present: decline
                                      }
                                      return std::string("absent");
                                    },
                                    &performed)
                    .ok());
    EXPECT_FALSE(performed);
    shape.rmws++;
  }
  // One atomic batch (kWrite records carry no keys; replay skips them).
  WriteBatch batch;
  batch.Put(Key(60), "batch-a");
  batch.Put(Key(61), "batch-b");
  batch.Delete(Key(60));
  EXPECT_TRUE(db->Write(wo, &batch).ok());
  shape.writes++;
  return shape;
}

class TraceRoundTripTest : public ::testing::Test {
 protected:
  TraceRoundTripTest() : dir_("optrace") { trace_path_ = dir_.path() + "/ops.trc"; }

  ScratchDir dir_;
  std::string trace_path_;
};

// Recording runs on every variant: each public op yields exactly one
// record of its own type (an RMW is one kRmw record, never a Get plus a
// Put), whatever write path the variant takes.
class TraceRecordingTest : public TraceRoundTripTest,
                           public ::testing::WithParamInterface<DbVariant> {};

TEST_P(TraceRecordingTest, WriterReaderRoundTripAndExactSummary) {
  auto writer = std::make_shared<TraceWriter>(trace_path_);
  WorkloadShape shape;
  {
    Options options;
    options.listeners.push_back(writer);
    std::unique_ptr<DB> db = OpenFresh(GetParam(), options, dir_.path() + "/db");
    shape = RunMixedWorkload(db.get());
  }
  ASSERT_TRUE(writer->Finish().ok());
  const uint64_t expected_records =
      shape.puts + shape.deletes + shape.gets + shape.writes + shape.rmws;
  EXPECT_EQ(writer->records_written(), expected_records);

  // Decode every record; the workload is single-threaded so completion
  // order is program order and we can walk the two in lockstep.
  TraceReader reader;
  ASSERT_TRUE(reader.Open(Env::Default(), trace_path_).ok());
  TraceRecord rec;
  uint64_t n = 0, last_ts = 0;
  WorkloadShape decoded;
  while (reader.Next(&rec)) {
    n++;
    EXPECT_GE(rec.ts_micros, last_ts) << "timestamps must be monotone";
    last_ts = rec.ts_micros;
    EXPECT_EQ(rec.thread_id, 0u) << "single recording thread gets dense id 0";
    switch (rec.op) {
      case DbOpType::kPut:
        decoded.puts++;
        EXPECT_EQ(rec.outcome, OpOutcome::kOk);
        EXPECT_GT(rec.value_size, 0u);
        break;
      case DbOpType::kDelete:
        decoded.deletes++;
        break;
      case DbOpType::kGet:
        decoded.gets++;
        if (rec.outcome == OpOutcome::kOk) {
          decoded.get_hits++;
          EXPECT_GT(rec.value_size, 0u);
        } else {
          EXPECT_EQ(rec.outcome, OpOutcome::kNotFound);
          decoded.get_misses++;
        }
        break;
      case DbOpType::kWrite:
        decoded.writes++;
        EXPECT_TRUE(rec.key.empty()) << "batch records carry no key";
        EXPECT_GT(rec.value_size, 0u) << "batch records carry the payload size";
        break;
      case DbOpType::kRmw:
        decoded.rmws++;
        // RunMixedWorkload's RMWs alternate: one writes, the next declines.
        EXPECT_EQ(rec.outcome, decoded.rmws % 2 == 1 ? OpOutcome::kOk : OpOutcome::kNotFound);
        break;
    }
    if (rec.op != DbOpType::kWrite) {
      EXPECT_EQ(rec.key.compare(0, 10, "trace-key-"), 0) << rec.key;
    }
  }
  ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
  EXPECT_EQ(n, expected_records);
  EXPECT_EQ(decoded.puts, shape.puts);
  EXPECT_EQ(decoded.deletes, shape.deletes);
  EXPECT_EQ(decoded.gets, shape.gets);
  EXPECT_EQ(decoded.get_hits, shape.get_hits);
  EXPECT_EQ(decoded.get_misses, shape.get_misses);
  EXPECT_EQ(decoded.writes, shape.writes);
  EXPECT_EQ(decoded.rmws, shape.rmws);

  TraceSummary summary;
  ASSERT_TRUE(SummarizeTrace(Env::Default(), trace_path_, &summary).ok());
  EXPECT_EQ(summary.records, expected_records);
  EXPECT_EQ(summary.ops_by_type[static_cast<int>(DbOpType::kPut)], shape.puts);
  EXPECT_EQ(summary.ops_by_type[static_cast<int>(DbOpType::kDelete)], shape.deletes);
  EXPECT_EQ(summary.ops_by_type[static_cast<int>(DbOpType::kGet)], shape.gets);
  EXPECT_EQ(summary.ops_by_type[static_cast<int>(DbOpType::kWrite)], shape.writes);
  EXPECT_EQ(summary.ops_by_type[static_cast<int>(DbOpType::kRmw)], shape.rmws);
  EXPECT_EQ(summary.threads, 1u);
  EXPECT_GT(summary.distinct_keys, 0u);
  EXPECT_FALSE(summary.ToString().empty());

  // The dump format renders one JSON object per record.
  std::string json = TraceRecordToJson(rec);
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"op\""), std::string::npos);
  EXPECT_NE(json.find("\"outcome\""), std::string::npos);
}

TEST_F(TraceRoundTripTest, ReplayReproducesMixAndOutcomes) {
  auto writer = std::make_shared<TraceWriter>(trace_path_);
  WorkloadShape shape;
  {
    Options options;
    options.listeners.push_back(writer);
    std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir_.path() + "/rec");
    shape = RunMixedWorkload(db.get());
  }
  ASSERT_TRUE(writer->Finish().ok());

  // Replay against a fresh store of every variant the factory offers: the
  // trace is the portable workload artifact, not tied to the recorder.
  for (DbVariant variant : {DbVariant::kClsm, DbVariant::kLevelDb}) {
    SCOPED_TRACE(VariantName(variant));
    std::unique_ptr<DB> db = OpenFresh(
        variant, Options(), dir_.path() + "/replay-" + std::string(VariantName(variant)));
    ReplayOptions opts;  // compressed timing, verify outcomes
    ReplayResult result;
    ASSERT_TRUE(ReplayTrace(db.get(), Env::Default(), trace_path_, opts, &result).ok());
    EXPECT_EQ(result.errors, 0u);
    EXPECT_EQ(result.outcome_mismatches, 0u)
        << "replayed found/not-found must match the recording bit-for-bit";
    EXPECT_EQ(result.ops_by_type[static_cast<int>(DbOpType::kPut)], shape.puts);
    EXPECT_EQ(result.ops_by_type[static_cast<int>(DbOpType::kDelete)], shape.deletes);
    EXPECT_EQ(result.ops_by_type[static_cast<int>(DbOpType::kGet)], shape.gets);
    EXPECT_EQ(result.ops_by_type[static_cast<int>(DbOpType::kRmw)], shape.rmws);
    EXPECT_EQ(result.skipped_writes, shape.writes);
    EXPECT_EQ(result.ops, shape.puts + shape.deletes + shape.gets + shape.rmws);
    EXPECT_EQ(static_cast<uint64_t>(result.latency_micros.Num()), result.ops);
  }
}

TEST_F(TraceRoundTripTest, MultiThreadedRecordingGetsDenseThreadIds) {
  auto writer = std::make_shared<TraceWriter>(trace_path_);
  constexpr int kThreads = 3;
  constexpr int kOpsPerThread = 200;
  {
    Options options;
    options.listeners.push_back(writer);
    std::unique_ptr<DB> db = OpenFresh(DbVariant::kClsm, options, dir_.path() + "/mt");
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; t++) {
      workers.emplace_back([&db, t] {
        WriteOptions wo;
        char key[32];
        for (int i = 0; i < kOpsPerThread; i++) {
          snprintf(key, sizeof(key), "t%d-%06d", t, i);
          ASSERT_TRUE(db->Put(wo, key, "v").ok());
        }
      });
    }
    for (auto& w : workers) {
      w.join();
    }
  }
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(writer->records_written(), static_cast<uint64_t>(kThreads * kOpsPerThread));

  TraceSummary summary;
  ASSERT_TRUE(SummarizeTrace(Env::Default(), trace_path_, &summary).ok());
  EXPECT_EQ(summary.records, static_cast<uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(summary.threads, static_cast<uint32_t>(kThreads));

  // Dense ids: exactly [0, kThreads).
  TraceReader reader;
  ASSERT_TRUE(reader.Open(Env::Default(), trace_path_).ok());
  TraceRecord rec;
  std::map<uint32_t, uint64_t> per_thread;
  while (reader.Next(&rec)) {
    per_thread[rec.thread_id]++;
  }
  ASSERT_TRUE(reader.status().ok());
  ASSERT_EQ(per_thread.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, count] : per_thread) {
    EXPECT_LT(tid, static_cast<uint32_t>(kThreads));
    EXPECT_EQ(count, static_cast<uint64_t>(kOpsPerThread));
  }
}

TEST_F(TraceRoundTripTest, ReaderRejectsCorruptMagic) {
  ASSERT_TRUE(WriteStringToFileSync(Env::Default(), "NOTATRACE-at-all", trace_path_).ok());
  TraceReader reader;
  Status s = reader.Open(Env::Default(), trace_path_);
  EXPECT_FALSE(s.ok());
}

TEST_F(TraceRoundTripTest, FinishIsIdempotentAndDropsLateRecords) {
  auto writer = std::make_shared<TraceWriter>(trace_path_);
  OperationInfo info;
  info.op = DbOpType::kPut;
  info.key = Slice("k");
  info.value_size = 1;
  writer->OnOperation(info);
  ASSERT_TRUE(writer->Finish().ok());
  ASSERT_TRUE(writer->Finish().ok());
  writer->OnOperation(info);  // after Finish: dropped, not crashed
  EXPECT_EQ(writer->records_written(), 1u);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, TraceRecordingTest, ::testing::ValuesIn(AllVariants()),
                         [](const ::testing::TestParamInfo<DbVariant>& info) {
                           std::string name = VariantName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace clsm
