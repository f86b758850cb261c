#include "src/server/kv_service.h"

#include <sys/socket.h>

#include <cinttypes>
#include <cstdio>

#include "src/obs/metrics.h"
#include "src/obs/perf_context.h"
#include "src/server/kv_protocol.h"
#include "src/util/coding.h"
#include "src/util/env.h"

namespace clsm {

namespace {

// Wire opcode -> metrics series. Unknown opcodes (and undecodable frames,
// which never yield an opcode) land in kOther so malformed traffic is
// still accounted per series.
RpcOp RpcOpFromOpcode(uint8_t opcode) {
  switch (opcode) {
    case kKvGet:
      return RpcOp::kGet;
    case kKvPut:
      return RpcOp::kPut;
    case kKvDelete:
      return RpcOp::kDelete;
    case kKvScan:
      return RpcOp::kScan;
    case kKvSnapCreate:
      return RpcOp::kSnapCreate;
    case kKvSnapRelease:
      return RpcOp::kSnapRelease;
    case kKvStats:
      return RpcOp::kStats;
    case kKvPing:
      return RpcOp::kPing;
    default:
      return RpcOp::kOther;
  }
}

RpcStatusClass StatusClassOf(uint8_t wire_status) {
  switch (wire_status) {
    case kKvOk:
      return RpcStatusClass::kOk;
    case kKvNotFoundStatus:
      return RpcStatusClass::kNotFound;
    case kKvError:
      return RpcStatusClass::kError;
    default:
      return RpcStatusClass::kBadRequest;
  }
}

// Static span names for the trace ring (it stores the pointer). The
// per-opcode marker names the sampled request on the timeline; the phase
// spans carve it into decode/db/encode/write.
const char* RpcOpSpanName(RpcOp op) {
  switch (op) {
    case RpcOp::kGet:
      return "rpc.get";
    case RpcOp::kPut:
      return "rpc.put";
    case RpcOp::kDelete:
      return "rpc.delete";
    case RpcOp::kScan:
      return "rpc.scan";
    case RpcOp::kSnapCreate:
      return "rpc.snap_create";
    case RpcOp::kSnapRelease:
      return "rpc.snap_release";
    case RpcOp::kStats:
      return "rpc.stats";
    case RpcOp::kPing:
      return "rpc.ping";
    case RpcOp::kOther:
      return "rpc.other";
  }
  return "rpc.other";
}

// One request's worth of context, threaded from frame decode to response
// write: identity, phase boundaries (monotonic nanos), byte counts, and
// the classification the metrics/slow-capture paths key off.
struct RpcContext {
  uint64_t request_id = 0;
  RpcOp op = RpcOp::kOther;
  RpcStatusClass status = RpcStatusClass::kOk;
  uint64_t key_prefix_hash = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  bool traced = false;
  // Phase boundaries: start -> decoded -> db_done -> encoded -> written.
  uint64_t start_nanos = 0;
  uint64_t decoded_nanos = 0;
  uint64_t db_done_nanos = 0;
  uint64_t encoded_nanos = 0;
  uint64_t written_nanos = 0;
};

// The slow-request record (docs/TESTING.md documents the fields): the RPC
// analogue of SlowOpToJson, carrying request identity, phase timers and
// the handling thread's PerfContext snapshot from the DB call.
std::string SlowRpcRequestToJson(const RpcContext& ctx, const PerfContext& perf,
                                 uint64_t wall_micros, uint64_t suppressed) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"ts_micros\":%" PRIu64 ",\"rpc\":true,\"request_id\":%" PRIu64
      ",\"op\":\"%s\",\"status\":\"%s\",\"key_prefix_hash\":\"%016" PRIx64
      "\",\"latency_micros\":%" PRIu64 ",\"decode_micros\":%" PRIu64 ",\"db_micros\":%" PRIu64
      ",\"encode_micros\":%" PRIu64 ",\"write_micros\":%" PRIu64 ",\"bytes_in\":%" PRIu64
      ",\"bytes_out\":%" PRIu64 ",\"suppressed\":%" PRIu64 ",\"perf\":",
      wall_micros, ctx.request_id, RpcOpName(ctx.op), RpcStatusClassName(ctx.status),
      ctx.key_prefix_hash, (ctx.written_nanos - ctx.start_nanos) / 1000,
      (ctx.decoded_nanos - ctx.start_nanos) / 1000,
      (ctx.db_done_nanos - ctx.decoded_nanos) / 1000,
      (ctx.encoded_nanos - ctx.db_done_nanos) / 1000,
      (ctx.written_nanos - ctx.encoded_nanos) / 1000, ctx.bytes_in, ctx.bytes_out, suppressed);
  std::string out(buf);
  out.append(perf.ToJson());
  out.push_back('}');
  return out;
}

uint32_t SampleRateToPpm(double rate) {
  if (rate <= 0.0) {
    return 0;
  }
  if (rate >= 1.0) {
    return 1'000'000;
  }
  return static_cast<uint32_t>(rate * 1e6);
}

}  // namespace

KvService::KvService(DB* db, int max_connections)
    : KvService(db, [max_connections] {
        KvServiceConfig c;
        c.max_connections = max_connections;
        return c;
      }()) {}

KvService::KvService(DB* db, const KvServiceConfig& config)
    : db_(db),
      slow_threshold_nanos_(config.slow_threshold_micros * 1000),
      stats_(std::make_shared<RpcServerStats>()),
      trace_(config.trace),
      slow_limiter_(config.slow_max_per_sec),
      tcp_([this](int fd) { HandleConnection(fd); },
           [this](int fd) {
             stats_->Add(RpcCounter::kSheds);
             KvResponse shed;
             shed.status = kKvError;
             shed.message = "server connection limit reached";
             // The accept loop clamped SO_SNDTIMEO before calling us, so a
             // stalled client fails this write fast instead of freezing
             // accepts (WriteKvFrame treats EAGAIN as an error).
             WriteKvFrame(fd, EncodeKvResponse(shed));
           }) {
  stats_->SetTraceSamplePpm(SampleRateToPpm(config.trace_sample_rate));
  tcp_.set_max_connections(config.max_connections);
  // Long-lived client connections are the norm here (unlike the admin
  // server's one-shot scrapes); idle just means the client has no traffic.
  tcp_.set_idle_timeout_seconds(60);
}

Status KvService::Start(const std::string& bind_address, int port) {
  // Attach before serving so the first request is already visible on the
  // DB's stats/admin surfaces. The handles are shared_ptrs: scrapes keep
  // working after the service stops.
  slow_ring_ = db_->AttachRpcObservability(stats_, trace_);
  return tcp_.Start(bind_address, port);
}

void KvService::ExecuteRequest(const KvRequest& req, KvResponse* resp,
                               std::map<uint64_t, const Snapshot*>* snapshots,
                               uint64_t* next_snap_id) {
  switch (req.opcode) {
    case kKvGet: {
      ReadOptions ro;
      if (req.snap_id != 0) {
        auto it = snapshots->find(req.snap_id);
        if (it == snapshots->end()) {
          resp->status = kKvBadRequest;
          resp->message = "unknown snapshot id";
          break;
        }
        ro.snapshot = it->second;
      }
      Status s = db_->Get(ro, req.key, &resp->value);
      if (s.IsNotFound()) {
        resp->status = kKvNotFoundStatus;
      } else if (!s.ok()) {
        resp->status = kKvError;
        resp->message = s.ToString();
      }
      break;
    }
    case kKvPut: {
      Status s = db_->Put(WriteOptions(), req.key, req.value);
      if (!s.ok()) {
        resp->status = kKvError;
        resp->message = s.ToString();
      }
      break;
    }
    case kKvDelete: {
      Status s = db_->Delete(WriteOptions(), req.key);
      if (!s.ok()) {
        resp->status = kKvError;
        resp->message = s.ToString();
      }
      break;
    }
    case kKvScan: {
      ReadOptions ro;
      if (req.snap_id != 0) {
        auto it = snapshots->find(req.snap_id);
        if (it == snapshots->end()) {
          resp->status = kKvBadRequest;
          resp->message = "unknown snapshot id";
          break;
        }
        ro.snapshot = it->second;
      }
      uint32_t limit = req.limit == 0 ? kDefaultScanLimit : req.limit;
      if (limit > kMaxScanLimit) limit = kMaxScanLimit;
      std::unique_ptr<Iterator> iter(db_->NewIterator(ro));
      if (req.start.empty()) {
        iter->SeekToFirst();
      } else {
        iter->Seek(req.start);
      }
      for (; iter->Valid() && resp->pairs.size() < limit; iter->Next()) {
        Slice key = iter->key();
        if (!req.end.empty() && key.compare(Slice(req.end)) >= 0) {
          break;
        }
        resp->pairs.emplace_back(key.ToString(), iter->value().ToString());
      }
      if (!iter->status().ok()) {
        *resp = KvResponse();
        resp->status = kKvError;
        resp->message = iter->status().ToString();
      }
      break;
    }
    case kKvSnapCreate: {
      resp->snap_id = (*next_snap_id)++;
      (*snapshots)[resp->snap_id] = db_->GetSnapshot();
      break;
    }
    case kKvSnapRelease: {
      auto it = snapshots->find(req.snap_id);
      if (it == snapshots->end()) {
        resp->status = kKvBadRequest;
        resp->message = "unknown snapshot id";
        break;
      }
      db_->ReleaseSnapshot(it->second);
      snapshots->erase(it);
      break;
    }
    case kKvStats: {
      resp->message = db_->GetProperty("clsm.stats.json");
      break;
    }
    case kKvPing: {
      // Echo + server monotonic timestamp: the cheapest possible health
      // probe, and an RTT baseline against server-side time.
      PutFixed64(&resp->value, MonotonicNanos() / 1000);
      resp->value.append(req.key);
      break;
    }
    default: {
      resp->status = kKvBadRequest;
      resp->message = "unknown opcode";
      break;
    }
  }
}

void KvService::HandleConnection(int fd) {
  stats_->Add(RpcCounter::kConnections);
  stats_->connections_active.fetch_add(1, std::memory_order_relaxed);

  // Per-connection snapshot table. Ids are connection-local and never
  // reused within one; 0 is reserved for "latest".
  std::map<uint64_t, const Snapshot*> snapshots;
  uint64_t next_snap_id = 1;

  std::string payload;
  bool drop = false;
  // The blocking wait for the next frame is the client's idle time, not
  // request latency: the context clock starts once a frame has arrived.
  while (!drop && ReadKvFrame(fd, &payload).ok()) {
    RpcContext ctx;
    ctx.start_nanos = MonotonicNanos();
    ctx.request_id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
    ctx.bytes_in = 4 + payload.size();  // frame header + payload
    ctx.traced = trace_ != nullptr && stats_->SampleTrace();
    stats_->in_flight.fetch_add(1, std::memory_order_relaxed);
    if (ctx.traced) {
      trace_->AppendSpanBegin("rpc.req", ctx.request_id);
      trace_->AppendSpanBegin("rpc.decode", ctx.request_id);
    }

    KvRequest req;
    KvResponse resp;
    const bool decoded = DecodeKvRequest(Slice(payload), &req);
    if (ctx.traced) {
      trace_->AppendSpanEnd("rpc.decode", payload.size());
    }
    ctx.decoded_nanos = MonotonicNanos();

    if (decoded) {
      ctx.op = RpcOpFromOpcode(req.opcode);
      ctx.key_prefix_hash = SlowOpKeyPrefixHash(Slice(req.key));
      if (ctx.traced) {
        trace_->AppendInstant(RpcOpSpanName(ctx.op), ctx.request_id);
        trace_->AppendSpanBegin("rpc.db", ctx.key_prefix_hash);
      }
      ExecuteRequest(req, &resp, &snapshots, &next_snap_id);
      if (ctx.traced) {
        trace_->AppendSpanEnd("rpc.db", ctx.request_id);
      }
    } else {
      resp.status = kKvBadRequest;
      resp.message = "undecodable request frame";
      drop = true;  // framing is desynced; drop the connection after replying
    }
    ctx.db_done_nanos = MonotonicNanos();
    ctx.status = StatusClassOf(resp.status);

    // Snapshot the handling thread's per-op attribution NOW — the DB call
    // just populated it — in case this request turns out slow. Only the
    // copy is paid per request; rendering waits for the verdict.
    PerfContext perf;
    if (slow_threshold_nanos_ != 0) {
      perf = tls_perf_context;
    }

    if (ctx.traced) {
      trace_->AppendSpanBegin("rpc.encode", ctx.request_id);
    }
    const std::string out = EncodeKvResponse(resp);
    if (ctx.traced) {
      trace_->AppendSpanEnd("rpc.encode", out.size());
    }
    ctx.encoded_nanos = MonotonicNanos();
    ctx.bytes_out = 4 + out.size();

    if (ctx.traced) {
      trace_->AppendSpanBegin("rpc.write", ctx.request_id);
    }
    const bool write_ok = WriteKvFrame(fd, Slice(out)).ok();
    if (ctx.traced) {
      trace_->AppendSpanEnd("rpc.write", out.size());
      trace_->AppendSpanEnd("rpc.req", ctx.request_id);
      stats_->Add(RpcCounter::kTraceSpans);
    }
    ctx.written_nanos = MonotonicNanos();

    stats_->RecordRequest(ctx.op, ctx.status, ctx.written_nanos - ctx.start_nanos,
                          ctx.bytes_in, ctx.bytes_out);
    stats_->in_flight.fetch_sub(1, std::memory_order_relaxed);

    if (slow_threshold_nanos_ != 0 &&
        ctx.written_nanos - ctx.start_nanos >= slow_threshold_nanos_) {
      stats_->Add(RpcCounter::kSlowRequests);
      const uint64_t now_micros = Env::Default()->NowMicros();
      if (slow_limiter_.Admit(now_micros)) {
        stats_->Add(RpcCounter::kSlowReported);
        if (slow_ring_ != nullptr) {
          slow_ring_->Append(
              SlowRpcRequestToJson(ctx, perf, now_micros, slow_limiter_.suppressed()));
        }
      } else {
        stats_->Add(RpcCounter::kSlowSuppressed);
      }
    }

    if (!write_ok) {
      break;
    }
  }

  for (auto& entry : snapshots) {
    db_->ReleaseSnapshot(entry.second);
  }
  ::shutdown(fd, SHUT_RDWR);
  stats_->connections_active.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace clsm
