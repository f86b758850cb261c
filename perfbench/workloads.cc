#include "workloads.h"

#include <filesystem>
#include <optional>

#include "src/core/clsm_db.h"
#include "src/core/write_batch.h"
#include "src/obs/perf_context.h"
#include "src/server/kv_client.h"
#include "src/server/kv_protocol.h"
#include "src/server/kv_service.h"
#include "src/shard/sharded_clsm.h"

namespace perfbench {

using clsm::Status;

namespace {
constexpr size_t kMaxErrors = 8;
}  // namespace

const char* OpName(int kind) {
  static const char* const kNames[kNumOpKinds] = {"put", "get", "scan", "rmw", "batch", "ping"};
  return kNames[kind];
}

void PerfSums::Merge(const PerfSums& o) {
  puts += o.puts;
  put_throttle += o.put_throttle;
  put_lock_getts += o.put_lock_getts;
  put_shared_lock_wait += o.put_shared_lock_wait;
  put_mem_insert += o.put_mem_insert;
  put_wal_append += o.put_wal_append;
  put_total += o.put_total;
  gets += o.gets;
  get_mem_search += o.get_mem_search;
  get_disk_search += o.get_disk_search;
  get_skiplist_nodes += o.get_skiplist_nodes;
  get_table_probes += o.get_table_probes;
  get_block_reads += o.get_block_reads;
  get_cache_hits += o.get_cache_hits;
  get_bloom_skips += o.get_bloom_skips;
}

void ClientStats::Fail(const std::string& why) {
  failed++;
  if (errors.size() < kMaxErrors) {
    errors.push_back(why);
  }
}

void ClientStats::Wrong(const char* why, uint64_t n) {
  wrong += n;
  if (errors.size() < kMaxErrors) {
    errors.push_back(why);
  }
}

void ClientCtx::Done(int kind, const char* span, uint64_t t0, uint64_t t1, uint64_t span_id) {
  stats->attempted++;
  stats->ops[kind].Add(t1 - t0);
  if (traced) {
    stats->spans->Record(span, t0, t1, span_id, 0);
  }
}

Workload::~Workload() = default;

Status Workload::Open() {
  clsm::DB* raw = nullptr;
  Status s;
  if (shards_ == 0) {
    s = clsm::ClsmDb::Open(options_, dir_, &raw);
  } else {
    clsm::ShardedOptions sopt;
    sopt.shards = shards_;
    s = clsm::ShardedClsm::Open(options_, sopt, dir_, &clsm::ClsmDb::Open, &raw);
  }
  db_.reset(raw);
  return s;
}

void Workload::Close() { db_.reset(); }

Status Workload::Setup(const std::string& dir, const clsm::Options& options) {
  Close();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  dir_ = dir;
  options_ = options;
  ver_.assign(num_keys_, 0);
  Status s = Open();
  if (!s.ok()) {
    return s;
  }
  // One writer in key order: level-0 tables do not overlap, so the load
  // costs flushes and file moves rather than merges.
  Rng rng(SubSeed(seed_, 1));
  std::string value;
  for (uint64_t i = 0; i < num_keys_; i++) {
    if (!Preloaded(i)) {
      continue;
    }
    MakeValue(PreloadFields(i), rng.Next(), &value);
    s = db_->Put(clsm::WriteOptions(), EncodeKey(i), value);
    if (!s.ok()) {
      return s;
    }
    ver_[i] = 1;
  }
  return Quiesce();
}

ValueFields Workload::PreloadFields(uint64_t index) const {
  ValueFields f;
  f.key_index = index;
  f.version = 1;
  return f;
}

Status Workload::Quiesce() {
  Close();
  Status s = Open();
  if (s.ok()) {
    db_->WaitForMaintenance();
  }
  return s;
}

std::string Workload::StatsJson() { return db_->GetProperty("clsm.stats.json"); }

uint64_t Workload::LiveKeys() const {
  uint64_t n = 0;
  for (uint32_t v : ver_) {
    n += v != 0;
  }
  return n;
}

const char* Workload::AuditRow(const ValueFields& f) {
  const uint32_t expected = ver_[f.key_index];
  if (expected == 0) {
    return "audit found a key that was never written";
  }
  if (expected != kUnknown && f.version != expected) {
    return "audit read a stale or lost write";
  }
  return nullptr;
}

void Workload::Audit(uint64_t increments, ClientStats* out) {
  std::unique_ptr<clsm::Iterator> it(db_->NewIterator(clsm::ReadOptions()));
  uint64_t matched = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    out->attempted++;
    uint64_t index = 0;
    const clsm::Slice k = it->key();
    const clsm::Slice v = it->value();
    if (!DecodeKey(std::string_view(k.data(), k.size()), &index) || index >= num_keys_) {
      out->Wrong("audit found a key outside the key space");
      continue;
    }
    matched += ver_[index] != 0;
    ValueFields f;
    const char* why = CheckValue(index, std::string_view(v.data(), v.size()), &f);
    if (why == nullptr) {
      why = AuditRow(f);
    }
    if (why != nullptr) {
      out->Wrong(why);
    }
  }
  if (!it->status().ok()) {
    out->Fail("audit scan: " + it->status().ToString());
  }
  const uint64_t live = LiveKeys();
  if (matched < live) {
    out->attempted += live - matched;
    out->Wrong("audit missed acknowledged keys", live - matched);
  }
  if (const char* why = AuditFinal(increments)) {
    out->attempted++;
    out->Wrong(why);
  }
}

uint32_t Workload::PrepareWrite(ClientCtx& c, uint64_t index) {
  ValueFields f;
  f.key_index = index;
  f.version = NextVersion(ver_[index]);
  MakeValue(f, c.rng.Next(), &c.value);
  EncodeKey(index, c.key.data());
  return static_cast<uint32_t>(f.version);
}

void Workload::FinishWrite(ClientCtx& c, uint64_t index, uint32_t version, const Status& s) {
  const uint32_t prev = ver_[index];
  ver_[index] = s.ok() ? version : kUnknown;
  if (!s.ok()) {
    c.stats->Fail("put: " + s.ToString());
    return;
  }
  c.Acked(prev);
}

void Workload::Put(ClientCtx& c, uint64_t index) {
  ClientStats& st = *c.stats;
  const uint32_t version = PrepareWrite(c, index);
  const uint64_t id = c.traced ? st.spans->NewId() : 0;
  const uint64_t t0 = NowNanos();
  Status s = db_->Put(clsm::WriteOptions(), c.key, c.value);
  const uint64_t t1 = NowNanos();
  c.Done(kOpPut, "op.put", t0, t1, id);
  if (c.traced) {
    const clsm::PerfContext& p = *clsm::GetPerfContext();
    PerfSums& ps = st.perf;
    ps.puts++;
    ps.put_throttle += p.throttle_nanos;
    ps.put_lock_getts += p.lock_getts_nanos;
    ps.put_shared_lock_wait += p.shared_lock_wait_nanos;
    ps.put_mem_insert += p.mem_insert_nanos;
    ps.put_wal_append += p.wal_append_nanos;
    ps.put_total += t1 - t0;
  }
  FinishWrite(c, index, version, s);
}

void Workload::Get(ClientCtx& c, uint64_t index) {
  ClientStats& st = *c.stats;
  EncodeKey(index, c.key.data());
  const uint64_t id = c.traced ? st.spans->NewId() : 0;
  const uint64_t t0 = NowNanos();
  Status s = db_->Get(clsm::ReadOptions(), c.key, &c.read);
  const uint64_t t1 = NowNanos();
  c.Done(kOpGet, "op.get", t0, t1, id);
  if (c.traced) {
    const clsm::PerfContext& p = *clsm::GetPerfContext();
    PerfSums& ps = st.perf;
    ps.gets++;
    ps.get_mem_search += p.mem_search_nanos;
    ps.get_disk_search += p.disk_search_nanos;
    ps.get_skiplist_nodes += p.skiplist_search_nodes;
    for (uint64_t n : p.table_reads_per_level) {
      ps.get_table_probes += n;
    }
    ps.get_block_reads += p.block_reads;
    ps.get_cache_hits += p.block_cache_hits;
    ps.get_bloom_skips += p.bloom_useful;
  }
  CheckRead(c, index, s, c.read);
}

void Workload::CheckRead(ClientCtx& c, uint64_t index, const Status& s,
                         const std::string& value) {
  ClientStats& st = *c.stats;
  if (s.IsNotFound()) {
    st.Wrong("get missed a preloaded key");
    return;
  }
  if (!s.ok()) {
    st.Fail("get: " + s.ToString());
    return;
  }
  ValueFields f;
  if (const char* why = CheckValue(index, value, &f)) {
    st.Wrong(why);
    return;
  }
  if (const char* why = CheckReadFields(f)) {
    st.Wrong(why);
    return;
  }
  if (OwnedBy(index, c.id)) {
    const uint32_t expected = ver_[index];
    if (expected != kUnknown && f.version != expected) {
      st.Wrong("get missed the client's own last write");
    }
  }
}

namespace {

// 100% Put, uniform over 2M keys with every 10th key preloaded: the whole
// write pipeline (throttle, lock and getTS, skip-list insert, WAL, rolls,
// flushes, compactions) and nothing on the read path.
class WriteUniform final : public Workload {
 public:
  explicit WriteUniform(uint64_t seed) : Workload(seed, 2'000'000, 0) {}
  void Op(ClientCtx& c) override { Put(c, Own(c.rng.Uniform(num_keys_), c.id)); }

 protected:
  bool Preloaded(uint64_t index) const override { return index % 10 == 0; }
};

// 95% Get / 5% Put, hot-block 90/10 over 500K preloaded keys (~130 MB of
// tables against the 8 MiB block cache, hot keys in every block): version
// lookup, bloom filters, block cache and block reads, with enough writes to
// keep flushes and compactions churning the caches.
class ReadHotblock final : public Workload {
 public:
  explicit ReadHotblock(uint64_t seed) : Workload(seed, 500'000, 0) {}
  void Op(ClientCtx& c) override {
    if (c.rng.NextDouble() < 0.05) {
      Put(c, Own(HotBlock(c.rng, num_keys_), c.id));
    } else {
      Get(c, HotBlock(c.rng, num_keys_));
    }
  }

 protected:
  bool Preloaded(uint64_t) const override { return true; }
};

// Zipfian 0.99 over 20K keys (fits in memtable plus cache): 30% snapshot
// scans of 10-20 keys, 30% RMW counter increments, 10% atomic 4-key batches,
// 30% Get. Exercises getSnap and the Active set, RMW conflicts on hot keys
// and batches under the exclusive lock. The batches log asynchronously like
// every other write: with sync=true the run's throughput followed the disk's
// fsync latency, which on a shared disk moved by 30-50% between runs.
class TxnMixed final : public Workload {
 public:
  static constexpr uint64_t kKeys = 20'000;
  static constexpr uint64_t kGroups = kKeys / kGroupStride;
  static constexpr uint64_t kCounters = kKeys / kGroupStride * (kGroupStride - kGroupSize);

  explicit TxnMixed(uint64_t seed)
      : Workload(seed, kKeys, 0),
        keys_(kKeys, 0.99, SubSeed(seed, 11)),
        groups_(kGroups, 0.99, SubSeed(seed, 12)),
        counters_(kCounters, 0.99, SubSeed(seed, 13)) {}

  void Op(ClientCtx& c) override {
    const double r = c.rng.NextDouble();
    if (r < 0.3) {
      Scan(c);
    } else if (r < 0.6) {
      Rmw(c);
    } else if (r < 0.7) {
      Batch(c);
    } else {
      Get(c, keys_.Next(c.rng));
    }
  }

 protected:
  bool Preloaded(uint64_t) const override { return true; }

  ValueFields PreloadFields(uint64_t index) const override {
    ValueFields f = Workload::PreloadFields(index);
    if (IsGroupKey(index)) {
      f.tag = GroupTag(GroupOf(index), 1);
    }
    return f;
  }

  bool OwnedBy(uint64_t index, int c) const override {
    return IsGroupKey(index) && GroupOf(index) % kClients == static_cast<uint64_t>(c);
  }

  const char* CheckReadFields(const ValueFields& f) const override {
    if (IsGroupKey(f.key_index)) {
      return f.tag == GroupTag(GroupOf(f.key_index), f.version) ? nullptr
                                                                : "group key carries a foreign tag";
    }
    return f.version == f.counter + 1 ? nullptr : "counter version and count disagree";
  }

  const char* AuditRow(const ValueFields& f) override {
    if (const char* why = CheckReadFields(f)) {
      return why;
    }
    if (!IsGroupKey(f.key_index)) {
      counter_sum_ += f.counter;  // shared by all clients: checked by sum
      return nullptr;
    }
    return Workload::AuditRow(f);
  }

  const char* AuditFinal(uint64_t increments) override {
    const char* why = CheckCounterSum(counter_sum_, increments);
    counter_sum_ = 0;
    return why;
  }

 private:
  void Scan(ClientCtx& c) {
    ClientStats& st = *c.stats;
    const uint64_t start = keys_.Next(c.rng);
    const uint32_t limit = 10 + static_cast<uint32_t>(c.rng.Uniform(11));
    if (c.rows.size() < limit) {
      c.rows.resize(limit);
    }
    EncodeKey(start, c.key.data());
    const uint64_t id = c.traced ? st.spans->NewId() : 0;
    const uint64_t t0 = NowNanos();
    std::unique_ptr<clsm::Iterator> it(db_->NewIterator(clsm::ReadOptions()));
    it->Seek(c.key);
    if (c.traced) {
      st.spans->Record("scan.open", t0, NowNanos(), st.spans->NewId(), id);
    }
    size_t n = 0;
    for (; n < limit && it->Valid(); n++) {
      c.rows[n].first.assign(it->key().data(), it->key().size());
      c.rows[n].second.assign(it->value().data(), it->value().size());
      if (c.traced) {
        const uint64_t n0 = NowNanos();
        it->Next();
        st.spans->Record("scan.next", n0, NowNanos(), st.spans->NewId(), id);
      } else {
        it->Next();
      }
    }
    const Status s = it->status();
    it.reset();
    c.Done(kOpScan, "op.scan", t0, NowNanos(), id);
    if (!s.ok()) {
      st.Fail("scan: " + s.ToString());
    } else if (const char* why = CheckScan(start, limit, num_keys_, true, c.rows, n)) {
      st.Wrong(why);
    }
  }

  void Rmw(ClientCtx& c) {
    ClientStats& st = *c.stats;
    const uint64_t ci = counters_.Next(c.rng);
    const uint64_t index = ci / kGroupSize * kGroupStride + kGroupSize + ci % kGroupSize;
    const char* bad = nullptr;
    const clsm::RmwFunction increment =
        [index, &bad](const std::optional<clsm::Slice>& cur) -> std::optional<std::string> {
      if (!cur.has_value()) {
        bad = "rmw found its counter missing";
        return std::nullopt;
      }
      ValueFields f;
      bad = CheckValue(index, std::string_view(cur->data(), cur->size()), &f);
      if (bad != nullptr) {
        return std::nullopt;
      }
      std::string next(cur->data(), cur->size());
      RewriteValue(f.version + 1, f.counter + 1, &next);
      return next;
    };
    EncodeKey(index, c.key.data());
    bool performed = false;
    const uint64_t id = c.traced ? st.spans->NewId() : 0;
    const uint64_t t0 = NowNanos();
    const Status s = db_->ReadModifyWrite(clsm::WriteOptions(), c.key, increment, &performed);
    c.Done(kOpRmw, "op.rmw", t0, NowNanos(), id);
    if (!s.ok()) {
      st.Fail("rmw: " + s.ToString());
    } else if (bad != nullptr) {
      st.Wrong(bad);
    } else if (!performed) {
      st.Wrong("rmw did not write");
    } else {
      st.increments++;
      st.user_writes++;
    }
  }

  void Batch(ClientCtx& c) {
    ClientStats& st = *c.stats;
    const uint64_t group = Own(groups_.Next(c.rng), c.id);
    const uint64_t first = group * kGroupStride;
    const uint32_t next = NextVersion(ver_[first]);
    clsm::WriteBatch batch;
    for (uint64_t i = first; i < first + kGroupSize; i++) {
      ValueFields f;
      f.key_index = i;
      f.version = next;
      f.tag = GroupTag(group, next);
      MakeValue(f, c.rng.Next(), &c.value);
      batch.Put(EncodeKey(i), c.value);
    }
    const uint64_t id = c.traced ? st.spans->NewId() : 0;
    const uint64_t t0 = NowNanos();
    const Status s = db_->Write(clsm::WriteOptions(), &batch);
    c.Done(kOpBatch, "op.batch", t0, NowNanos(), id);
    for (uint64_t i = first; i < first + kGroupSize; i++) {
      ver_[i] = s.ok() ? next : kUnknown;
    }
    if (!s.ok()) {
      st.Fail("batch: " + s.ToString());
      return;
    }
    st.user_writes += kGroupSize;
  }

  Zipfian keys_;
  Zipfian groups_;
  Zipfian counters_;
  uint64_t counter_sum_ = 0;
};

// 50% Get / 40% Put / 10% Scan(10), uniform over 200K preloaded keys, sent
// by KvClient connections over loopback to an in-process KvService on a
// 4-shard ShardedClsm: the codec, per-connection server threads and shard
// routing on top of the engine.
class WireMixed final : public Workload {
 public:
  explicit WireMixed(uint64_t seed) : Workload(seed, 200'000, 4) {}
  ~WireMixed() override { EndPhase(); }

  Status BeginPhase(bool traced,
                    const std::shared_ptr<clsm::TraceEventListener>& trace) override {
    clsm::KvServiceConfig config;
    if (traced) {
      config.trace = trace;
      config.trace_sample_rate = 0.01;
    }
    service_ = std::make_unique<clsm::KvService>(db_.get(), config);
    Status s = service_->Start("127.0.0.1", 0);
    for (int i = 0; s.ok() && i < kClients; i++) {
      s = clients_[i].Connect("127.0.0.1", service_->port());
    }
    return s;
  }

  void EndPhase() override {
    for (clsm::KvClient& client : clients_) {
      client.Close();
    }
    service_.reset();
  }

  void Op(ClientCtx& c) override {
    ClientStats& st = *c.stats;
    clsm::KvClient& client = clients_[c.id];
    if (c.traced && st.attempted % 100 == 99) {
      Ping(c, client);
      return;
    }
    const double r = c.rng.NextDouble();
    const uint64_t id = c.traced ? st.spans->NewId() : 0;
    if (r < 0.5) {
      const uint64_t index = c.rng.Uniform(num_keys_);
      EncodeKey(index, c.key.data());
      const uint64_t t0 = NowNanos();
      const Status s = client.Get(c.key, &c.read);
      c.Done(kOpGet, "kv.get", t0, NowNanos(), id);
      CheckRead(c, index, s, c.read);
    } else if (r < 0.9) {
      const uint64_t index = Own(c.rng.Uniform(num_keys_), c.id);
      const uint32_t version = PrepareWrite(c, index);
      const uint64_t t0 = NowNanos();
      const Status s = client.Put(c.key, c.value);
      c.Done(kOpPut, "kv.put", t0, NowNanos(), id);
      FinishWrite(c, index, version, s);
    } else {
      const uint64_t start = c.rng.Uniform(num_keys_);
      EncodeKey(start, c.key.data());
      const uint64_t t0 = NowNanos();
      const Status s = client.Scan(c.key, std::string(), kScanLimit, 0, &c.rows);
      c.Done(kOpScan, "kv.scan", t0, NowNanos(), id);
      if (!s.ok()) {
        st.Fail("scan: " + s.ToString());
      } else if (const char* why =
                     CheckScan(start, kScanLimit, num_keys_, false, c.rows, c.rows.size())) {
        st.Wrong(why);
      }
    }
  }

  // Encode+decode of the workload's own request and response frames, timed
  // apart from the socket path; every frame must decode to what was encoded.
  void TracedExtras(Json* j, SpanLog* spans, ClientStats* checks) override {
    Rng rng(SubSeed(seed_, 21));
    constexpr int kFrames = 20000;
    std::string value;
    uint64_t nanos = 0;
    for (int i = 0; i < kFrames; i++) {
      const double r = rng.NextDouble();
      const uint64_t index = rng.Uniform(num_keys_);
      clsm::KvRequest req;
      clsm::KvResponse resp;
      ValueFields f;
      f.key_index = index;
      f.version = 1;
      MakeValue(f, rng.Next(), &value);
      if (r < 0.5) {
        req.opcode = clsm::kKvGet;
        req.key = EncodeKey(index);
        resp.value = value;
      } else if (r < 0.9) {
        req.opcode = clsm::kKvPut;
        req.key = EncodeKey(index);
        req.value = value;
      } else {
        req.opcode = clsm::kKvScan;
        req.start = EncodeKey(index);
        req.limit = kScanLimit;
        for (uint64_t k = index; k < index + kScanLimit; k++) {
          resp.pairs.emplace_back(EncodeKey(k), value);
        }
      }
      clsm::KvRequest req_back;
      clsm::KvResponse resp_back;
      const uint64_t t0 = NowNanos();
      const bool req_ok = clsm::DecodeKvRequest(clsm::EncodeKvRequest(req), &req_back);
      const uint64_t t1 = NowNanos();
      const std::string resp_frame = clsm::EncodeKvResponse(resp);
      const bool resp_ok = clsm::DecodeKvResponse(resp_frame, &resp_back);
      const uint64_t t2 = NowNanos();
      // The generic response decoder keeps the body raw (KvClient parses it
      // knowing the request), so the status and body length must survive.
      checks->attempted++;
      if (!req_ok || !resp_ok || req_back.opcode != req.opcode || req_back.key != req.key ||
          req_back.value != req.value || req_back.start != req.start ||
          req_back.limit != req.limit || resp_back.status != resp.status ||
          resp_back.message.size() + 1 != resp_frame.size()) {
        checks->Wrong("codec round trip changed a frame");
      }
      spans->Record("codec.request", t0, t1, spans->NewId(), 0);
      spans->Record("codec.response", t1, t2, spans->NewId(), 0);
      nanos += t2 - t0;
    }
    j->Num("codec_ns_per_frame", static_cast<double>(nanos) / (2.0 * kFrames));
  }

 protected:
  bool Preloaded(uint64_t) const override { return true; }

 private:
  static constexpr uint32_t kScanLimit = 10;

  void Ping(ClientCtx& c, clsm::KvClient& client) {
    static const std::string kEcho = "perfbench";
    const uint64_t id = c.stats->spans->NewId();
    const uint64_t t0 = NowNanos();
    const Status s = client.Ping(kEcho, nullptr, &c.read);
    c.Done(kOpPing, "kv.ping", t0, NowNanos(), id);
    if (!s.ok()) {
      c.stats->Fail("ping: " + s.ToString());
    } else if (c.read != kEcho) {
      c.stats->Wrong("ping echo mismatch");
    }
  }

  std::unique_ptr<clsm::KvService> service_;
  clsm::KvClient clients_[kClients];
};

}  // namespace

std::unique_ptr<Workload> Workload::Make(const std::string& name, uint64_t seed) {
  if (name == "write_uniform") return std::make_unique<WriteUniform>(seed);
  if (name == "read_hotblock") return std::make_unique<ReadHotblock>(seed);
  if (name == "txn_mixed") return std::make_unique<TxnMixed>(seed);
  if (name == "wire_mixed") return std::make_unique<WireMixed>(seed);
  return nullptr;
}

}  // namespace perfbench
