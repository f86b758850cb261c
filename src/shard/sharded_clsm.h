// ShardedClsm: N fully independent cLSM instances behind one DB interface.
//
// The paper's scalability story (§2, Figure 1) is per-node multicore
// scaling of ONE store; the deployment story on top is horizontal: hash
// keys across N instances, each with its own WAL, memtable, compaction
// scheduler, write controller and thread-slot registry. Per-shard
// independence is the point — one hot shard's compaction debt throttles
// only that shard's writers (Luo & Carey's stability argument), and
// maintenance parallelism multiplies with the shard count.
//
// What distinguishes this layer from naive partitioning (the §2.2
// drawbacks that bench_fig1_partitioning's hand-split stores exhibit):
//
//  * Atomic cross-shard snapshot cut. Writers hold cut_lock_ in shared
//    mode for the duration of each write; GetSnapshot takes it exclusively
//    and collects per-shard snapshots with no write in flight. Any write
//    completed before the cut is in every member snapshot, and no write
//    issued after the cut is in any of them — so cross-shard invariants
//    (write A then B; batch {A,B}) can never be observed torn. The lock is
//    the paper's own writer-preferring SharedExclusiveLock: snapshot
//    acquisition costs N member getSnap calls under a brief exclusive
//    section, writers pay one uncontended shared acquire.
//  * Merged cross-shard iterators: hash partitioning makes per-shard key
//    sets disjoint, so a plain user-key merge yields one ordered view. An
//    iterator without an explicit snapshot acquires a composite cut and
//    releases it when the iterator is destroyed.
//  * One observability surface: per-shard stats roll up into a single
//    clsm.stats.json document (sums/averages/merged histograms plus the
//    per-shard breakdown) and one /metrics exposition where every family
//    carries a shard="i" label. The wrapper runs the only admin server;
//    member admin ports are forced off.
//
// Members open under dbname/shard0..N-1 via an injected opener (the
// variant factory lives above this layer), so any DB variant shards. Every
// member gets the full configured budget (write buffer, block cache): the
// deployment posture where shards are sized individually. The wrapper is
// named "sharded-" + the members' Name(), e.g. "sharded-clsm".
#ifndef CLSM_SHARD_SHARDED_CLSM_H_
#define CLSM_SHARD_SHARDED_CLSM_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/db.h"
#include "src/server/admin_server.h"
#include "src/sync/shared_exclusive_lock.h"

namespace clsm {

// Opens one member store (signature of baselines/factory.h's OpenDb with
// the variant bound). Injected so this layer stays below the factory.
using ShardOpener =
    std::function<Status(const Options& options, const std::string& dbname, DB** dbptr)>;

struct ShardedOptions {
  int shards = 1;
};

class ShardedClsm final : public DB {
 public:
  // Opens sopt.shards members under dbname/ with `opener`. The wrapper
  // owns the only admin server (options.admin_port); members run with
  // admin disabled and their own everything else.
  static Status Open(const Options& options, const ShardedOptions& sopt,
                     const std::string& dbname, const ShardOpener& opener, DB** dbptr);

  ~ShardedClsm() override;

  Status Put(const WriteOptions& options, const Slice& key, const Slice& value) override;
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key, std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  Status ReadModifyWrite(const WriteOptions& options, const Slice& key, const RmwFunction& f,
                         bool* performed) override;
  const char* Name() const override { return name_.c_str(); }
  // "clsm.stats.json" renders the cross-shard rollup document;
  // "clsm.shard-count" / "clsm.admin-port" answer for the wrapper; any
  // other property concatenates the members' answers, one line per shard.
  std::string GetProperty(const Slice& property) override;
  void ResetStats() override;
  void WaitForMaintenance() override;
  std::shared_ptr<SlowOpRingListener> AttachRpcObservability(
      std::shared_ptr<RpcServerStats> stats, std::shared_ptr<TraceEventListener> trace) override;

  int shards() const { return static_cast<int>(shards_.size()); }
  DB* shard(int i) { return shards_[static_cast<size_t>(i)].get(); }
  size_t ShardFor(const Slice& key) const;

 private:
  struct CompositeSnapshot;

  explicit ShardedClsm(std::vector<std::unique_ptr<DB>> shards);

  Status StartAdmin(const Options& options);
  std::vector<StatsJsonSource> ShardStatsSources();

  std::vector<std::unique_ptr<DB>> shards_;
  const std::string name_;  // DB::Name() and the db="..." exposition label

  // The snapshot-cut lock: writes shared, cuts exclusive (see file
  // comment). Iterators and reads never take it — member snapshots carry
  // their own consistency.
  SharedExclusiveLock cut_lock_;

  std::unique_ptr<AdminServer> admin_;  // non-null iff Options::admin_port >= 0

  // Serving-tier observability, attached late by the KvService fronting
  // this wrapper (the production topology: one service, one sharded DB).
  // The wrapper owns the slow-request ring its /slowops serves — members
  // keep their own engine rings internal.
  RpcAttachment rpc_;
  std::shared_ptr<SlowOpRingListener> rpc_slow_ring_;  // non-null iff admin runs
};

}  // namespace clsm

#endif  // CLSM_SHARD_SHARDED_CLSM_H_
