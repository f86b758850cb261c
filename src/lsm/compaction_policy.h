// Compaction input selection as a replaceable strategy (DESIGN.md
// "Compaction policies"). VersionSet::PickCompaction delegates to the
// policy chosen by Options::compaction_policy; the policy decides WHICH
// files merge (and into which level), while VersionSet keeps owning the
// disjointness bookkeeping (level_busy_ / inflight_files_) and the
// engine keeps owning HOW the merge executes.
//
// Contract of Pick(): called with vset->pick_mutex_ held and `v` pinned
// by the caller. The policy may only select inputs at levels whose
// level_busy_ flags are clear — together with "a job owns its input and
// output level until destruction" this keeps concurrent jobs disjoint by
// construction (grandparent metadata two levels down is exempt: it is a
// read-only heuristic snapshot, never a merge input). On success the
// returned Compaction's input_version_ has taken the caller's reference;
// on nullptr the caller unrefs. The caller registers the job in-flight.
#ifndef CLSM_LSM_COMPACTION_POLICY_H_
#define CLSM_LSM_COMPACTION_POLICY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/lsm/dbformat.h"
#include "src/lsm/version_set.h"
#include "src/util/options.h"

namespace clsm {

// Monotonic input-selection counters for one level, exported per level in
// the "compaction" block of clsm.stats.json and as clsm_* Prometheus
// families. Written under pick_mutex_ (plus output_splits from the worker
// running the job); read lock-free by stats exporters.
struct CompactionPickerLevelStats {
  std::atomic<uint64_t> picks{0};             // jobs picked with this input level
  std::atomic<uint64_t> expansions{0};        // inputs_[0] grown under the byte limit
  std::atomic<uint64_t> output_splits{0};     // outputs cut at grandparent boundaries
  std::atomic<uint64_t> trivial_moves_blocked{0};  // moves refused by the guard
  std::atomic<uint64_t> grandparent_bytes{0};      // overlap seeded at pick time
};

struct CompactionPickerStats {
  CompactionPickerLevelStats levels[kNumLevels];
};

class CompactionPolicy {
 public:
  virtual ~CompactionPolicy() = default;

  // Builds the policy selected by options.compaction_policy.
  static std::unique_ptr<CompactionPolicy> Create(const Options& options);

  // Stable display name ("leveled", "tiered").
  virtual const char* Name() const = 0;

  // See the file comment for the locking/refcount contract.
  virtual Compaction* Pick(VersionSet* vset, Version* v) = 0;

  const CompactionPickerStats& stats() const { return stats_; }

 protected:
  // Accessor shims: CompactionPolicy is the friend of VersionSet / Version /
  // Compaction (friendship does not inherit), so subclasses reach private
  // state through these.
  static const Options& options(VersionSet* vset) { return *vset->options_; }
  static const InternalKeyComparator& icmp(VersionSet* vset) { return vset->icmp_; }
  static bool level_busy(VersionSet* vset, int level) { return vset->level_busy_[level]; }
  static const std::string& compact_pointer(VersionSet* vset, int level) {
    return vset->compact_pointer_[level];
  }
  static const std::vector<FileRef>& files(Version* v, int level) { return v->files_[level]; }
  static double level_score(Version* v, int level) { return v->level_scores_[level]; }

  static std::vector<FileRef>& inputs(Compaction* c, int which) { return c->inputs_[which]; }
  static std::vector<FileRef>& grandparents(Compaction* c) { return c->grandparents_; }
  static Version* input_version(Compaction* c) { return c->input_version_; }
  static void set_input_version(Compaction* c, Version* v) { c->input_version_ = v; }
  static void set_max_output_file_size(Compaction* c, uint64_t n) {
    c->max_output_file_size_ = n;
  }
  static void set_can_drop_tombstones(Compaction* c, bool ok) { c->can_drop_tombstones_ = ok; }
  static uint64_t max_grandparent_overlap_bytes(const Compaction* c) {
    return c->max_grandparent_overlap_bytes_;
  }

  static void GetRange(VersionSet* vset, const std::vector<FileRef>& inputs,
                       InternalKey* smallest, InternalKey* largest) {
    vset->GetRange(inputs, smallest, largest);
  }
  static void GetRange2(VersionSet* vset, const std::vector<FileRef>& inputs1,
                        const std::vector<FileRef>& inputs2, InternalKey* smallest,
                        InternalKey* largest) {
    vset->GetRange2(inputs1, inputs2, smallest, largest);
  }
  static void GetOverlappingInputs(VersionSet* vset, Version* v, int level,
                                   const InternalKey* begin, const InternalKey* end,
                                   std::vector<FileRef>* inputs) {
    vset->GetOverlappingInputs(v, level, begin, end, inputs);
  }

  // Allocates a job for level -> output_level, wires its stats block to
  // this policy's per-level counters and bumps `picks`.
  Compaction* NewCompaction(VersionSet* vset, int level, int output_level);

  // Advances the level's round-robin cursor to `largest` (both the live
  // copy under pick_mutex_ and the job's edit, so the cursor survives
  // restarts via the manifest).
  static void SetCompactPointer(VersionSet* vset, Compaction* c, int level,
                                const InternalKey& largest);

  CompactionPickerStats stats_;
};

// Leveled compaction with the LevelDB write-amp machinery: grandparent-
// overlap seeding, bounded input expansion, output splitting via
// Compaction::ShouldStopBefore, and the trivial-move guard.
class LeveledPolicy : public CompactionPolicy {
 public:
  const char* Name() const override { return "leveled"; }
  Compaction* Pick(VersionSet* vset, Version* v) override;

 protected:
  // Best-scoring free level >= min_level, seeded after the compact
  // pointer; nullptr if nothing pickable.
  Compaction* PickFromLevel(VersionSet* vset, Version* v, int min_level);

  // Completes a job whose inputs_[0] is chosen: selects inputs_[1], then
  // expands inputs_[0] under the expanded-byte limit and seeds
  // grandparents_; finally advances the compact pointer.
  void SetupOtherInputs(VersionSet* vset, Compaction* c);
};

// Size-tiered level-0 merging for write-heavy shards: similar-sized L0
// runs merge into one bigger L0 run with NO level-1 read (write amp per
// merge ~1 instead of 1 + fanout). A run graduates to level 1 (through the
// inherited leveled path) only once merged runs would exceed
// tiered_max_run_bytes; deeper levels stay leveled ("lazy leveling").
class TieredPolicy : public LeveledPolicy {
 public:
  const char* Name() const override { return "tiered"; }
  Compaction* Pick(VersionSet* vset, Version* v) override;
};

}  // namespace clsm

#endif  // CLSM_LSM_COMPACTION_POLICY_H_
