// The disk component Cd: a multi-level set of SSTables evolving under
// background merges (paper §2.3). A Version is an immutable snapshot of the
// file set; the current Version pointer is the Pd of Figure 2b. Readers
// obtain it without blocking via the same epoch-protected refcount scheme
// used for memory components (§3.1).
//
// Mutation is multi-threaded: a pool of compaction workers plus the flush
// thread all apply edits. PickCompaction hands out jobs on disjoint work —
// a job owns its input level L and output level L+1 until it is destroyed,
// and levels owned by an in-flight job are excluded from picking — while
// LogAndApply serializes the actual version installs.
#ifndef CLSM_LSM_VERSION_SET_H_
#define CLSM_LSM_VERSION_SET_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "src/lsm/dbformat.h"
#include "src/lsm/version_edit.h"
#include "src/sync/ref_guard.h"
#include "src/table/iterator.h"
#include "src/table/table.h"
#include "src/wal/log_writer.h"

namespace clsm {

class Compaction;
class VersionSet;
struct Options;

using FileRef = std::shared_ptr<FileMetaData>;

// Monotonic input-selection counters for one level, exported as the
// picker_* fields of each clsm.stats.json levels[] entry and as clsm_*
// Prometheus families. Written under pick_mutex_ (plus output_splits from
// the workers merging the job's ranges); read lock-free by stats exporters.
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

// Sum of file_size over a file list.
int64_t TotalFileSize(const std::vector<FileRef>& files);

// Total-bytes target of `level` (level >= 1; level 0 is scored by file
// count): level1_max_bytes * 10^(level-1).
double MaxBytesForLevel(const Options& options, int level);

// Returns files in `files` whose range may contain user_key.
int FindFile(const InternalKeyComparator& icmp, const std::vector<FileRef>& files,
             const Slice& internal_key);

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp, bool disjoint_sorted_files,
                           const std::vector<FileRef>& files, const Slice* smallest_user_key,
                           const Slice* largest_user_key);

class Version : public RefCounted {
 public:
  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  // Append iterators over this version's contents to *iters (for merged
  // scans). Caller must hold a reference for the iterators' lifetime: the
  // version's files own the Tables the iterators read.
  void AddIterators(const ReadOptions&, std::vector<Iterator*>* iters);

  // Point lookup as of lookup_key's embedded sequence. Returns OK with
  // *value, NotFound, or an error. If seq_found is non-null it receives the
  // timestamp of the version found (when one is found).
  Status Get(const ReadOptions&, const LookupKey& lookup_key, std::string* value,
             SequenceNumber* seq_found = nullptr);

  int NumFiles(int level) const { return static_cast<int>(files_[level].size()); }
  int64_t NumBytes(int level) const;

  std::string DebugString() const;

 private:
  friend class VersionSet;
  friend class Compaction;

  explicit Version(VersionSet* vset) : vset_(vset), compaction_score_(-1), compaction_level_(-1) {}
  ~Version() override;

  Iterator* NewConcatenatingIterator(const ReadOptions&, int level) const;

  VersionSet* vset_;
  // Files per level; level 0 is ordered newest-first (descending file
  // number), deeper levels are sorted by key range and disjoint.
  std::vector<FileRef> files_[kNumLevels];

  // Level that should be compacted next and its score (>= 1 means
  // compaction is needed). Filled by VersionSet::Finalize().
  double compaction_score_;
  int compaction_level_;
  // Score of every level (same formula), so the picker can fall through to
  // the next-best level when the best one is already being compacted.
  double level_scores_[kNumLevels] = {0};
};

class VersionSet {
 public:
  // Tables open with filter_policy (null for none) and block_cache.
  VersionSet(const std::string& dbname, const Options* options,
             const FilterPolicy* filter_policy, BlockCache* block_cache,
             const InternalKeyComparator* cmp, EpochManager* epochs);

  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  ~VersionSet();

  // Apply *edit to the current version and install the result as the new
  // current version, persisting the edit to the manifest. Thread-safe:
  // internally serialized (the flush thread and every compaction worker
  // apply edits concurrently).
  Status LogAndApply(VersionEdit* edit);

  // Recover the last saved descriptor from persistent storage.
  Status Recover();

  // Reader access to the current version: non-blocking (epoch-protected
  // load + refcount bump). Caller must Unref() when done.
  Version* GetCurrent();

  // Current version without ref or epoch protection: safe ONLY while the
  // caller can rule out a concurrent InstallVersion (e.g. from inside
  // LogAndApply itself, or before background threads start).
  Version* current_unlocked() const { return current_.load(std::memory_order_acquire); }

  uint64_t NewFileNumber() { return next_file_number_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t ManifestFileNumber() const { return manifest_file_number_; }

  SequenceNumber LastSequence() const { return last_sequence_.load(std::memory_order_acquire); }
  void SetLastSequence(SequenceNumber s) { last_sequence_.store(s, std::memory_order_release); }

  uint64_t LogNumber() const { return log_number_.load(std::memory_order_acquire); }

  // Pick inputs for a new leveled compaction (DESIGN.md "Compaction
  // picking"); nullptr if none needed OR if every level needing compaction
  // is already owned by an in-flight job. Caller owns the returned object
  // (which pins the input version and files); the job's levels stay
  // excluded from picking until the object is destroyed, so concurrent
  // compactions never share an input file. Thread-safe.
  Compaction* PickCompaction();

  // Cumulative input-selection counters (per level: picks, expansions,
  // output splits, blocked trivial moves, grandparent bytes). Lock-free
  // reads; exported in "clsm.stats.json" / Prometheus.
  const CompactionPickerStats& picker_stats() const { return picker_stats_; }

  // Number of picked-but-not-yet-released compactions.
  int NumInFlightCompactions() const {
    return inflight_compactions_.load(std::memory_order_acquire);
  }

  // Times a newly picked job's input set intersected an in-flight job's —
  // a violation of the disjointness invariant. Always 0 by construction;
  // exported so stress tests can assert it.
  uint64_t InFlightOverlapViolations() const {
    return inflight_overlaps_.load(std::memory_order_relaxed);
  }

  // Iterator reading the entries of a compaction's inputs in merged order.
  // With bounds it opens only the input files that may hold user keys in
  // [*begin, *end) (null: unbounded on that side); the caller still seeks
  // to *begin and stops at *end.
  Iterator* MakeInputIterator(Compaction* c, const Slice* begin = nullptr,
                              const Slice* end = nullptr);

  // The following readers are callable from any thread; they hold an epoch
  // guard across the pointer load + field read so a concurrent version
  // install cannot free the version under them.
  bool NeedsCompaction() const;
  int NumLevelFiles(int level) const;
  int64_t NumLevelBytes(int level) const;
  // Compaction-pressure score of level (>= 1 means compaction needed); the
  // per-level gauge exported in "clsm.stats.json".
  double LevelScore(int level) const;

  // Total bytes by which levels >= 1 exceed their size targets — the
  // backlog the compaction workers still owe. One debt input of the write
  // admission controller (L0 pressure is measured by file count instead).
  uint64_t CompactionBacklogBytes() const;

  void AddLiveFiles(std::set<uint64_t>* live);

  // Once disabled, dropping the last reference to a file no longer removes
  // it from disk (used at shutdown: all files are live).
  void SetFileDeletionEnabled(bool enabled) {
    delete_unreferenced_files_.store(enabled, std::memory_order_release);
  }

  std::string LevelSummary() const;

 private:
  class Builder;
  friend class Version;
  friend class Compaction;

  // Wrap a FileMetaData so that when the last Version referencing it dies,
  // its open Table is freed and the underlying table file is deleted
  // (unless disabled).
  FileRef MakeFileRef(const FileMetaData& meta);
  void OnFileUnreferenced(FileMetaData* meta);

  // The open Table of live file f, opened by the first probe. Concurrent
  // first probes each open one and the loser of the install deletes its
  // copy. A failed open is not remembered, so the next probe retries.
  Status FindTable(const FileMetaData* f, Table** table);
  // Iterator over live file f; the caller keeps f alive while it lives.
  Iterator* NewTableIterator(const ReadOptions& options, const FileMetaData* f);

  void Finalize(Version* v);
  void InstallVersion(Version* v);
  Status WriteSnapshot(log::Writer* log);

  void GetRange(const std::vector<FileRef>& inputs, InternalKey* smallest, InternalKey* largest);
  void GetRange2(const std::vector<FileRef>& inputs1, const std::vector<FileRef>& inputs2,
                 InternalKey* smallest, InternalKey* largest);
  void GetOverlappingInputs(Version* v, int level, const InternalKey* begin,
                            const InternalKey* end, std::vector<FileRef>* inputs);

  // Input selection, called with pick_mutex_ held and `v` pinned by the
  // caller. Only levels whose level_busy_ flags are clear are picked —
  // together with "a job owns its input and output level until
  // destruction" this keeps concurrent jobs disjoint by construction
  // (grandparent metadata two levels down is exempt: it is a read-only
  // heuristic snapshot, never a merge input). On success the returned
  // job's input_version_ has taken the caller's reference; on nullptr the
  // caller unrefs.
  //
  // PickFromLevel: best-scoring free level, seeded after its compact
  // pointer; nullptr if nothing is pickable.
  Compaction* PickFromLevel(Version* v);
  // Completes a job whose inputs_[0] is chosen: selects inputs_[1], then
  // expands inputs_[0] under the expanded-byte limit and seeds
  // grandparents_; finally advances the compact pointer.
  void SetupOtherInputs(Compaction* c);
  // Allocates a job for level -> level + 1, wires its stats block to the
  // level's picker counters and bumps `picks`.
  Compaction* NewCompaction(int level);
  // Advances c's input level's round-robin cursor to `largest` (both the
  // live copy under pick_mutex_ and the job's edit, so the cursor survives
  // restarts via the manifest).
  void SetCompactPointer(Compaction* c, const InternalKey& largest);

  // Registers c's levels/files as in-flight (pick_mutex_ held). The levels
  // and files go back to the picker in ReleaseLevels (idempotent), and
  // UnregisterInFlight (from ~Compaction) releases whatever is left and
  // ends c's count as in flight.
  void RegisterInFlight(Compaction* c);
  void ReleaseLevels(Compaction* c);
  void UnregisterInFlight(Compaction* c);

  Env* const env_;
  const std::string dbname_;
  const Options* const options_;
  const FilterPolicy* const filter_policy_;
  BlockCache* const block_cache_;
  const InternalKeyComparator icmp_;
  EpochManager* const epochs_;

  std::atomic<uint64_t> next_file_number_;
  uint64_t manifest_file_number_;
  std::atomic<SequenceNumber> last_sequence_;
  // Written under apply_mutex_ (LogAndApply) but read lock-free by the
  // maintenance thread (RemoveObsoleteFiles, log rotation bookkeeping).
  std::atomic<uint64_t> log_number_;

  // Opened lazily.
  std::unique_ptr<WritableFile> descriptor_file_;
  std::unique_ptr<log::Writer> descriptor_log_;

  std::atomic<Version*> current_;
  std::atomic<bool> delete_unreferenced_files_;
  // Serializes LogAndApply (manifest append + version install) across the
  // flush and compaction threads.
  std::mutex apply_mutex_;

  // Guards compaction picking: level_busy_, inflight_files_ and the
  // compact pointers. Never held across IO. Ordering: may be taken while
  // apply_mutex_ is held (Builder::Apply), never the other way around.
  mutable std::mutex pick_mutex_;
  // Levels owned by an in-flight compaction (a job at level L owns L and
  // L+1). Guarded by pick_mutex_.
  bool level_busy_[kNumLevels] = {false};
  // File numbers read by in-flight compactions (invariant checking).
  // Guarded by pick_mutex_.
  std::set<uint64_t> inflight_files_;
  std::atomic<int> inflight_compactions_{0};
  std::atomic<uint64_t> inflight_overlaps_{0};

  // Per-level key at which the next size-compaction should start.
  // Guarded by pick_mutex_.
  std::string compact_pointer_[kNumLevels];

  CompactionPickerStats picker_stats_;
};

// The merge position of one key range of a compaction: the state that
// Compaction::ShouldStopBefore and Compaction::IsBaseLevelForKey advance.
// Each range of a split job owns one, so ranges merge independently; the
// keys fed through one cursor must not decrease.
struct CompactionCursor {
  size_t grandparent_index = 0;        // first grandparent not yet passed
  bool seen_key = false;               // some output key has been observed
  int64_t overlapped_bytes = 0;        // overlap accumulated on current output
  size_t level_ptrs[kNumLevels] = {};  // IsBaseLevelForKey: file per deeper level
};

// A compaction in progress (or picked and about to run).
class Compaction {
 public:
  ~Compaction();

  Compaction(const Compaction&) = delete;
  Compaction& operator=(const Compaction&) = delete;

  // Level being compacted: inputs_[0] from level(), inputs_[1] from
  // output_level() == level() + 1, where every output lands.
  int level() const { return level_; }
  int output_level() const { return level_ + 1; }

  VersionEdit* edit() { return &edit_; }

  int num_input_files(int which) const { return static_cast<int>(inputs_[which].size()); }
  FileMetaData* input(int which, int i) const { return inputs_[which][i].get(); }

  // Total bytes across both input levels.
  int64_t TotalInputBytes() const;

  // Numbers of every input file (both levels), for disjointness checks.
  std::vector<uint64_t> InputFileNumbers() const;

  uint64_t MaxOutputFileSize() const { return options_->target_file_size; }

  // True if the compaction can be implemented by moving a single input file
  // one level down without merging. Guarded: a move whose grandparent
  // (output_level()+1) overlap exceeds the same bound is refused so a
  // wide file is rewritten into bounded pieces instead of parking an
  // oversized future compaction one level down.
  bool IsTrivialMove() const;

  // Output-splitting hook for the merge: true when the current output file
  // should be finished before adding `internal_key`, because the
  // accumulated overlap with grandparent files has exceeded 10 x
  // target_file_size. Keys must be fed through `cursor` in non-decreasing
  // order; its state resets for the next output on return true.
  bool ShouldStopBefore(CompactionCursor* cursor, const Slice& internal_key) const;

  // Add all inputs as deletions to *edit.
  void AddInputDeletions(VersionEdit* edit);

  // True if all data for user_key at levels deeper than output_level() is
  // absent, so a deletion marker surviving to output_level() may be dropped.
  // User keys must be fed through `cursor` in non-decreasing order.
  bool IsBaseLevelForKey(CompactionCursor* cursor, const Slice& user_key) const;

  // Splits the merge into at most max_ranges disjoint user-key ranges and
  // returns the cut points: range i covers [cuts[i-1], cuts[i]), the first
  // range starts at the job's first key and the last one ends after its
  // last. Cuts are smallest user keys of output-level input files, chosen
  // to balance the output-level bytes per range; a job with fewer than two
  // output-level inputs is not split (no cuts). Every version of a user key
  // falls in one range, so the merge's drop rule sees each key whole.
  std::vector<std::string> RangeCuts(int max_ranges) const;

  // Called once the job's edit is installed: gives its levels and input
  // files back to the picker, then drops the job's references to its input
  // and grandparent tables and its input version, which deletes the tables
  // the edit replaced unless a reader's version still holds them. Only
  // level() and edit() may be used afterwards. A job that failed keeps its
  // levels until it is destroyed, after its error is recorded.
  void ReleaseInputs();

 private:
  friend class VersionSet;

  Compaction(const Options* options, const InternalKeyComparator* icmp, int level);

  const Options* const options_;
  const InternalKeyComparator* const icmp_;
  int level_;
  uint64_t max_grandparent_overlap_bytes_;
  VersionSet* vset_ = nullptr;  // for in-flight release at destruction
  Version* input_version_;
  VersionEdit edit_;

  std::vector<FileRef> inputs_[2];
  // InputFileNumbers() as registered in flight, and whether the levels
  // and those files are still claimed; both under the picker's mutex.
  std::vector<uint64_t> inflight_numbers_;
  bool holds_levels_ = false;

  // Files at output_level()+1 overlapping the compaction range, captured at
  // pick time (a heuristic snapshot — concurrent deeper compactions may
  // reshape that level while this job runs). Drives ShouldStopBefore and
  // the IsTrivialMove guard.
  std::vector<FileRef> grandparents_;

  // Per-level picker counter block of the VersionSet that built this job;
  // ShouldStopBefore bumps output_splits here.
  CompactionPickerLevelStats* picker_stats_ = nullptr;
};

}  // namespace clsm

#endif  // CLSM_LSM_VERSION_SET_H_
