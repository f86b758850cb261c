#include "src/lsm/compaction_policy.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace clsm {

std::unique_ptr<CompactionPolicy> CompactionPolicy::Create(const Options& options) {
  if (options.compaction_policy == CompactionPolicyKind::kTiered) {
    return std::make_unique<TieredPolicy>();
  }
  return std::make_unique<LeveledPolicy>();
}

Compaction* CompactionPolicy::NewCompaction(VersionSet* vset, int level, int output_level) {
  Compaction* c = new Compaction(vset->options_, &vset->icmp_, level, output_level);
  c->picker_stats_ = &stats_.levels[level];
  stats_.levels[level].picks.fetch_add(1, std::memory_order_relaxed);
  return c;
}

void CompactionPolicy::SetCompactPointer(VersionSet* vset, Compaction* c, int level,
                                         const InternalKey& largest) {
  // Updated right away rather than waiting for the VersionEdit to be
  // applied: the caller holds pick_mutex_ and at most one compaction per
  // level is in flight, so no other picker can observe a torn value.
  vset->compact_pointer_[level] = largest.Encode().ToString();
  c->edit_.SetCompactPointer(level, largest);
}

Compaction* LeveledPolicy::Pick(VersionSet* vset, Version* v) {
  return PickFromLevel(vset, v, 0);
}

Compaction* LeveledPolicy::PickFromLevel(VersionSet* vset, Version* v, int min_level) {
  // Best-scoring level whose job would be disjoint from every in-flight
  // one. A job at level L reads L and L+1, so both must be free.
  int level = -1;
  double best_score = 0;
  for (int l = min_level; l < kNumLevels - 1; l++) {
    if (level_score(v, l) >= 1 && !level_busy(vset, l) && !level_busy(vset, l + 1) &&
        level_score(v, l) > best_score) {
      level = l;
      best_score = level_score(v, l);
    }
  }
  if (level < 0 || files(v, level).empty()) {
    return nullptr;
  }
  assert(level + 1 < kNumLevels);
  Compaction* c = NewCompaction(vset, level, level + 1);

  // Pick the first file that comes after compact_pointer_[level].
  const std::string& cursor = compact_pointer(vset, level);
  for (const FileRef& f : files(v, level)) {
    if (cursor.empty() || icmp(vset).Compare(f->largest.Encode(), cursor) > 0) {
      inputs(c, 0).push_back(f);
      break;
    }
  }
  if (inputs(c, 0).empty()) {
    // Wrap-around to the beginning of the key space.
    inputs(c, 0).push_back(files(v, level)[0]);
  }

  set_input_version(c, v);  // transfers the caller's reference

  // Files in level 0 may overlap each other, so pick up all overlapping
  // ones (discarding and re-deriving inputs_[0] from the seed's range).
  if (level == 0) {
    InternalKey smallest, largest;
    GetRange(vset, inputs(c, 0), &smallest, &largest);
    GetOverlappingInputs(vset, v, 0, &smallest, &largest, &inputs(c, 0));
    assert(!inputs(c, 0).empty());
  }

  SetupOtherInputs(vset, c);
  return c;
}

void LeveledPolicy::SetupOtherInputs(VersionSet* vset, Compaction* c) {
  const int level = c->level();
  Version* v = input_version(c);
  const Options& opt = options(vset);
  InternalKey smallest, largest;
  GetRange(vset, inputs(c, 0), &smallest, &largest);

  GetOverlappingInputs(vset, v, level + 1, &smallest, &largest, &inputs(c, 1));

  // Full key range covered by this compaction.
  InternalKey all_start, all_limit;
  GetRange2(vset, inputs(c, 0), inputs(c, 1), &all_start, &all_limit);

  // Input expansion: grow inputs_[0] with level-L files that fit under the
  // already-selected level-L+1 range, as long as (a) that does not pull in
  // more level-L+1 data and (b) total input bytes stay under the expansion
  // limit. More data rewritten per L+1 pass at the same L+1 read cost =
  // lower write amplification. Safe against in-flight jobs: level L and
  // L+1 were both verified free, and only jobs owning a level remove its
  // files, so every file seen here is unowned.
  if (!inputs(c, 1).empty()) {
    std::vector<FileRef> expanded0;
    GetOverlappingInputs(vset, v, level, &all_start, &all_limit, &expanded0);
    const int64_t inputs1_size = TotalFileSize(inputs(c, 1));
    const int64_t expanded0_size = TotalFileSize(expanded0);
    const int64_t expansion_limit = static_cast<int64_t>(
        opt.expanded_compaction_factor * static_cast<double>(opt.target_file_size));
    if (expanded0.size() > inputs(c, 0).size() &&
        inputs1_size + expanded0_size < expansion_limit) {
      InternalKey new_start, new_limit;
      GetRange(vset, expanded0, &new_start, &new_limit);
      std::vector<FileRef> expanded1;
      GetOverlappingInputs(vset, v, level + 1, &new_start, &new_limit, &expanded1);
      if (expanded1.size() == inputs(c, 1).size()) {
        smallest = new_start;
        largest = new_limit;
        inputs(c, 0) = std::move(expanded0);
        inputs(c, 1) = std::move(expanded1);
        GetRange2(vset, inputs(c, 0), inputs(c, 1), &all_start, &all_limit);
        stats_.levels[level].expansions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // Grandparent seeding: snapshot the files two levels down overlapping the
  // compaction range. Metadata only — never a merge input, so a busy
  // level+2 is fine (the snapshot is an admittedly stale heuristic then).
  if (c->output_level() + 1 < kNumLevels) {
    GetOverlappingInputs(vset, v, c->output_level() + 1, &all_start, &all_limit,
                         &grandparents(c));
    const int64_t gp_bytes = TotalFileSize(grandparents(c));
    if (gp_bytes > 0) {
      stats_.levels[level].grandparent_bytes.fetch_add(static_cast<uint64_t>(gp_bytes),
                                                       std::memory_order_relaxed);
    }
    // Count refused trivial moves at pick time (once per job, not once per
    // IsTrivialMove() call): this job has the single-file/no-merge shape
    // but the guard will force a rewrite.
    if (inputs(c, 0).size() == 1 && inputs(c, 1).empty() &&
        static_cast<uint64_t>(gp_bytes) > max_grandparent_overlap_bytes(c)) {
      stats_.levels[level].trivial_moves_blocked.fetch_add(1, std::memory_order_relaxed);
    }
  }

  SetCompactPointer(vset, c, level, largest);
}

Compaction* TieredPolicy::Pick(VersionSet* vset, Version* v) {
  const Options& opt = options(vset);
  const std::vector<FileRef>& l0 = files(v, 0);
  if (!level_busy(vset, 0) &&
      static_cast<int>(l0.size()) >= opt.l0_compaction_trigger) {
    // Widest window of similar-sized runs (every run within
    // tiered_size_ratio of the window's smallest), capped at
    // tiered_max_merge_width.
    std::vector<FileRef> runs = l0;
    std::sort(runs.begin(), runs.end(),
              [](const FileRef& a, const FileRef& b) { return a->file_size < b->file_size; });
    size_t best_start = 0, best_width = 0;
    for (size_t i = 0; i < runs.size(); i++) {
      const double base = static_cast<double>(std::max<uint64_t>(runs[i]->file_size, 1));
      size_t j = i;
      while (j + 1 < runs.size() &&
             j + 1 - i + 1 <= static_cast<size_t>(opt.tiered_max_merge_width) &&
             static_cast<double>(runs[j + 1]->file_size) <= opt.tiered_size_ratio * base) {
        j++;
      }
      if (j - i + 1 > best_width) {
        best_width = j - i + 1;
        best_start = i;
      }
    }
    if (best_width >= static_cast<size_t>(opt.tiered_min_merge_width)) {
      int64_t window_bytes = 0;
      for (size_t k = best_start; k < best_start + best_width; k++) {
        window_bytes += static_cast<int64_t>(runs[k]->file_size);
      }
      if (window_bytes <= static_cast<int64_t>(opt.tiered_max_run_bytes) &&
          opt.tiered_max_run_bytes != 0) {
        // Intra-L0 merge: reads no level-1 data and leaves level 1 free
        // for a concurrent disjoint job. The merged output is a single
        // run (no size split — splitting would multiply the file count
        // the L0 score is based on), and tombstones must survive because
        // sibling runs outside the window may hold older versions.
        Compaction* c = NewCompaction(vset, 0, 0);
        for (size_t k = best_start; k < best_start + best_width; k++) {
          inputs(c, 0).push_back(runs[k]);
        }
        set_can_drop_tombstones(c, false);
        set_max_output_file_size(c, std::numeric_limits<uint64_t>::max());
        set_input_version(c, v);
        return c;
      }
    }
    // No similar-size window (or merged run would exceed the cap): the
    // tier is saturated — promote every L0 run into level 1 through the
    // leveled machinery (needs level 1 free as usual).
    if (!level_busy(vset, 1)) {
      Compaction* c = NewCompaction(vset, 0, 1);
      inputs(c, 0) = l0;
      set_input_version(c, v);
      SetupOtherInputs(vset, c);
      return c;
    }
  }
  // L0 healthy (or owned): deeper levels stay leveled.
  return PickFromLevel(vset, v, 1);
}

}  // namespace clsm
