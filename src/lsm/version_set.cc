#include "src/lsm/version_set.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <map>

#include "src/lsm/filename.h"
#include "src/obs/metrics.h"  // LatencyClock
#include "src/obs/perf_context.h"
#include "src/table/merging_iterator.h"
#include "src/wal/log_reader.h"

namespace clsm {

namespace {

// The leveled picker's shape, fixed by design (DESIGN.md "Compaction
// picking"); the byte budgets are multiples of target_file_size and match
// LevelDB's kMaxGrandParentOverlapBytes / kExpandedCompactionByteSizeLimit.
// Per-level size fanout: level L targets level1_max_bytes * 10^(L-1).
constexpr double kLevelSizeMultiplier = 10.0;
// Bound on how much data two levels below a compaction's output one output
// file may overlap: outputs are cut at grandparent boundaries past it, and
// a single-file trivial move past it is rewritten instead.
constexpr uint64_t kMaxGrandparentOverlapFactor = 10;
// Total input bytes up to which inputs_[0] may grow with level-L neighbors
// that fit under the already-selected level-L+1 range.
constexpr uint64_t kExpandedCompactionFactor = 25;

}  // namespace

int64_t TotalFileSize(const std::vector<FileRef>& files) {
  int64_t sum = 0;
  for (const auto& f : files) {
    sum += f->file_size;
  }
  return sum;
}

double MaxBytesForLevel(const Options& options, int level) {
  // level-0 is scored by file count, so this is only used for level >= 1.
  double result = static_cast<double>(options.level1_max_bytes);
  for (int l = 1; l < level; l++) {
    result *= kLevelSizeMultiplier;
  }
  return result;
}

Version::~Version() = default;  // FileRefs release (and maybe delete) files

int FindFile(const InternalKeyComparator& icmp, const std::vector<FileRef>& files,
             const Slice& key) {
  uint32_t left = 0;
  uint32_t right = static_cast<uint32_t>(files.size());
  while (left < right) {
    uint32_t mid = (left + right) / 2;
    const FileMetaData* f = files[mid].get();
    if (icmp.Compare(f->largest.Encode(), key) < 0) {
      // Key at "mid.largest" is < "target". All files at or before "mid"
      // are uninteresting.
      left = mid + 1;
    } else {
      right = mid;
    }
  }
  return right;
}

static bool AfterFile(const Comparator* ucmp, const Slice* user_key, const FileMetaData* f) {
  // null user_key occurs before all keys and is therefore never after *f.
  return (user_key != nullptr && ucmp->Compare(*user_key, f->largest.user_key()) > 0);
}

static bool BeforeFile(const Comparator* ucmp, const Slice* user_key, const FileMetaData* f) {
  return (user_key != nullptr && ucmp->Compare(*user_key, f->smallest.user_key()) < 0);
}

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp, bool disjoint_sorted_files,
                           const std::vector<FileRef>& files, const Slice* smallest_user_key,
                           const Slice* largest_user_key) {
  const Comparator* ucmp = icmp.user_comparator();
  if (!disjoint_sorted_files) {
    // Need to check against all files.
    for (size_t i = 0; i < files.size(); i++) {
      const FileMetaData* f = files[i].get();
      if (AfterFile(ucmp, smallest_user_key, f) || BeforeFile(ucmp, largest_user_key, f)) {
        // No overlap
      } else {
        return true;
      }
    }
    return false;
  }

  // Binary search over file list.
  uint32_t index = 0;
  if (smallest_user_key != nullptr) {
    InternalKey small_key(*smallest_user_key, kMaxSequenceNumber, kValueTypeForSeek);
    index = FindFile(icmp, files, small_key.Encode());
  }

  if (index >= files.size()) {
    return false;
  }

  return !BeforeFile(ucmp, largest_user_key, files[index].get());
}

Iterator* Version::NewConcatenatingIterator(const ReadOptions& options, int level) const {
  // Index iterator over the file list; block function opens each file.
  struct LevelFileNumIterator final : public Iterator {
    LevelFileNumIterator(const InternalKeyComparator& icmp, const std::vector<FileRef>* flist)
        : icmp_(icmp), flist_(flist), index_(flist->size()) {}

    bool Valid() const override { return index_ < flist_->size(); }
    void Seek(const Slice& target) override { index_ = FindFile(icmp_, *flist_, target); }
    void SeekToFirst() override { index_ = 0; }
    void SeekToLast() override { index_ = flist_->empty() ? 0 : flist_->size() - 1; }
    void Next() override {
      assert(Valid());
      index_++;
    }
    void Prev() override {
      assert(Valid());
      if (index_ == 0) {
        index_ = flist_->size();  // Marks as invalid
      } else {
        index_--;
      }
    }
    Slice key() const override {
      assert(Valid());
      return (*flist_)[index_]->largest.Encode();
    }
    // The file's metadata node, by address: the version keeps it alive.
    Slice value() const override {
      assert(Valid());
      const FileMetaData* f = (*flist_)[index_].get();
      std::memcpy(value_buf_, &f, sizeof(f));
      return Slice(value_buf_, sizeof(value_buf_));
    }
    Status status() const override { return Status::OK(); }

    const InternalKeyComparator icmp_;
    const std::vector<FileRef>* const flist_;
    size_t index_;
    mutable char value_buf_[sizeof(const FileMetaData*)];
  };

  struct Opener {
    static Iterator* Open(void* arg, const ReadOptions& options, const Slice& file_value) {
      const FileMetaData* f;
      assert(file_value.size() == sizeof(f));
      std::memcpy(&f, file_value.data(), sizeof(f));
      return reinterpret_cast<VersionSet*>(arg)->NewTableIterator(options, f);
    }
  };

  return NewTwoLevelIterator(new LevelFileNumIterator(vset_->icmp_, &files_[level]),
                             &Opener::Open, vset_, options);
}

void Version::AddIterators(const ReadOptions& options, std::vector<Iterator*>* iters) {
  // Merge all level zero files together since they may overlap.
  for (const FileRef& f : files_[0]) {
    iters->push_back(vset_->NewTableIterator(options, f.get()));
  }

  // For levels > 0, lazily open files with a concatenating iterator.
  for (int level = 1; level < kNumLevels; level++) {
    if (!files_[level].empty()) {
      iters->push_back(NewConcatenatingIterator(options, level));
    }
  }
}

namespace {

enum SaverState {
  kNotFound,
  kFound,
  kDeleted,
  kCorrupt,
};
struct Saver {
  SaverState state;
  const Comparator* ucmp;
  Slice user_key;
  std::string* value;
  SequenceNumber seq_found;
};

bool SaveValue(void* arg, const Slice& ikey, const Slice& v) {
  Saver* s = reinterpret_cast<Saver*>(arg);
  ParsedInternalKey parsed_key;
  if (!ParseInternalKey(ikey, &parsed_key)) {
    s->state = kCorrupt;
    return true;  // an entry was there; the corruption is reported instead
  }
  if (s->ucmp->Compare(parsed_key.user_key, s->user_key) != 0) {
    return false;
  }
  if (s->state != kNotFound && parsed_key.sequence < s->seq_found) {
    return true;  // an older version than a level-0 file probed before held
  }
  s->seq_found = parsed_key.sequence;
  s->state = (parsed_key.type == kTypeValue) ? kFound : kDeleted;
  if (s->state == kFound) {
    s->value->assign(v.data(), v.size());
  }
  return true;
}

}  // namespace

Status Version::Get(const ReadOptions& options, const LookupKey& k, std::string* value,
                    SequenceNumber* seq_found) {
  const Slice ikey = k.internal_key();
  const Slice user_key = k.user_key();
  const Comparator* ucmp = vset_->icmp_.user_comparator();

  Saver saver;
  saver.ucmp = ucmp;
  saver.user_key = user_key;
  saver.value = value;

  // Level-0 files may overlap; files_[0] holds them newest first. In normal
  // operation level-0 files have disjoint timestamp ranges that grow with
  // the file number, so the first hit is the newest. After a RepairDb,
  // however, all surviving tables land in level 0 with arbitrary
  // number-vs-recency order — so probe every candidate and let the saver
  // keep the hit with the highest timestamp.
  saver.state = kNotFound;
  for (const FileRef& f : files_[0]) {
    if (ucmp->Compare(user_key, f->smallest.user_key()) < 0 ||
        ucmp->Compare(user_key, f->largest.user_key()) > 0) {
      continue;
    }
    CLSM_PERF_COUNT_ADD(table_reads_per_level[0], 1);
    Table* table;
    Status s = vset_->FindTable(f.get(), &table);
    if (s.ok()) {
      s = table->InternalGet(options, ikey, &saver, &SaveValue);
    }
    if (!s.ok()) {
      return s;
    }
    if (saver.state == kCorrupt) {
      return Status::Corruption("corrupted key for ", user_key);
    }
  }
  if (saver.state == kFound) {
    if (seq_found != nullptr) {
      *seq_found = saver.seq_found;
    }
    return Status::OK();
  }
  if (saver.state == kDeleted) {
    if (seq_found != nullptr) {
      *seq_found = saver.seq_found;
    }
    return Status::NotFound(Slice());
  }

  // Deeper levels: at most one candidate file per level.
  for (int level = 1; level < kNumLevels; level++) {
    const std::vector<FileRef>& files = files_[level];
    if (files.empty()) {
      continue;
    }
    uint32_t index = FindFile(vset_->icmp_, files, ikey);
    if (index >= files.size()) {
      continue;
    }
    const FileMetaData* f = files[index].get();
    if (ucmp->Compare(user_key, f->smallest.user_key()) < 0) {
      continue;
    }
    saver.state = kNotFound;
    static_assert(kNumLevels <= PerfContext::kMaxLevels,
                  "per-level table-read attribution array too small");
    CLSM_PERF_COUNT_ADD(table_reads_per_level[level], 1);
    Table* table;
    Status s = vset_->FindTable(f, &table);
    if (s.ok()) {
      s = table->InternalGet(options, ikey, &saver, &SaveValue);
    }
    if (!s.ok()) {
      return s;
    }
    switch (saver.state) {
      case kNotFound:
        break;
      case kFound:
        if (seq_found != nullptr) {
          *seq_found = saver.seq_found;
        }
        return s;
      case kDeleted:
        if (seq_found != nullptr) {
          *seq_found = saver.seq_found;
        }
        return Status::NotFound(Slice());
      case kCorrupt:
        return Status::Corruption("corrupted key for ", user_key);
    }
  }

  return Status::NotFound(Slice());
}

int64_t Version::NumBytes(int level) const { return TotalFileSize(files_[level]); }

std::string Version::DebugString() const {
  std::string r;
  for (int level = 0; level < kNumLevels; level++) {
    r.append("--- level ");
    r.append(std::to_string(level));
    r.append(" ---\n");
    for (const auto& f : files_[level]) {
      r.push_back(' ');
      r.append(std::to_string(f->number));
      r.push_back(':');
      r.append(std::to_string(f->file_size));
      r.append("[");
      r.append(f->smallest.user_key().ToString());
      r.append(" .. ");
      r.append(f->largest.user_key().ToString());
      r.append("]\n");
    }
  }
  return r;
}

// Builder: accumulates edits on top of a base version.
class VersionSet::Builder {
 public:
  Builder(VersionSet* vset, Version* base) : vset_(vset), base_(base) {
    base_->Ref();
    for (int level = 0; level < kNumLevels; level++) {
      levels_[level].added_files = base_->files_[level];
      for (const FileRef& f : base_->files_[level]) {
        base_by_number_.emplace(f->number, f);
      }
    }
  }

  ~Builder() { base_->Unref(); }

  // Apply all of the edits in *edit to the accumulated state.
  void Apply(const VersionEdit* edit) {
    // Update compaction pointers (under pick_mutex_: concurrent compaction
    // workers read these while picking).
    if (!edit->compact_pointers_.empty()) {
      std::lock_guard<std::mutex> pick_lock(vset_->pick_mutex_);
      for (size_t i = 0; i < edit->compact_pointers_.size(); i++) {
        const int level = edit->compact_pointers_[i].first;
        vset_->compact_pointer_[level] = edit->compact_pointers_[i].second.Encode().ToString();
      }
    }

    // Apply deletions.
    for (const auto& deleted_file_set_kvp : edit->deleted_files_) {
      const int level = deleted_file_set_kvp.first;
      const uint64_t number = deleted_file_set_kvp.second;
      auto& files = levels_[level].added_files;
      files.erase(std::remove_if(files.begin(), files.end(),
                                 [number](const FileRef& f) { return f->number == number; }),
                  files.end());
    }

    // Apply additions. A trivial move re-adds a file number that already
    // exists in the base version OR in an earlier edit applied to this same
    // builder (manifest recovery replays the whole history through one
    // builder); reuse the existing FileRef so the file keeps a single
    // ownership group. A second group would delete the file from disk when
    // the first one died — e.g. replaying add/delete/re-add would remove a
    // perfectly live table during recovery.
    for (size_t i = 0; i < edit->new_files_.size(); i++) {
      const int level = edit->new_files_[i].first;
      const FileMetaData& meta = edit->new_files_[i].second;
      auto existing = base_by_number_.find(meta.number);
      if (existing != base_by_number_.end()) {
        levels_[level].added_files.push_back(existing->second);
      } else {
        FileRef ref = vset_->MakeFileRef(meta);
        base_by_number_.emplace(meta.number, ref);  // pin across delete/re-add
        levels_[level].added_files.push_back(std::move(ref));
      }
    }
  }

  // Save the accumulated state in *v.
  void SaveTo(Version* v) {
    for (int level = 0; level < kNumLevels; level++) {
      v->files_[level] = levels_[level].added_files;
      auto& files = v->files_[level];
      if (level == 0) {
        // Newest (largest number) first for probe order; AddIterators and
        // compaction picking rely on this too.
        std::sort(files.begin(), files.end(),
                  [](const FileRef& a, const FileRef& b) { return a->number > b->number; });
      } else {
        const InternalKeyComparator& icmp = vset_->icmp_;
        std::sort(files.begin(), files.end(), [&icmp](const FileRef& a, const FileRef& b) {
          return icmp.Compare(a->smallest.Encode(), b->smallest.Encode()) < 0;
        });
#ifndef NDEBUG
        // Disjointness invariant.
        for (size_t i = 1; i < files.size(); i++) {
          assert(icmp.Compare(files[i - 1]->largest.Encode(), files[i]->smallest.Encode()) < 0);
        }
#endif
      }
    }
  }

 private:
  struct LevelState {
    std::vector<FileRef> added_files;
  };

  VersionSet* vset_;
  Version* base_;
  LevelState levels_[kNumLevels];
  std::map<uint64_t, FileRef> base_by_number_;
};

VersionSet::VersionSet(const std::string& dbname, const Options* options,
                       const FilterPolicy* filter_policy, BlockCache* block_cache,
                       const InternalKeyComparator* cmp, EpochManager* epochs)
    : env_(options->env),
      dbname_(dbname),
      options_(options),
      filter_policy_(filter_policy),
      block_cache_(block_cache),
      icmp_(*cmp),
      epochs_(epochs),
      next_file_number_(2),
      manifest_file_number_(0),
      last_sequence_(0),
      log_number_(0),
      current_(nullptr),
      delete_unreferenced_files_(true) {
  current_.store(new Version(this), std::memory_order_release);
}

VersionSet::~VersionSet() {
  // All files are live at shutdown; keep them.
  SetFileDeletionEnabled(false);
  Version* v = current_.load(std::memory_order_acquire);
  if (v != nullptr) {
    v->Unref();
  }
  descriptor_log_.reset();
  if (descriptor_file_ != nullptr) {
    descriptor_file_->Close();
  }
}

FileRef VersionSet::MakeFileRef(const FileMetaData& meta) {
  FileMetaData* f = new FileMetaData(meta);
  VersionSet* vset = this;
  return FileRef(f, [vset](FileMetaData* m) { vset->OnFileUnreferenced(m); });
}

void VersionSet::OnFileUnreferenced(FileMetaData* meta) {
  delete meta->table.load(std::memory_order_acquire);
  if (delete_unreferenced_files_.load(std::memory_order_acquire)) {
    env_->RemoveFile(TableFileName(dbname_, meta->number));
  }
  delete meta;
}

Status VersionSet::FindTable(const FileMetaData* f, Table** table) {
  *table = f->table.load(std::memory_order_acquire);
  if (*table != nullptr) {
    return Status::OK();
  }
  PerfContext& ctx = tls_perf_context;
  const bool timed = ctx.timers_enabled();
  const uint64_t t0 = timed ? LatencyClock::Ticks() : 0;
  std::unique_ptr<RandomAccessFile> file;
  Status s = env_->NewRandomAccessFile(TableFileName(dbname_, f->number), &file);
  Table* opened = nullptr;
  if (s.ok()) {
    s = Table::Open(*options_, &icmp_, filter_policy_, block_cache_, std::move(file),
                    f->file_size, &opened);
  }
  if (s.ok()) {
    Table* installed = nullptr;
    if (!f->table.compare_exchange_strong(installed, opened, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
      delete opened;  // another probe's open was installed first
      opened = installed;
    }
    *table = opened;
  }
  if (timed) {
    ctx.table_open_nanos += LatencyClock::ToNanos(LatencyClock::Ticks() - t0);
  }
  return s;
}

Iterator* VersionSet::NewTableIterator(const ReadOptions& options, const FileMetaData* f) {
  Table* table;
  Status s = FindTable(f, &table);
  return s.ok() ? table->NewIterator(options) : NewErrorIterator(s);
}

Version* VersionSet::GetCurrent() {
  // Pd read path: epoch-protected pointer load + refcount bump, never
  // blocking (paper §3.1).
  EpochGuard guard(*epochs_);
  Version* v = current_.load(std::memory_order_acquire);
  v->Ref();
  return v;
}

void VersionSet::InstallVersion(Version* v) {
  Version* old = current_.exchange(v, std::memory_order_acq_rel);
  // Grace period: wait until every reader that might have loaded `old`
  // without yet bumping its refcount has exited its critical section.
  epochs_->Synchronize();
  if (old != nullptr) {
    old->Unref();
  }
}

bool VersionSet::NeedsCompaction() const {
  EpochGuard guard(*epochs_);
  return current_.load(std::memory_order_acquire)->compaction_score_ >= 1;
}

int VersionSet::NumLevelFiles(int level) const {
  EpochGuard guard(*epochs_);
  return current_.load(std::memory_order_acquire)->NumFiles(level);
}

int64_t VersionSet::NumLevelBytes(int level) const {
  EpochGuard guard(*epochs_);
  return current_.load(std::memory_order_acquire)->NumBytes(level);
}

double VersionSet::LevelScore(int level) const {
  EpochGuard guard(*epochs_);
  return current_.load(std::memory_order_acquire)->level_scores_[level];
}

uint64_t VersionSet::CompactionBacklogBytes() const {
  EpochGuard guard(*epochs_);
  const Version* v = current_.load(std::memory_order_acquire);
  uint64_t backlog = 0;
  for (int level = 1; level < kNumLevels; level++) {
    const double bytes = static_cast<double>(TotalFileSize(v->files_[level]));
    const double target = MaxBytesForLevel(*options_, level);
    if (bytes > target) {
      backlog += static_cast<uint64_t>(bytes - target);
    }
  }
  return backlog;
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  std::lock_guard<std::mutex> apply_lock(apply_mutex_);
  if (edit->has_log_number_) {
    assert(edit->log_number_ >= log_number_.load(std::memory_order_relaxed));
  } else {
    edit->SetLogNumber(log_number_.load(std::memory_order_relaxed));
  }
  edit->SetNextFile(next_file_number_.load(std::memory_order_relaxed));
  edit->SetLastSequence(last_sequence_.load(std::memory_order_relaxed));

  Version* v = new Version(this);
  {
    Builder builder(this, current_unlocked());
    builder.Apply(edit);
    builder.SaveTo(v);
  }
  Finalize(v);

  // Initialize new descriptor log file if necessary by creating a temporary
  // file that contains a snapshot of the current version.
  Status s;
  std::string new_manifest_file;
  if (descriptor_log_ == nullptr) {
    assert(descriptor_file_ == nullptr);
    manifest_file_number_ = NewFileNumber();
    new_manifest_file = DescriptorFileName(dbname_, manifest_file_number_);
    s = env_->NewWritableFile(new_manifest_file, &descriptor_file_);
    if (s.ok()) {
      descriptor_log_ = std::make_unique<log::Writer>(descriptor_file_.get());
      s = WriteSnapshot(descriptor_log_.get());
    }
  }

  // Write new record to the manifest log.
  if (s.ok()) {
    std::string record;
    edit->EncodeTo(&record);
    s = descriptor_log_->AddRecord(record);
    if (s.ok()) {
      s = descriptor_file_->Sync();
    }
  }

  // If we just created a new descriptor file, install it by writing a new
  // CURRENT file that points to it.
  if (s.ok() && !new_manifest_file.empty()) {
    s = SetCurrentFile(env_, dbname_, manifest_file_number_);
  }

  // Install the new version.
  if (s.ok()) {
    log_number_.store(edit->log_number_, std::memory_order_release);
    InstallVersion(v);
  } else {
    // Drop the construction reference (RefCounted starts at 1; the
    // LevelDB-style Ref+Unref pair would net to 1 and leak the version).
    v->Unref();
    if (!new_manifest_file.empty()) {
      descriptor_log_.reset();
      descriptor_file_.reset();
      env_->RemoveFile(new_manifest_file);
    }
  }

  return s;
}

Status VersionSet::Recover() {
  // No file may be removed from disk while replaying history: intermediate
  // reference-count transitions during the replay do not reflect liveness.
  // The orphan sweep at open time (after recovery) removes true garbage.
  SetFileDeletionEnabled(false);
  struct ReenableDeletion {
    VersionSet* vset;
    ~ReenableDeletion() { vset->SetFileDeletionEnabled(true); }
  } reenable{this};

  // Read "CURRENT" file, which contains a pointer to the current manifest.
  std::string current;
  Status s = ReadFileToString(env_, CurrentFileName(dbname_), &current);
  if (!s.ok()) {
    return s;
  }
  if (current.empty() || current[current.size() - 1] != '\n') {
    return Status::Corruption("CURRENT file does not end with newline");
  }
  current.resize(current.size() - 1);

  std::string dscname = dbname_ + "/" + current;
  std::unique_ptr<SequentialFile> file;
  s = env_->NewSequentialFile(dscname, &file);
  if (!s.ok()) {
    if (s.IsNotFound()) {
      return Status::Corruption("CURRENT points to a non-existent file", s.ToString());
    }
    return s;
  }

  bool have_log_number = false;
  bool have_next_file = false;
  bool have_last_sequence = false;
  uint64_t next_file = 0;
  uint64_t last_sequence = 0;
  uint64_t log_number = 0;
  Builder builder(this, current_unlocked());
  int read_records = 0;

  Status reader_status;
  {
    struct LogReporter : public log::Reader::Reporter {
      Status* status;
      void Corruption(size_t bytes, const Status& s) override {
        if (this->status->ok()) {
          *this->status = s;
        }
      }
    };
    LogReporter reporter;
    reporter.status = &reader_status;
    log::Reader reader(file.get(), &reporter, true /*checksum*/, 0 /*initial_offset*/);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch) && s.ok()) {
      ++read_records;
      VersionEdit edit;
      s = edit.DecodeFrom(record);
      if (s.ok()) {
        if (edit.has_comparator_ && edit.comparator_ != icmp_.user_comparator()->Name()) {
          s = Status::InvalidArgument(
              edit.comparator_ + " does not match existing comparator ",
              icmp_.user_comparator()->Name());
        }
      }

      if (s.ok()) {
        builder.Apply(&edit);
      }

      if (edit.has_log_number_) {
        log_number = edit.log_number_;
        have_log_number = true;
      }
      if (edit.has_next_file_number_) {
        next_file = edit.next_file_number_;
        have_next_file = true;
      }
      if (edit.has_last_sequence_) {
        last_sequence = edit.last_sequence_;
        have_last_sequence = true;
      }
    }
  }

  if (s.ok() && !reader_status.ok()) {
    // The manifest's unsynced tail can be torn by a crash mid-record. Every
    // durably installed edit was synced by LogAndApply before it was acted
    // on, so the readable prefix is a consistent (if slightly old) state.
    // Only paranoid mode refuses to open on a damaged tail; the meta-entry
    // checks below still reject a manifest whose prefix is unusable.
    if (options_->paranoid_checks) {
      s = reader_status;
    }
  }

  if (s.ok()) {
    if (!have_next_file) {
      s = Status::Corruption("no meta-nextfile entry in descriptor");
    } else if (!have_log_number) {
      s = Status::Corruption("no meta-lognumber entry in descriptor");
    } else if (!have_last_sequence) {
      s = Status::Corruption("no last-sequence-number entry in descriptor");
    }
  }

  if (s.ok()) {
    Version* v = new Version(this);
    builder.SaveTo(v);
    Finalize(v);
    InstallVersion(v);
    manifest_file_number_ = next_file;
    next_file_number_.store(next_file + 1, std::memory_order_relaxed);
    last_sequence_.store(last_sequence, std::memory_order_relaxed);
    log_number_.store(log_number, std::memory_order_release);
  }

  return s;
}

void VersionSet::Finalize(Version* v) {
  // Precomputed best level for next compaction.
  int best_level = -1;
  double best_score = -1;

  for (int level = 0; level < kNumLevels - 1; level++) {
    double score;
    if (level == 0) {
      // Level-0 is scored by file count rather than bytes: files must be
      // merged (not just searched) and with a small write buffer we would
      // otherwise do too many tiny compactions.
      score = v->files_[level].size() / static_cast<double>(options_->l0_compaction_trigger);
    } else {
      const uint64_t level_bytes = TotalFileSize(v->files_[level]);
      score = static_cast<double>(level_bytes) / MaxBytesForLevel(*options_, level);
    }
    v->level_scores_[level] = score;

    if (score > best_score) {
      best_level = level;
      best_score = score;
    }
  }

  v->compaction_level_ = best_level;
  v->compaction_score_ = best_score;
}

Status VersionSet::WriteSnapshot(log::Writer* log) {
  // Save metadata. The snapshot record is self-describing: it carries the
  // next-file/log-number/last-sequence meta entries too, so a manifest
  // whose trailing edit is lost to a torn tail still decodes to a usable
  // state (recovery then replays every WAL from the older log number).
  VersionEdit edit;
  edit.SetComparatorName(icmp_.user_comparator()->Name());
  edit.SetNextFile(next_file_number_.load(std::memory_order_acquire));
  edit.SetLogNumber(log_number_.load(std::memory_order_acquire));
  edit.SetLastSequence(last_sequence_.load(std::memory_order_acquire));

  // Save compaction pointers.
  {
    std::lock_guard<std::mutex> pick_lock(pick_mutex_);
    for (int level = 0; level < kNumLevels; level++) {
      if (!compact_pointer_[level].empty()) {
        InternalKey key;
        key.DecodeFrom(compact_pointer_[level]);
        edit.SetCompactPointer(level, key);
      }
    }
  }

  // Save files.
  Version* current = current_unlocked();
  for (int level = 0; level < kNumLevels; level++) {
    for (const auto& f : current->files_[level]) {
      edit.AddFile(level, f->number, f->file_size, f->smallest, f->largest);
    }
  }

  std::string record;
  edit.EncodeTo(&record);
  return log->AddRecord(record);
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) {
  // Compaction workers install versions concurrently, so pin the current
  // version (epoch-protected ref) instead of reading it raw.
  Version* v = GetCurrent();
  for (int level = 0; level < kNumLevels; level++) {
    for (const auto& f : v->files_[level]) {
      live->insert(f->number);
    }
  }
  v->Unref();
}

std::string VersionSet::LevelSummary() const {
  std::string r = "files[";
  for (int level = 0; level < kNumLevels; level++) {
    r.append(std::to_string(NumLevelFiles(level)));
    r.push_back(level + 1 < kNumLevels ? ' ' : ']');
  }
  return r;
}

void VersionSet::GetRange(const std::vector<FileRef>& inputs, InternalKey* smallest,
                          InternalKey* largest) {
  assert(!inputs.empty());
  smallest->Clear();
  largest->Clear();
  for (size_t i = 0; i < inputs.size(); i++) {
    const FileMetaData* f = inputs[i].get();
    if (i == 0) {
      *smallest = f->smallest;
      *largest = f->largest;
    } else {
      if (icmp_.Compare(f->smallest.Encode(), smallest->Encode()) < 0) {
        *smallest = f->smallest;
      }
      if (icmp_.Compare(f->largest.Encode(), largest->Encode()) > 0) {
        *largest = f->largest;
      }
    }
  }
}

void VersionSet::GetRange2(const std::vector<FileRef>& inputs1,
                           const std::vector<FileRef>& inputs2, InternalKey* smallest,
                           InternalKey* largest) {
  std::vector<FileRef> all = inputs1;
  all.insert(all.end(), inputs2.begin(), inputs2.end());
  GetRange(all, smallest, largest);
}

void VersionSet::GetOverlappingInputs(Version* v, int level, const InternalKey* begin,
                                      const InternalKey* end, std::vector<FileRef>* inputs) {
  assert(level >= 0);
  assert(level < kNumLevels);
  inputs->clear();
  Slice user_begin, user_end;
  if (begin != nullptr) {
    user_begin = begin->user_key();
  }
  if (end != nullptr) {
    user_end = end->user_key();
  }
  const Comparator* user_cmp = icmp_.user_comparator();
  for (size_t i = 0; i < v->files_[level].size();) {
    FileRef f = v->files_[level][i++];
    const Slice file_start = f->smallest.user_key();
    const Slice file_limit = f->largest.user_key();
    if (begin != nullptr && user_cmp->Compare(file_limit, user_begin) < 0) {
      // "f" is completely before specified range; skip it.
    } else if (end != nullptr && user_cmp->Compare(file_start, user_end) > 0) {
      // "f" is completely after specified range; skip it.
    } else {
      inputs->push_back(f);
      if (level == 0) {
        // Level-0 files may overlap each other. So check if the newly
        // added file has expanded the range. If so, restart search.
        if (begin != nullptr && user_cmp->Compare(file_start, user_begin) < 0) {
          user_begin = file_start;
          inputs->clear();
          i = 0;
        } else if (end != nullptr && user_cmp->Compare(file_limit, user_end) > 0) {
          user_end = file_limit;
          inputs->clear();
          i = 0;
        }
      }
    }
  }
}

Compaction* VersionSet::NewCompaction(int level) {
  Compaction* c = new Compaction(options_, &icmp_, level);
  c->picker_stats_ = &picker_stats_.levels[level];
  picker_stats_.levels[level].picks.fetch_add(1, std::memory_order_relaxed);
  return c;
}

void VersionSet::SetCompactPointer(Compaction* c, const InternalKey& largest) {
  // Updated right away rather than waiting for the VersionEdit to be
  // applied: the caller holds pick_mutex_ and at most one compaction per
  // level is in flight, so no other picker can observe a torn value.
  compact_pointer_[c->level()] = largest.Encode().ToString();
  c->edit_.SetCompactPointer(c->level(), largest);
}

Compaction* VersionSet::PickFromLevel(Version* v) {
  // Best-scoring level whose job would be disjoint from every in-flight
  // one. A job at level L reads L and L+1, so both must be free.
  int level = -1;
  double best_score = 0;
  for (int l = 0; l < kNumLevels - 1; l++) {
    if (v->level_scores_[l] >= 1 && !level_busy_[l] && !level_busy_[l + 1] &&
        v->level_scores_[l] > best_score) {
      level = l;
      best_score = v->level_scores_[l];
    }
  }
  if (level < 0 || v->files_[level].empty()) {
    return nullptr;
  }
  assert(level + 1 < kNumLevels);
  Compaction* c = NewCompaction(level);

  // Pick the first file that comes after compact_pointer_[level].
  const std::string& cursor = compact_pointer_[level];
  for (const FileRef& f : v->files_[level]) {
    if (cursor.empty() || icmp_.Compare(f->largest.Encode(), cursor) > 0) {
      c->inputs_[0].push_back(f);
      break;
    }
  }
  if (c->inputs_[0].empty()) {
    // Wrap-around to the beginning of the key space.
    c->inputs_[0].push_back(v->files_[level][0]);
  }

  c->input_version_ = v;  // transfers the caller's reference

  // Files in level 0 may overlap each other, so pick up all overlapping
  // ones (discarding and re-deriving inputs_[0] from the seed's range).
  if (level == 0) {
    InternalKey smallest, largest;
    GetRange(c->inputs_[0], &smallest, &largest);
    GetOverlappingInputs(v, 0, &smallest, &largest, &c->inputs_[0]);
    assert(!c->inputs_[0].empty());
  }

  SetupOtherInputs(c);
  return c;
}

void VersionSet::SetupOtherInputs(Compaction* c) {
  const int level = c->level();
  Version* v = c->input_version_;
  std::vector<FileRef>& inputs0 = c->inputs_[0];
  std::vector<FileRef>& inputs1 = c->inputs_[1];
  CompactionPickerLevelStats& stats = picker_stats_.levels[level];
  InternalKey smallest, largest;
  GetRange(inputs0, &smallest, &largest);

  GetOverlappingInputs(v, level + 1, &smallest, &largest, &inputs1);

  // Full key range covered by this compaction.
  InternalKey all_start, all_limit;
  GetRange2(inputs0, inputs1, &all_start, &all_limit);

  // Input expansion: grow inputs_[0] with level-L files that fit under the
  // already-selected level-L+1 range, as long as (a) that does not pull in
  // more level-L+1 data and (b) total input bytes stay under the expansion
  // limit. More data rewritten per L+1 pass at the same L+1 read cost =
  // lower write amplification. Safe against in-flight jobs: level L and
  // L+1 were both verified free, and only jobs owning a level remove its
  // files, so every file seen here is unowned.
  if (!inputs1.empty()) {
    std::vector<FileRef> expanded0;
    GetOverlappingInputs(v, level, &all_start, &all_limit, &expanded0);
    const int64_t inputs1_size = TotalFileSize(inputs1);
    const int64_t expanded0_size = TotalFileSize(expanded0);
    const int64_t expansion_limit =
        static_cast<int64_t>(kExpandedCompactionFactor * options_->target_file_size);
    if (expanded0.size() > inputs0.size() && inputs1_size + expanded0_size < expansion_limit) {
      InternalKey new_start, new_limit;
      GetRange(expanded0, &new_start, &new_limit);
      std::vector<FileRef> expanded1;
      GetOverlappingInputs(v, level + 1, &new_start, &new_limit, &expanded1);
      if (expanded1.size() == inputs1.size()) {
        smallest = new_start;
        largest = new_limit;
        inputs0 = std::move(expanded0);
        inputs1 = std::move(expanded1);
        GetRange2(inputs0, inputs1, &all_start, &all_limit);
        stats.expansions.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }

  // Grandparent seeding: snapshot the files two levels down overlapping the
  // compaction range. Metadata only — never a merge input, so a busy
  // level+2 is fine (the snapshot is an admittedly stale heuristic then).
  if (c->output_level() + 1 < kNumLevels) {
    GetOverlappingInputs(v, c->output_level() + 1, &all_start, &all_limit, &c->grandparents_);
    const int64_t gp_bytes = TotalFileSize(c->grandparents_);
    if (gp_bytes > 0) {
      stats.grandparent_bytes.fetch_add(static_cast<uint64_t>(gp_bytes),
                                        std::memory_order_relaxed);
    }
    // Count refused trivial moves at pick time (once per job, not once per
    // IsTrivialMove() call): this job has the single-file/no-merge shape
    // but the guard will force a rewrite.
    if (inputs0.size() == 1 && inputs1.empty() &&
        static_cast<uint64_t>(gp_bytes) > c->max_grandparent_overlap_bytes_) {
      stats.trivial_moves_blocked.fetch_add(1, std::memory_order_relaxed);
    }
  }

  SetCompactPointer(c, largest);
}

Compaction* VersionSet::PickCompaction() {
  std::lock_guard<std::mutex> pick_lock(pick_mutex_);
  // Pin the version first (epoch-protected): the flush thread or another
  // compaction worker may install a new version concurrently. Files seen in
  // this version at a non-busy level cannot disappear before we register:
  // only a compaction owning that level removes them, and completed jobs
  // release their levels (under pick_mutex_) strictly after installing
  // their edit.
  Version* v = GetCurrent();
  Compaction* c = PickFromLevel(v);
  if (c == nullptr) {
    v->Unref();
    return nullptr;
  }
  RegisterInFlight(c);
  return c;
}

void VersionSet::RegisterInFlight(Compaction* c) {
  // pick_mutex_ held by PickCompaction.
  c->vset_ = this;
  level_busy_[c->level()] = true;
  level_busy_[c->output_level()] = true;
  c->inflight_numbers_ = c->InputFileNumbers();
  c->holds_levels_ = true;
  for (uint64_t number : c->inflight_numbers_) {
    if (!inflight_files_.insert(number).second) {
      // Two in-flight jobs would read the same file — must be impossible.
      inflight_overlaps_.fetch_add(1, std::memory_order_relaxed);
      assert(false && "compaction input file already owned by another job");
    }
  }
  inflight_compactions_.fetch_add(1, std::memory_order_acq_rel);
}

void VersionSet::ReleaseLevels(Compaction* c) {
  std::lock_guard<std::mutex> pick_lock(pick_mutex_);
  if (!c->holds_levels_) {
    return;
  }
  c->holds_levels_ = false;
  level_busy_[c->level()] = false;
  level_busy_[c->output_level()] = false;
  for (uint64_t number : c->inflight_numbers_) {
    inflight_files_.erase(number);
  }
}

void VersionSet::UnregisterInFlight(Compaction* c) {
  ReleaseLevels(c);
  inflight_compactions_.fetch_sub(1, std::memory_order_acq_rel);
}

Iterator* VersionSet::MakeInputIterator(Compaction* c, const Slice* begin, const Slice* end) {
  ReadOptions options;
  options.verify_checksums = options_->paranoid_checks;
  options.fill_cache = false;

  // One iterator per input file; compaction input sets are small, so a flat
  // k-way merge is as good as LevelDB's concatenate-then-merge and simpler.
  const Comparator* ucmp = icmp_.user_comparator();
  std::vector<Iterator*> list;
  list.reserve(c->num_input_files(0) + c->num_input_files(1));
  for (int which = 0; which < 2; which++) {
    for (const auto& f : c->inputs_[which]) {
      if ((begin != nullptr && ucmp->Compare(f->largest.user_key(), *begin) < 0) ||
          (end != nullptr && ucmp->Compare(f->smallest.user_key(), *end) >= 0)) {
        continue;  // holds no key of the range
      }
      list.push_back(NewTableIterator(options, f.get()));
    }
  }
  return NewMergingIterator(&icmp_, list.data(), static_cast<int>(list.size()));
}

Compaction::Compaction(const Options* options, const InternalKeyComparator* icmp, int level)
    : options_(options),
      icmp_(icmp),
      level_(level),
      max_grandparent_overlap_bytes_(kMaxGrandparentOverlapFactor * options->target_file_size),
      input_version_(nullptr) {}

Compaction::~Compaction() {
  // Level ownership ends strictly after the job's edit (if any) was
  // installed by LogAndApply, so a new pick at these levels always sees a
  // version reflecting the result. A job that installed gave its levels
  // back in ReleaseInputs already.
  if (vset_ != nullptr) {
    vset_->UnregisterInFlight(this);
  }
  if (input_version_ != nullptr) {
    input_version_->Unref();
  }
}

int64_t Compaction::TotalInputBytes() const {
  int64_t total = 0;
  for (int which = 0; which < 2; which++) {
    for (const auto& f : inputs_[which]) {
      total += f->file_size;
    }
  }
  return total;
}

std::vector<uint64_t> Compaction::InputFileNumbers() const {
  std::vector<uint64_t> numbers;
  numbers.reserve(inputs_[0].size() + inputs_[1].size());
  for (int which = 0; which < 2; which++) {
    for (const auto& f : inputs_[which]) {
      numbers.push_back(f->number);
    }
  }
  return numbers;
}

bool Compaction::IsTrivialMove() const {
  // A single input file with nothing to merge with below can simply be
  // relocated one level down — unless it would land on a wide grandparent
  // range: parking the file there manufactures one future compaction whose
  // read set is the whole range (the spike the output-splitting bound
  // exists to prevent), so past the bound the file is rewritten into
  // bounded pieces instead.
  if (num_input_files(0) != 1 || num_input_files(1) != 0) {
    return false;
  }
  return TotalFileSize(grandparents_) <= static_cast<int64_t>(max_grandparent_overlap_bytes_);
}

bool Compaction::ShouldStopBefore(CompactionCursor* cursor, const Slice& internal_key) const {
  // Scan forward to the first grandparent file whose largest key is at or
  // past internal_key, charging each fully passed file's size to the
  // current output. Keys arrive in non-decreasing order, so the cursor
  // only ever advances — O(|grandparents_|) across one range's merge.
  while (cursor->grandparent_index < grandparents_.size() &&
         icmp_->Compare(internal_key,
                        grandparents_[cursor->grandparent_index]->largest.Encode()) > 0) {
    if (cursor->seen_key) {
      cursor->overlapped_bytes +=
          static_cast<int64_t>(grandparents_[cursor->grandparent_index]->file_size);
    }
    cursor->grandparent_index++;
  }
  cursor->seen_key = true;

  if (cursor->overlapped_bytes > static_cast<int64_t>(max_grandparent_overlap_bytes_)) {
    // Too much overlap for current output; start new output.
    cursor->overlapped_bytes = 0;
    if (picker_stats_ != nullptr) {
      picker_stats_->output_splits.fetch_add(1, std::memory_order_relaxed);
    }
    return true;
  }
  return false;
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    for (size_t i = 0; i < inputs_[which].size(); i++) {
      edit->RemoveFile(level_ + which, inputs_[which][i]->number);
    }
  }
}

bool Compaction::IsBaseLevelForKey(CompactionCursor* cursor, const Slice& user_key) const {
  // Maybe use binary search to find right entry instead of linear search?
  const Comparator* user_cmp = input_version_->vset_->icmp_.user_comparator();
  for (int lvl = output_level() + 1; lvl < kNumLevels; lvl++) {
    const std::vector<FileRef>& files = input_version_->files_[lvl];
    size_t& ptr = cursor->level_ptrs[lvl];
    while (ptr < files.size()) {
      FileMetaData* f = files[ptr].get();
      if (user_cmp->Compare(user_key, f->largest.user_key()) <= 0) {
        // We've advanced far enough.
        if (user_cmp->Compare(user_key, f->smallest.user_key()) >= 0) {
          // Key falls in this file's range, so definitely not base level.
          return false;
        }
        break;
      }
      ptr++;
    }
  }
  return true;
}

std::vector<std::string> Compaction::RangeCuts(int max_ranges) const {
  std::vector<std::string> cuts;
  const std::vector<FileRef>& files = inputs_[1];
  const int64_t ranges = std::min<int64_t>(max_ranges, static_cast<int64_t>(files.size()));
  if (ranges < 2) {
    return cuts;
  }
  // Walk the sorted output-level inputs and cut before file i+1 once the
  // bytes up to file i reach the next range's share of the total. Versions
  // of one user key may straddle two files; a file that starts with the
  // previous cut's key adds no cut, so no two cuts coincide.
  const Comparator* ucmp = icmp_->user_comparator();
  const int64_t total = std::max<int64_t>(1, TotalFileSize(files));
  int64_t bytes = 0;
  for (size_t i = 0; i + 1 < files.size() && static_cast<int64_t>(cuts.size()) + 1 < ranges;
       i++) {
    bytes += static_cast<int64_t>(files[i]->file_size);
    const Slice cut = files[i + 1]->smallest.user_key();
    if (bytes * ranges >= total * static_cast<int64_t>(cuts.size() + 1) &&
        (cuts.empty() || ucmp->Compare(cut, cuts.back()) != 0)) {
      cuts.push_back(cut.ToString());
    }
  }
  return cuts;
}

void Compaction::ReleaseInputs() {
  // Levels first: unlinking a replaced table can take a millisecond or
  // more, which the next job at these levels need not wait for.
  if (vset_ != nullptr) {
    vset_->ReleaseLevels(this);
  }
  inputs_[0].clear();
  inputs_[1].clear();
  grandparents_.clear();
  if (input_version_ != nullptr) {
    input_version_->Unref();
    input_version_ = nullptr;
  }
}

}  // namespace clsm
