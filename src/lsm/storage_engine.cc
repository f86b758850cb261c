#include "src/lsm/storage_engine.h"

#include <algorithm>
#include <chrono>

#include "src/lsm/filename.h"
#include "src/table/table_builder.h"
#include "src/util/coding.h"
#include "src/wal/log_reader.h"

namespace clsm {

static_assert(kNumLevels <= CompactionStats::kMaxLevels,
              "CompactionStats cannot hold per-level counters for every level");

void EncodeWalRecord(std::string* dst, SequenceNumber seq, ValueType type, const Slice& key,
                     const Slice& value) {
  PutVarint64(dst, seq);
  dst->push_back(static_cast<char>(type));
  PutLengthPrefixedSlice(dst, key);
  PutLengthPrefixedSlice(dst, value);
}

bool DecodeWalOpFrom(Slice* input, SequenceNumber* seq, ValueType* type, Slice* key,
                     Slice* value) {
  if (!GetVarint64(input, seq)) {
    return false;
  }
  if (input->empty()) {
    return false;
  }
  uint8_t t = static_cast<uint8_t>((*input)[0]);
  if (t > kTypeValue) {
    return false;
  }
  *type = static_cast<ValueType>(t);
  input->remove_prefix(1);
  return GetLengthPrefixedSlice(input, key) && GetLengthPrefixedSlice(input, value);
}

StorageEngine::StorageEngine(const Options& options, const std::string& dbname)
    : options_(options),
      dbname_(dbname),
      env_(options.env != nullptr ? options.env : Env::Default()),
      icmp_(options.comparator != nullptr ? options.comparator : BytewiseComparator()),
      block_cache_(options.block_cache_size),
      listeners_(options.listeners) {
  options_.env = env_;
  options_.comparator = icmp_.user_comparator();
  if (options_.bloom_bits_per_key > 0) {
    user_filter_policy_.reset(NewBloomFilterPolicy(options_.bloom_bits_per_key));
    filter_policy_ = std::make_unique<InternalFilterPolicy>(user_filter_policy_.get());
  }
  versions_ = std::make_unique<VersionSet>(dbname_, &options_, filter_policy_.get(),
                                           &block_cache_, &icmp_, &epochs_);
}

StorageEngine::~StorageEngine() { StopCompactionScheduler(); }

void StorageEngine::RecordBackgroundError(BgErrorReason reason, const Status& s) {
  if (s.ok()) {
    return;
  }
  const BgErrorSeverity sev = bg_error_.Record(reason, s);
  listeners_.NotifyBackgroundError(BackgroundErrorInfo{reason, sev, s});
}

void StorageEngine::RemoveFileTracked(const std::string& fname) {
  Status s = env_->RemoveFile(fname);
  if (!s.ok()) {
    // A leaked file loses no data: report (gauge + listener) but do not
    // latch — latching would wrongly push the store read-only.
    cleanup_failures_.fetch_add(1, std::memory_order_relaxed);
    listeners_.NotifyBackgroundError(
        BackgroundErrorInfo{BgErrorReason::kFileCleanup, BgErrorSeverity::kSoft, s});
  }
}

void StorageEngine::StartCompactionScheduler(int num_threads,
                                             std::function<SequenceNumber()> smallest_snapshot,
                                             std::function<void(const Status&)> on_error) {
  assert(compaction_workers_.empty());
  sched_smallest_snapshot_ = std::move(smallest_snapshot);
  sched_on_error_ = std::move(on_error);
  sched_shutdown_.store(false, std::memory_order_release);
  const int n = std::max(1, num_threads);
  sched_max_ranges_ = n;
  compaction_workers_.reserve(n);
  for (int i = 0; i < n; i++) {
    compaction_workers_.emplace_back([this] { CompactionWorkerLoop(); });
  }
}

void StorageEngine::StopCompactionScheduler() {
  sched_shutdown_.store(true, std::memory_order_release);
  sched_cv_.notify_all();
  for (std::thread& w : compaction_workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
  compaction_workers_.clear();
}

void StorageEngine::SignalCompaction() { sched_cv_.notify_all(); }

void StorageEngine::CompactionWorkerLoop() {
  int idle_rounds = 0;
  while (!sched_shutdown_.load(std::memory_order_acquire)) {
    // A range offered by a running merge comes before new work: it
    // finishes a job that already holds its levels.
    if (RunQueuedRange(nullptr)) {
      idle_rounds = 0;
      continue;
    }
    // Picking marks the job's levels in-flight, so concurrent workers
    // always obtain disjoint file sets (or nullptr).
    std::unique_ptr<Compaction> c(versions_->PickCompaction());
    if (c == nullptr) {
      std::unique_lock<std::mutex> l(sched_mutex_);
      if (sched_shutdown_.load(std::memory_order_acquire)) {
        return;
      }
      if (!range_queue_.empty()) {
        continue;  // offered while this worker was picking
      }
      // Ranges are queued under this lock, so none is missed; pickable
      // work is not, and the timed wait doubles as a poll for it. Back off
      // while idle so surplus workers don't burn cycles re-picking
      // nothing — flushes and stalled writers signal immediately when
      // work appears.
      idle_rounds = std::min(idle_rounds + 1, 10);
      sched_cv_.wait_for(l, std::chrono::milliseconds(2 * idle_rounds));
      continue;
    }
    idle_rounds = 0;
    const SequenceNumber smallest_snapshot =
        sched_smallest_snapshot_ ? sched_smallest_snapshot_() : kMaxSequenceNumber;
    Status s = RunCompaction(c.get(), smallest_snapshot, sched_max_ranges_);
    c.reset();  // ends the job in flight (and a failed job's claim on its levels)
    if (!s.ok()) {
      // RunCompaction already latched the background error; the callback
      // only wakes the owning DB (stalled writers re-check the state).
      if (sched_on_error_) {
        sched_on_error_(s);
      }
      // Back off instead of hot-looping on a persistent failure (the level
      // stays pickable because its score never dropped).
      std::unique_lock<std::mutex> l(sched_mutex_);
      sched_cv_.wait_for(l, std::chrono::milliseconds(10));
      continue;
    }
    // The result may have made a deeper level pickable for an idle peer.
    sched_cv_.notify_one();
  }
}

Status StorageEngine::NewDB() {
  VersionEdit new_db;
  new_db.SetComparatorName(icmp_.user_comparator()->Name());
  new_db.SetLogNumber(0);
  new_db.SetNextFile(2);
  new_db.SetLastSequence(0);

  const std::string manifest = DescriptorFileName(dbname_, 1);
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(manifest, &file);
  if (!s.ok()) {
    return s;
  }
  {
    log::Writer log(file.get());
    std::string record;
    new_db.EncodeTo(&record);
    s = log.AddRecord(record);
    if (s.ok()) {
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }
  }
  if (s.ok()) {
    // Make "CURRENT" file that points to the new manifest file.
    s = SetCurrentFile(env_, dbname_, 1);
  } else {
    RemoveFileTracked(manifest);
  }
  return s;
}

Status StorageEngine::Open(MemTable** recovered_mem, SequenceNumber* max_seq) {
  *recovered_mem = nullptr;
  *max_seq = 0;

  env_->CreateDir(dbname_);
  if (!env_->FileExists(CurrentFileName(dbname_))) {
    if (!options_.create_if_missing) {
      return Status::InvalidArgument(dbname_, "does not exist (create_if_missing is false)");
    }
    Status s = NewDB();
    if (!s.ok()) {
      return s;
    }
  } else if (options_.error_if_exists) {
    return Status::InvalidArgument(dbname_, "exists (error_if_exists is true)");
  }

  Status s = versions_->Recover();
  if (!s.ok()) {
    return s;
  }

  // Replay WAL files newer than the version set's log number, oldest first.
  std::vector<std::string> filenames;
  s = env_->GetChildren(dbname_, &filenames);
  if (!s.ok()) {
    return s;
  }
  std::vector<uint64_t> logs;
  for (const auto& filename : filenames) {
    uint64_t number;
    FileType type;
    if (ParseFileName(filename, &number, &type) && type == kLogFile &&
        number >= versions_->LogNumber()) {
      logs.push_back(number);
    }
  }
  std::sort(logs.begin(), logs.end());

  SequenceNumber seq = versions_->LastSequence();
  MemTable* mem = nullptr;
  for (uint64_t log_number : logs) {
    if (mem == nullptr) {
      mem = new MemTable(icmp_);
    }
    s = RecoverLogFile(log_number, mem, &seq);
    if (!s.ok()) {
      mem->Unref();
      return s;
    }
  }
  if (seq > versions_->LastSequence()) {
    versions_->SetLastSequence(seq);
  }
  *recovered_mem = mem;
  *max_seq = seq;
  return Status::OK();
}

Status StorageEngine::RecoverLogFile(uint64_t log_number, MemTable* mem, SequenceNumber* max_seq) {
  struct LogReporter : public log::Reader::Reporter {
    Status* status;
    uint64_t dropped_bytes = 0;
    void Corruption(size_t bytes, const Status& s) override {
      dropped_bytes += bytes;
      if (status->ok()) {
        *status = s;
      }
    }
  };

  std::string fname = LogFileName(dbname_, log_number);
  std::unique_ptr<SequentialFile> file;
  Status s = env_->NewSequentialFile(fname, &file);
  if (!s.ok()) {
    return s;
  }

  Status corruption_status;
  LogReporter reporter;
  reporter.status = &corruption_status;
  log::Reader reader(file.get(), &reporter, true /*checksum*/, 0);

  // The asynchronous logger writes records out of order; collect them all,
  // sort by timestamp, and replay (paper §4: "the correct order is easily
  // restored upon recovery" from the cLSM-generated timestamps).
  struct Op {
    SequenceNumber seq;
    ValueType type;
    std::string key;
    std::string value;
  };
  std::vector<Op> ops;

  Slice record;
  std::string scratch;
  while (reader.ReadRecord(&record, &scratch)) {
    if (record.empty()) {
      // Zero-length records are durability barriers emitted by synchronous
      // group commits; they carry no operation.
      continue;
    }
    // A record may hold several operations (atomic batch): all or nothing.
    Slice rest = record;
    std::vector<Op> record_ops;
    while (!rest.empty()) {
      SequenceNumber seq;
      ValueType type;
      Slice key, value;
      if (!DecodeWalOpFrom(&rest, &seq, &type, &key, &value)) {
        return Status::Corruption("malformed WAL record", fname);
      }
      record_ops.push_back(Op{seq, type, key.ToString(), value.ToString()});
    }
    ops.insert(ops.end(), record_ops.begin(), record_ops.end());
  }
  if (!corruption_status.ok()) {
    // A crash can tear the unsynced tail of the last WAL mid-block; the
    // reader resyncs and reports the damaged span. Acked synchronous
    // writes are always in the synced prefix, so dropping the tail loses
    // nothing the store promised to keep. Only paranoid mode refuses to
    // open; otherwise count what was dropped and recover the rest.
    if (options_.paranoid_checks) {
      return corruption_status;
    }
    wal_recovery_drops_.fetch_add(reporter.dropped_bytes > 0 ? reporter.dropped_bytes : 1,
                                  std::memory_order_relaxed);
  }

  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) { return a.seq < b.seq; });
  for (const Op& op : ops) {
    mem->Add(op.seq, op.type, op.key, op.value);
    if (op.seq > *max_seq) {
      *max_seq = op.seq;
    }
  }
  return Status::OK();
}

Status StorageEngine::Get(const ReadOptions& options, const LookupKey& lookup_key,
                          std::string* value, SequenceNumber* seq_found) {
  Version* v = versions_->GetCurrent();
  Status s = v->Get(options, lookup_key, value, seq_found);
  v->Unref();
  return s;
}

Version* StorageEngine::AddVersionIterators(const ReadOptions& options,
                                            std::vector<Iterator*>* iters) {
  Version* v = versions_->GetCurrent();
  v->AddIterators(options, iters);
  return v;
}

// One flush or compaction output table. The builder's blocks collect in the
// file's 64 KiB buffer and leave in large writes; every kWritebackBytes the
// kernel is asked to start writing what has been appended, so the closing
// fdatasync waits only for the tail. A table that is never finished, or
// whose Finish fails, has its file removed: a failed attempt leaves no
// unreferenced .sst behind. One table at a time; reusable after Finish.
class StorageEngine::TableOutput {
 public:
  // sync_micros accumulates the closing fdatasync's time, so the sync share
  // of the stage is readable from its stats.
  TableOutput(StorageEngine* engine, std::atomic<uint64_t>* sync_micros)
      : engine_(engine), sync_micros_(sync_micros) {}
  TableOutput(const TableOutput&) = delete;
  TableOutput& operator=(const TableOutput&) = delete;
  // Abandons an unfinished table and removes its file.
  ~TableOutput() {
    if (builder_ != nullptr) {
      builder_->Abandon();
      builder_.reset();
      file_.reset();
      engine_->RemoveFileTracked(TableFileName(engine_->dbname_, meta_.number));
    }
  }

  bool is_open() const { return builder_ != nullptr; }
  uint64_t FileSize() const { return builder_->FileSize(); }

  // Creates table file `number`. REQUIRES: !is_open().
  Status Open(uint64_t number) {
    assert(!is_open());
    meta_ = FileMetaData();
    meta_.number = number;
    Status s = engine_->env_->NewWritableFile(TableFileName(engine_->dbname_, number), &file_);
    if (s.ok()) {
      builder_ = std::make_unique<TableBuilder>(engine_->options_, &engine_->icmp_,
                                                engine_->filter_policy_.get(), file_.get());
      writeback_status_ = Status::OK();
      next_writeback_ = kWritebackBytes;
    }
    return s;
  }

  // REQUIRES: is_open(); key after every key added since Open.
  void Add(const Slice& key, const Slice& value) {
    if (builder_->NumEntries() == 0) {
      meta_.smallest.DecodeFrom(key);
    }
    meta_.largest.DecodeFrom(key);
    builder_->Add(key, value);
    if (builder_->FileSize() >= next_writeback_ && writeback_status_.ok()) {
      writeback_status_ = file_->StartWriteback();
      next_writeback_ = builder_->FileSize() + kWritebackBytes;
    }
  }

  // Completes the table, fdatasyncs and closes it. On success *meta
  // describes the durable file; on failure the file is removed.
  // REQUIRES: is_open().
  Status Finish(FileMetaData* meta) {
    Status s = builder_->Finish();
    if (s.ok()) {
      s = writeback_status_;  // a failed writeback lost buffered bytes
    }
    if (s.ok()) {
      meta_.file_size = builder_->FileSize();
      const uint64_t t0 = MonotonicNanos();
      s = file_->Sync();
      sync_micros_->fetch_add((MonotonicNanos() - t0) / 1000, std::memory_order_relaxed);
    }
    if (s.ok()) {
      s = file_->Close();
    }
    builder_.reset();
    file_.reset();
    if (s.ok()) {
      *meta = meta_;
    } else {
      engine_->RemoveFileTracked(TableFileName(engine_->dbname_, meta_.number));
    }
    return s;
  }

 private:
  static constexpr uint64_t kWritebackBytes = 1 << 20;

  StorageEngine* const engine_;
  std::atomic<uint64_t>* const sync_micros_;
  FileMetaData meta_;
  std::unique_ptr<WritableFile> file_;
  std::unique_ptr<TableBuilder> builder_;
  Status writeback_status_;
  uint64_t next_writeback_ = 0;
};

Status StorageEngine::BuildTable(Iterator* iter, FileMetaData* meta,
                                 SequenceNumber smallest_snapshot) {
  meta->file_size = 0;
  iter->SeekToFirst();
  if (!iter->Valid()) {
    return Status::OK();  // empty: caller checks file_size == 0
  }

  TableOutput out(this, &compaction_stats_.flush_sync_micros);
  Status s = out.Open(meta->number);
  if (!s.ok()) {
    return s;
  }
  // The compactions' obsolete-version rule: skip a version when the entry
  // before it, the newer version of the same key, is at or below
  // smallest_snapshot. Slices into the memtable stay valid for the loop.
  Slice key;
  ParsedInternalKey newer(Slice(), 0, kTypeValue);
  for (; iter->Valid(); iter->Next()) {
    ParsedInternalKey ikey;
    if (ParseInternalKey(iter->key(), &ikey)) {
      const bool shadowed = !key.empty() && newer.sequence <= smallest_snapshot &&
                            icmp_.user_comparator()->Compare(ikey.user_key, newer.user_key) == 0;
      newer = ikey;
      if (shadowed) {
        continue;
      }
    }
    key = iter->key();
    out.Add(key, iter->value());
  }
  s = iter->status();
  if (s.ok()) {
    s = out.Finish(meta);
  }
  return s;
}

Status StorageEngine::FlushMemTable(MemTable* mem, uint64_t log_number,
                                    SequenceNumber smallest_snapshot) {
  FlushJobInfo info;
  info.memtable_entries = mem->NumEntries();
  info.memtable_bytes = mem->ApproximateMemoryUsage();
  listeners_.NotifyFlushBegin(info);
  const uint64_t t0 = MonotonicNanos();

  FileMetaData meta;
  meta.number = versions_->NewFileNumber();
  std::unique_ptr<Iterator> iter(mem->NewIterator());

  Status s = BuildTable(iter.get(), &meta, smallest_snapshot);
  if (!s.ok()) {
    RecordBackgroundError(BgErrorReason::kFlush, s);
  } else {
    VersionEdit edit;
    if (meta.file_size > 0) {
      edit.AddFile(0, meta.number, meta.file_size, meta.smallest, meta.largest);
    }
    edit.SetLogNumber(log_number);
    s = versions_->LogAndApply(&edit);
    if (!s.ok()) {
      RecordBackgroundError(BgErrorReason::kManifestWrite, s);
    }
  }

  const uint64_t nanos = MonotonicNanos() - t0;
  compaction_stats_.flush_count.fetch_add(1, std::memory_order_relaxed);
  compaction_stats_.flush_bytes_written.fetch_add(meta.file_size, std::memory_order_relaxed);
  compaction_stats_.flush_micros.fetch_add(nanos / 1000, std::memory_order_relaxed);
  if (registry_ != nullptr) {
    registry_->Record(OpMetric::kFlush, nanos);
  }
  info.output_file_size = meta.file_size;
  info.micros = nanos / 1000;
  listeners_.NotifyFlushEnd(info);
  return s;
}

Status StorageEngine::CommitLogRotation(uint64_t log_number) {
  VersionEdit edit;
  edit.SetLogNumber(log_number);
  Status s = versions_->LogAndApply(&edit);
  if (!s.ok()) {
    RecordBackgroundError(BgErrorReason::kManifestWrite, s);
  }
  return s;
}

Status StorageEngine::CompactOnce(SequenceNumber smallest_snapshot, bool* did_work) {
  *did_work = false;
  std::unique_ptr<Compaction> c(versions_->PickCompaction());
  if (c == nullptr) {
    return Status::OK();
  }
  *did_work = true;
  return RunCompaction(c.get(), smallest_snapshot, 1);
}

// What one merge reports back to RunCompaction.
struct StorageEngine::MergeOutcome {
  uint64_t bytes_written = 0;
  size_t ranges = 0;          // key ranges merged
  uint64_t thread_nanos = 0;  // summed over the threads that merged it
  BgErrorReason fail_reason = BgErrorReason::kCompaction;
};

// One merge split into key ranges: range i covers the user keys
// [cuts[i-1], cuts[i]) and writes its own output tables.
struct StorageEngine::MergeJob {
  struct Range {
    Status status;
    std::vector<FileMetaData> outputs;
  };

  MergeJob(Compaction* job, SequenceNumber snapshot, std::vector<std::string> range_cuts)
      : c(job),
        smallest_snapshot(snapshot),
        cuts(std::move(range_cuts)),
        ranges(cuts.size() + 1) {}

  Compaction* const c;
  const SequenceNumber smallest_snapshot;
  const std::vector<std::string> cuts;
  std::vector<Range> ranges;
  std::atomic<bool> failed{false};        // a range failed: the others stop
  std::atomic<uint64_t> helper_nanos{0};  // merge time of ranges other workers ran
  size_t queued = 0;                      // queued ranges not yet merged; sched_mutex_
  std::condition_variable done;           // queued reached 0
};

Status StorageEngine::RunCompaction(Compaction* c, SequenceNumber smallest_snapshot,
                                    int max_ranges) {
  CompactionStats::LevelStats& stats = compaction_stats_.level(c->level());
  const uint64_t t0 = MonotonicNanos();
  stats.compactions.fetch_add(1, std::memory_order_relaxed);

  CompactionJobInfo info;
  info.level = c->level();
  info.trivial_move = c->IsTrivialMove();
  info.bytes_read = info.trivial_move ? 0 : static_cast<uint64_t>(c->TotalInputBytes());
  listeners_.NotifyCompactionBegin(info);

  Status s;
  BgErrorReason fail_reason = BgErrorReason::kCompaction;
  uint64_t thread_nanos = 0;
  if (c->IsTrivialMove()) {
    // Move the file down one level without rewriting it (no IO: the move
    // contributes to the job count but not to bytes read/written).
    FileMetaData* f = c->input(0, 0);
    c->edit()->RemoveFile(c->level(), f->number);
    c->edit()->AddFile(c->output_level(), f->number, f->file_size, f->smallest, f->largest);
    stats.trivial_moves.fetch_add(1, std::memory_order_relaxed);
    s = versions_->LogAndApply(c->edit());
    fail_reason = BgErrorReason::kManifestWrite;
    thread_nanos = MonotonicNanos() - t0;
  } else {
    MergeOutcome outcome;
    stats.bytes_read.fetch_add(info.bytes_read, std::memory_order_relaxed);
    s = DoCompactionWork(c, smallest_snapshot, max_ranges, &outcome);
    stats.bytes_written.fetch_add(outcome.bytes_written, std::memory_order_relaxed);
    stats.subcompactions.fetch_add(outcome.ranges, std::memory_order_relaxed);
    info.bytes_written = outcome.bytes_written;
    fail_reason = outcome.fail_reason;
    thread_nanos = outcome.thread_nanos;
  }
  if (s.ok()) {
    // A soft error stood for a compaction to retry, and one has installed.
    // Cleared before the levels go back to the picker, so an error of a
    // later job at these levels is never the one cleared.
    bg_error_.ClearSoft();
    // The replaced tables go now, before the end event.
    c->ReleaseInputs();
  } else {
    RecordBackgroundError(fail_reason, s);
  }

  // The level's micros is merge-thread time (ranges merged in parallel
  // add up), so it bounds the output syncs inside them; the job's wall
  // time goes to the latency series and the listeners.
  const uint64_t nanos = MonotonicNanos() - t0;
  stats.micros.fetch_add(thread_nanos / 1000, std::memory_order_relaxed);
  if (registry_ != nullptr) {
    registry_->Record(OpMetric::kCompaction, nanos);
  }
  info.micros = nanos / 1000;
  listeners_.NotifyCompactionEnd(info);
  return s;
}

Status StorageEngine::DoCompactionWork(Compaction* c, SequenceNumber smallest_snapshot,
                                       int max_ranges, MergeOutcome* outcome) {
  const uint64_t t0 = MonotonicNanos();
  // kMaxSequenceNumber doubles as the "newest entry seen so far" sentinel in
  // the drop rule of MergeRange; a caller passing it as "no snapshots" must
  // not make the sentinel itself satisfy last_sequence_for_key <=
  // smallest_snapshot.
  if (smallest_snapshot >= kMaxSequenceNumber) {
    smallest_snapshot = kMaxSequenceNumber - 1;
  }
  MergeJob job(c, smallest_snapshot, c->RangeCuts(max_ranges));
  const size_t n = job.ranges.size();
  if (n > 1) {
    {
      std::lock_guard<std::mutex> l(sched_mutex_);
      for (size_t i = 1; i < n; i++) {
        range_queue_.emplace_back(&job, i);
      }
      job.queued = n - 1;
    }
    sched_cv_.notify_all();
  }
  MergeRange(&job, 0);
  // Merge the ranges no idle worker has taken, then wait for the rest.
  while (RunQueuedRange(&job)) {
  }
  uint64_t wait_nanos = 0;
  {
    std::unique_lock<std::mutex> l(sched_mutex_);
    if (job.queued > 0) {
      const uint64_t w0 = MonotonicNanos();
      job.done.wait(l, [&job] { return job.queued == 0; });
      wait_nanos = MonotonicNanos() - w0;
    }
  }

  Status s;
  for (const MergeJob::Range& r : job.ranges) {
    if (!r.status.ok()) {
      s = r.status;
      break;
    }
  }
  if (s.ok()) {
    c->AddInputDeletions(c->edit());
    for (const MergeJob::Range& r : job.ranges) {
      for (const FileMetaData& out : r.outputs) {
        c->edit()->AddFile(c->output_level(), out.number, out.file_size, out.smallest,
                           out.largest);
        outcome->bytes_written += out.file_size;
      }
    }
    s = versions_->LogAndApply(c->edit());
    if (!s.ok()) {
      outcome->fail_reason = BgErrorReason::kManifestWrite;
    }
  }
  if (!s.ok()) {
    // Discard the outputs every range managed to write; they were never
    // installed.
    for (const MergeJob::Range& r : job.ranges) {
      for (const FileMetaData& out : r.outputs) {
        RemoveFileTracked(TableFileName(dbname_, out.number));
      }
    }
  }
  outcome->ranges = n;
  outcome->thread_nanos =
      MonotonicNanos() - t0 - wait_nanos + job.helper_nanos.load(std::memory_order_relaxed);
  return s;
}

void StorageEngine::MergeRange(MergeJob* job, size_t i) {
  Compaction* const c = job->c;
  const SequenceNumber smallest_snapshot = job->smallest_snapshot;
  const bool has_begin = i > 0;
  const bool has_end = i < job->cuts.size();
  const Slice begin = has_begin ? Slice(job->cuts[i - 1]) : Slice();
  const Slice end = has_end ? Slice(job->cuts[i]) : Slice();
  std::unique_ptr<Iterator> input(versions_->MakeInputIterator(
      c, has_begin ? &begin : nullptr, has_end ? &end : nullptr));
  // A range starts where a seek to its first user key lands and stops
  // where the next range's seek lands, so the ranges partition the merged
  // input and each user key's versions stay in one range.
  if (has_begin) {
    input->Seek(InternalKey(begin, kMaxSequenceNumber, kValueTypeForSeek).Encode());
  } else {
    input->SeekToFirst();
  }
  InternalKey end_key;
  if (has_end) {
    end_key = InternalKey(end, kMaxSequenceNumber, kValueTypeForSeek);
  }

  Status s;
  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
  CompactionCursor cursor;

  // An output a failure cuts short is removed when `out` goes out of scope.
  TableOutput out(this, &compaction_stats_.level(c->level()).sync_micros);
  std::vector<FileMetaData>& outputs = job->ranges[i].outputs;
  auto finish_output = [&]() -> Status {
    FileMetaData meta;
    Status fs = out.Finish(&meta);
    if (fs.ok()) {
      outputs.push_back(meta);
    }
    return fs;
  };

  const Comparator* ucmp = icmp_.user_comparator();
  // A failed sibling range fails the whole job, so stop as soon as one does.
  for (; input->Valid() && s.ok() && !job->failed.load(std::memory_order_relaxed);
       input->Next()) {
    Slice key = input->key();
    if (has_end && icmp_.Compare(key, end_key.Encode()) >= 0) {
      break;
    }

    // Cut the current output when its accumulated overlap with grandparent
    // (output_level+1) files passes the configured bound, so no single
    // output file manufactures an oversized future compaction one level
    // down.
    if (out.is_open() && c->ShouldStopBefore(&cursor, key)) {
      s = finish_output();
      if (!s.ok()) {
        break;
      }
    }

    bool drop = false;
    ParsedInternalKey ikey;
    if (!ParseInternalKey(key, &ikey)) {
      // Do not hide corruption: pass it through.
      current_user_key.clear();
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
    } else {
      if (!has_current_user_key || ucmp->Compare(ikey.user_key, Slice(current_user_key)) != 0) {
        // First occurrence (newest version) of this user key.
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
      }

      if (last_sequence_for_key <= smallest_snapshot) {
        // Hidden by a newer entry that is itself visible at or below the
        // oldest snapshot — no snapshot can observe this version (§3.2.1:
        // for every key and snapshot, keep only the latest version not
        // exceeding the snapshot's timestamp).
        drop = true;
      } else if (ikey.type == kTypeDeletion && ikey.sequence <= smallest_snapshot &&
                 c->IsBaseLevelForKey(&cursor, ikey.user_key)) {
        // The deletion marker is invisible to all snapshots and there is no
        // older version underneath it to resurrect: drop the marker itself.
        drop = true;
      }

      last_sequence_for_key = ikey.sequence;
    }

    if (!drop) {
      if (!out.is_open()) {
        s = out.Open(versions_->NewFileNumber());
        if (!s.ok()) {
          break;
        }
      }
      out.Add(key, input->value());

      if (out.FileSize() >= c->MaxOutputFileSize()) {
        s = finish_output();
        if (!s.ok()) {
          break;
        }
      }
    }
  }

  if (s.ok()) {
    s = input->status();
  }
  if (s.ok() && out.is_open() && !job->failed.load(std::memory_order_relaxed)) {
    s = finish_output();
  }
  job->ranges[i].status = s;
  if (!s.ok()) {
    job->failed.store(true, std::memory_order_relaxed);
  }
}

bool StorageEngine::RunQueuedRange(MergeJob* job) {
  std::unique_lock<std::mutex> l(sched_mutex_);
  auto it = range_queue_.begin();
  if (job != nullptr) {
    it = std::find_if(range_queue_.begin(), range_queue_.end(),
                      [job](const std::pair<MergeJob*, size_t>& e) { return e.first == job; });
  }
  if (it == range_queue_.end()) {
    return false;
  }
  MergeJob* const owner = it->first;
  const size_t i = it->second;
  range_queue_.erase(it);
  l.unlock();

  const uint64_t t0 = MonotonicNanos();
  MergeRange(owner, i);
  if (job == nullptr) {
    owner->helper_nanos.fetch_add(MonotonicNanos() - t0, std::memory_order_relaxed);
  }
  l.lock();
  // The owner frees the job once queued reaches 0 under this lock; the
  // job is not touched after it.
  if (--owner->queued == 0) {
    owner->done.notify_all();
  }
  return true;
}

Status StorageEngine::NewLog(uint64_t* log_number, std::unique_ptr<AsyncLogger>* logger) {
  *log_number = versions_->NewFileNumber();
  std::unique_ptr<WritableFile> file;
  Status s = env_->NewWritableFile(LogFileName(dbname_, *log_number), &file);
  if (!s.ok()) {
    return s;
  }
  *logger = std::make_unique<AsyncLogger>(std::move(file));
  if (!listeners_.empty()) {
    // Safe: set before the logger is published to writers, and the engine
    // (hence listeners_) outlives every WAL it hands out.
    (*logger)->set_sync_hook([this](uint64_t records, uint64_t micros) {
      listeners_.NotifyWalSync(WalSyncInfo{records, micros});
    });
  }
  // The first append or sync failure on the logger thread latches the
  // store's background error even when no writer ever reads a Status
  // (async appends have no caller to return to).
  (*logger)->set_error_hook([this](const Status& es, bool sync_path) {
    RecordBackgroundError(sync_path ? BgErrorReason::kWalSync : BgErrorReason::kWalAppend, es);
  });
  return Status::OK();
}

void StorageEngine::RemoveObsoleteFiles(uint64_t min_live_log_number, bool include_tables) {
  std::set<uint64_t> live;
  versions_->AddLiveFiles(&live);

  std::vector<std::string> filenames;
  env_->GetChildren(dbname_, &filenames);
  for (const std::string& filename : filenames) {
    uint64_t number;
    FileType type;
    if (!ParseFileName(filename, &number, &type)) {
      continue;
    }
    bool keep = true;
    switch (type) {
      case kLogFile:
        keep = (number >= min_live_log_number && number >= versions_->LogNumber());
        break;
      case kDescriptorFile:
        keep = (number >= versions_->ManifestFileNumber());
        break;
      case kTableFile:
        keep = !include_tables || (live.find(number) != live.end());
        break;
      case kTempFile:
        keep = false;
        break;
      case kCurrentFile:
      case kDBLockFile:
        keep = true;
        break;
    }
    if (!keep) {
      RemoveFileTracked(dbname_ + "/" + filename);
    }
  }
}

}  // namespace clsm
