#include "src/lsm/repair.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <vector>

#include "src/lsm/dbformat.h"
#include "src/lsm/filename.h"
#include "src/lsm/memtable.h"
#include "src/lsm/storage_engine.h"
#include "src/lsm/version_edit.h"
#include "src/table/table.h"
#include "src/table/table_builder.h"
#include "src/util/env.h"
#include "src/wal/log_reader.h"
#include "src/wal/log_writer.h"

namespace clsm {

namespace {

class Repairer {
 public:
  Repairer(const Options& options, const std::string& dbname)
      : options_(options),
        dbname_(dbname),
        env_(options.env != nullptr ? options.env : Env::Default()),
        icmp_(options.comparator != nullptr ? options.comparator : BytewiseComparator()),
        next_file_number_(1),
        max_sequence_(0) {
    options_.env = env_;
    options_.comparator = icmp_.user_comparator();
  }

  Status Run() {
    Status s = FindFiles();
    if (!s.ok()) {
      return s;
    }
    ConvertLogFilesToTables();
    ScanTables();
    s = WriteDescriptor();
    if (s.ok()) {
      fprintf(stderr, "repair: recovered %zu tables, max timestamp %llu\n", tables_.size(),
              static_cast<unsigned long long>(max_sequence_));
    }
    return s;
  }

 private:
  struct TableInfo {
    uint64_t number;
    uint64_t file_size;
    InternalKey smallest;
    InternalKey largest;
    SequenceNumber max_sequence;
  };

  Status FindFiles() {
    std::vector<std::string> filenames;
    Status s = env_->GetChildren(dbname_, &filenames);
    if (!s.ok()) {
      return s;
    }
    if (filenames.empty()) {
      return Status::IOError(dbname_, "repair found no files");
    }
    for (const std::string& f : filenames) {
      uint64_t number;
      FileType type;
      if (!ParseFileName(f, &number, &type)) {
        continue;
      }
      next_file_number_ = std::max(next_file_number_, number + 1);
      if (type == kLogFile) {
        logs_.push_back(number);
      } else if (type == kTableFile) {
        table_numbers_.push_back(number);
      }
      // Old descriptors are ignored; a new one is written at the end.
    }
    std::sort(logs_.begin(), logs_.end());
    return Status::OK();
  }

  void ConvertLogFilesToTables() {
    for (uint64_t log_number : logs_) {
      Status s = ConvertOneLog(log_number);
      if (!s.ok()) {
        fprintf(stderr, "repair: skipping log %llu: %s\n",
                static_cast<unsigned long long>(log_number), s.ToString().c_str());
      }
      // Keep the log file; the obsolete-file sweep at the next open removes
      // it once the new manifest's log number supersedes it.
    }
  }

  Status ConvertOneLog(uint64_t log_number) {
    std::string fname = LogFileName(dbname_, log_number);
    std::unique_ptr<SequentialFile> file;
    Status s = env_->NewSequentialFile(fname, &file);
    if (!s.ok()) {
      return s;
    }

    struct IgnoreReporter : public log::Reader::Reporter {
      void Corruption(size_t bytes, const Status& status) override {
        fprintf(stderr, "repair: log corruption, %zu bytes dropped: %s\n", bytes,
                status.ToString().c_str());
      }
    };
    IgnoreReporter reporter;
    log::Reader reader(file.get(), &reporter, false /*tolerate bad checksums*/, 0);

    MemTable* mem = new MemTable(icmp_);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch)) {
      Slice rest = record;
      while (!rest.empty()) {
        SequenceNumber seq;
        ValueType type;
        Slice key, value;
        if (!DecodeWalOpFrom(&rest, &seq, &type, &key, &value)) {
          break;  // salvage what we already decoded from this record
        }
        mem->Add(seq, type, key, value);
        max_sequence_ = std::max(max_sequence_, seq);
      }
    }

    if (mem->NumEntries() == 0) {
      mem->Unref();
      return Status::OK();
    }

    // Build a table from the salvaged entries.
    TableInfo info;
    info.number = next_file_number_++;
    std::string table_name = TableFileName(dbname_, info.number);
    std::unique_ptr<WritableFile> out;
    s = env_->NewWritableFile(table_name, &out);
    if (!s.ok()) {
      mem->Unref();
      return s;
    }
    {
      TableBuilder builder(options_, &icmp_, nullptr, out.get());
      std::unique_ptr<Iterator> iter(mem->NewIterator());
      iter->SeekToFirst();
      info.smallest.DecodeFrom(iter->key());
      Slice last;
      for (; iter->Valid(); iter->Next()) {
        last = iter->key();
        builder.Add(iter->key(), iter->value());
      }
      info.largest.DecodeFrom(last);
      s = builder.Finish();
      info.file_size = builder.FileSize();
    }
    if (s.ok()) {
      s = out->Sync();
    }
    if (s.ok()) {
      s = out->Close();
    }
    mem->Unref();
    if (s.ok()) {
      info.max_sequence = max_sequence_;
      tables_.push_back(info);
    } else {
      env_->RemoveFile(table_name);
    }
    return s;
  }

  void ScanTables() {
    for (uint64_t number : table_numbers_) {
      TableInfo info;
      info.number = number;
      Status s = ScanOneTable(&info);
      if (s.ok()) {
        tables_.push_back(info);
      } else {
        fprintf(stderr, "repair: skipping unreadable table %llu: %s\n",
                static_cast<unsigned long long>(number), s.ToString().c_str());
      }
    }
  }

  Status ScanOneTable(TableInfo* info) {
    std::string fname = TableFileName(dbname_, info->number);
    Status s = env_->GetFileSize(fname, &info->file_size);
    if (!s.ok()) {
      return s;
    }
    std::unique_ptr<RandomAccessFile> file;
    s = env_->NewRandomAccessFile(fname, &file);
    if (!s.ok()) {
      return s;
    }
    Table* table = nullptr;
    s = Table::Open(options_, &icmp_, nullptr, &block_cache_, std::move(file), info->file_size,
                    &table);
    if (!s.ok()) {
      return s;
    }
    std::unique_ptr<Table> owned(table);

    ReadOptions ro;
    ro.verify_checksums = true;
    std::unique_ptr<Iterator> iter(table->NewIterator(ro));
    bool first = true;
    SequenceNumber table_max = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
      ParsedInternalKey parsed;
      if (!ParseInternalKey(iter->key(), &parsed)) {
        return Status::Corruption("unparsable internal key in table", fname);
      }
      if (first) {
        info->smallest.DecodeFrom(iter->key());
        first = false;
      }
      info->largest.DecodeFrom(iter->key());
      table_max = std::max(table_max, parsed.sequence);
    }
    if (first) {
      return Status::Corruption("empty or unreadable table", fname);
    }
    if (!iter->status().ok()) {
      return iter->status();
    }
    info->max_sequence = table_max;
    max_sequence_ = std::max(max_sequence_, table_max);
    return Status::OK();
  }

  Status WriteDescriptor() {
    VersionEdit edit;
    edit.SetComparatorName(icmp_.user_comparator()->Name());
    // Fresh log number: every scavenged log is now superseded.
    const uint64_t new_log_number = next_file_number_++;
    edit.SetLogNumber(new_log_number);
    edit.SetLastSequence(max_sequence_);

    // Everything goes to level 0; newest-first probing is by file number,
    // so order tables by their max timestamp via renumbering if needed. We
    // keep original numbers — level-0 probe order (descending number) may
    // differ from timestamp order, but Get() at a given snapshot is still
    // correct because each probe filters by sequence; only a same-key
    // same-sequence duplicate could mislead, which cannot occur (timestamps
    // are unique).
    for (const TableInfo& t : tables_) {
      edit.AddFile(0, t.number, t.file_size, t.smallest, t.largest);
    }
    const uint64_t manifest_number = next_file_number_++;
    edit.SetNextFile(next_file_number_);

    std::string manifest_name = DescriptorFileName(dbname_, manifest_number);
    std::unique_ptr<WritableFile> manifest_file;
    Status s = env_->NewWritableFile(manifest_name, &manifest_file);
    if (!s.ok()) {
      return s;
    }
    {
      log::Writer writer(manifest_file.get());
      std::string record;
      edit.EncodeTo(&record);
      s = writer.AddRecord(record);
    }
    if (s.ok()) {
      s = manifest_file->Sync();
    }
    if (s.ok()) {
      s = manifest_file->Close();
    }
    if (!s.ok()) {
      env_->RemoveFile(manifest_name);
      return s;
    }
    return SetCurrentFile(env_, dbname_, manifest_number);
  }

  Options options_;
  const std::string dbname_;
  Env* env_;
  InternalKeyComparator icmp_;
  BlockCache block_cache_{0};  // each table is scanned once

  std::vector<uint64_t> logs_;
  std::vector<uint64_t> table_numbers_;
  std::vector<TableInfo> tables_;
  uint64_t next_file_number_;
  SequenceNumber max_sequence_;
};

}  // namespace

Status RepairDb(const Options& options, const std::string& dbname) {
  Repairer repairer(options, dbname);
  return repairer.Run();
}

}  // namespace clsm
