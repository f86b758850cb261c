// A VersionEdit records a delta to the disk component's file set; the
// manifest is a log of these edits. Applying the manifest in order rebuilds
// the exact multi-level structure (paper §2.3: the series of on-disk
// components C1..Cn and their evolution under merges).
#ifndef CLSM_LSM_VERSION_EDIT_H_
#define CLSM_LSM_VERSION_EDIT_H_

#include <atomic>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/lsm/dbformat.h"

namespace clsm {

class Table;

struct FileMetaData {
  FileMetaData() = default;
  // A copy describes the same file but starts without its open Table.
  FileMetaData(const FileMetaData& f)
      : number(f.number), file_size(f.file_size), smallest(f.smallest), largest(f.largest) {}
  FileMetaData& operator=(const FileMetaData& f) {
    number = f.number;
    file_size = f.file_size;
    smallest = f.smallest;
    largest = f.largest;
    return *this;
  }

  uint64_t number = 0;
  uint64_t file_size = 0;
  InternalKey smallest;
  InternalKey largest;
  // The open Table of a live file, that is of the node behind a FileRef:
  // set by the first probe (VersionSet::FindTable), deleted when the last
  // version drops the file (VersionSet::OnFileUnreferenced).
  mutable std::atomic<Table*> table{nullptr};
};

class VersionEdit {
 public:
  VersionEdit() { Clear(); }

  void Clear();

  void SetComparatorName(const Slice& name) {
    has_comparator_ = true;
    comparator_ = name.ToString();
  }
  void SetLogNumber(uint64_t num) {
    has_log_number_ = true;
    log_number_ = num;
  }
  void SetNextFile(uint64_t num) {
    has_next_file_number_ = true;
    next_file_number_ = num;
  }
  void SetLastSequence(SequenceNumber seq) {
    has_last_sequence_ = true;
    last_sequence_ = seq;
  }
  void SetCompactPointer(int level, const InternalKey& key) {
    compact_pointers_.push_back(std::make_pair(level, key));
  }

  // Add the specified file at the specified level.
  void AddFile(int level, uint64_t file, uint64_t file_size, const InternalKey& smallest,
               const InternalKey& largest) {
    FileMetaData f;
    f.number = file;
    f.file_size = file_size;
    f.smallest = smallest;
    f.largest = largest;
    new_files_.push_back(std::make_pair(level, f));
  }

  void RemoveFile(int level, uint64_t file) {
    deleted_files_.insert(std::make_pair(level, file));
  }

  // The files added so far, as (level, file), in AddFile order.
  const std::vector<std::pair<int, FileMetaData>>& new_files() const { return new_files_; }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

  std::string DebugString() const;

 private:
  friend class VersionSet;

  typedef std::set<std::pair<int, uint64_t>> DeletedFileSet;

  std::string comparator_;
  uint64_t log_number_;
  uint64_t next_file_number_;
  SequenceNumber last_sequence_;
  bool has_comparator_;
  bool has_log_number_;
  bool has_next_file_number_;
  bool has_last_sequence_;

  std::vector<std::pair<int, InternalKey>> compact_pointers_;
  DeletedFileSet deleted_files_;
  std::vector<std::pair<int, FileMetaData>> new_files_;
};

}  // namespace clsm

#endif  // CLSM_LSM_VERSION_EDIT_H_
