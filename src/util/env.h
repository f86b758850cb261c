// Minimal filesystem environment: sequential/random-access/writable files
// plus directory utilities. POSIX-backed; all store I/O funnels through
// these interfaces so tests can measure and fault-inject at one seam.
#ifndef CLSM_UTIL_ENV_H_
#define CLSM_UTIL_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/util/slice.h"
#include "src/util/status.h"

namespace clsm {

// Sequential read of a file from the beginning (WAL/manifest recovery).
class SequentialFile {
 public:
  virtual ~SequentialFile() = default;
  // Read up to n bytes. Sets *result to data read (may point into scratch).
  virtual Status Read(size_t n, Slice* result, char* scratch) = 0;
  virtual Status Skip(uint64_t n) = 0;
};

// Random-access read (SSTable blocks). Thread-safe: concurrent Reads allowed.
class RandomAccessFile {
 public:
  virtual ~RandomAccessFile() = default;
  // Reads up to n bytes at offset into scratch[0..n) and sets *result to
  // the bytes read, which start at scratch.
  virtual Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const = 0;
};

// Append-only writer (WAL, SSTable build, manifest).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(const Slice& data) = 0;
  virtual Status Close() = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  // Hands buffered bytes to the OS and starts writing every byte appended so
  // far to the device, without waiting for it. Not a durability point: only
  // Sync makes bytes durable; this only leaves less for the next Sync to
  // wait for. Writers of large files call it periodically.
  virtual Status StartWriteback() { return Status::OK(); }
};

class Env {
 public:
  virtual ~Env() = default;

  static Env* Default();

  virtual Status NewSequentialFile(const std::string& fname,
                                   std::unique_ptr<SequentialFile>* result) = 0;
  virtual Status NewRandomAccessFile(const std::string& fname,
                                     std::unique_ptr<RandomAccessFile>* result) = 0;
  virtual Status NewWritableFile(const std::string& fname,
                                 std::unique_ptr<WritableFile>* result) = 0;

  virtual bool FileExists(const std::string& fname) = 0;
  virtual Status GetChildren(const std::string& dir, std::vector<std::string>* result) = 0;
  virtual Status RemoveFile(const std::string& fname) = 0;
  virtual Status CreateDir(const std::string& dirname) = 0;
  virtual Status RemoveDir(const std::string& dirname) = 0;
  virtual Status GetFileSize(const std::string& fname, uint64_t* file_size) = 0;
  virtual Status RenameFile(const std::string& src, const std::string& target) = 0;

  virtual uint64_t NowMicros() = 0;
};

// Convenience: read an entire file into *data.
Status ReadFileToString(Env* env, const std::string& fname, std::string* data);
// Convenience: atomically (write + rename) write data to fname.
Status WriteStringToFileSync(Env* env, const Slice& data, const std::string& fname);

}  // namespace clsm

#endif  // CLSM_UTIL_ENV_H_
