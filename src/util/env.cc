#include "src/util/env.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/time.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace clsm {

namespace {

Status PosixError(const std::string& context, int err) {
  if (err == ENOENT) {
    return Status::NotFound(context, strerror(err));
  }
  return Status::IOError(context, strerror(err));
}

class PosixSequentialFile final : public SequentialFile {
 public:
  PosixSequentialFile(std::string fname, int fd) : fname_(std::move(fname)), fd_(fd) {}
  ~PosixSequentialFile() override { ::close(fd_); }

  Status Read(size_t n, Slice* result, char* scratch) override {
    while (true) {
      ::ssize_t read_size = ::read(fd_, scratch, n);
      if (read_size < 0) {
        if (errno == EINTR) {
          continue;
        }
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, read_size);
      return Status::OK();
    }
  }

  Status Skip(uint64_t n) override {
    if (::lseek(fd_, n, SEEK_CUR) == static_cast<off_t>(-1)) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

 private:
  const std::string fname_;
  const int fd_;
};

class PosixRandomAccessFile final : public RandomAccessFile {
 public:
  PosixRandomAccessFile(std::string fname, int fd) : fname_(std::move(fname)), fd_(fd) {}
  ~PosixRandomAccessFile() override { ::close(fd_); }

  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
    while (true) {
      ::ssize_t read_size = ::pread(fd_, scratch, n, static_cast<off_t>(offset));
      if (read_size < 0) {
        if (errno == EINTR) {
          continue;
        }
        *result = Slice(scratch, 0);
        return PosixError(fname_, errno);
      }
      *result = Slice(scratch, read_size);
      return Status::OK();
    }
  }

 private:
  const std::string fname_;
  const int fd_;
};

class PosixWritableFile final : public WritableFile {
 public:
  PosixWritableFile(std::string fname, int fd) : fname_(std::move(fname)), fd_(fd) {}
  ~PosixWritableFile() override {
    if (fd_ >= 0) {
      Close();
    }
  }

  Status Append(const Slice& data) override {
    size_t write_size = data.size();
    const char* write_data = data.data();

    // Fit as much as possible into buffer.
    size_t copy_size = std::min(write_size, kBufSize - pos_);
    memcpy(buf_ + pos_, write_data, copy_size);
    write_data += copy_size;
    write_size -= copy_size;
    pos_ += copy_size;
    if (write_size == 0) {
      return Status::OK();
    }

    Status s = FlushBuffer();
    if (!s.ok()) {
      return s;
    }
    if (write_size < kBufSize) {
      memcpy(buf_, write_data, write_size);
      pos_ = write_size;
      return Status::OK();
    }
    return WriteUnbuffered(write_data, write_size);
  }

  Status Close() override {
    Status s = FlushBuffer();
    if (fd_ >= 0 && ::close(fd_) < 0 && s.ok()) {
      s = PosixError(fname_, errno);
    }
    fd_ = -1;
    return s;
  }

  Status Flush() override { return FlushBuffer(); }

  Status Sync() override {
    Status s = FlushBuffer();
    if (!s.ok()) {
      return s;
    }
    if (::fdatasync(fd_) < 0) {
      return PosixError(fname_, errno);
    }
    return Status::OK();
  }

  Status StartWriteback() override {
    Status s = FlushBuffer();
    if (!s.ok()) {
      return s;
    }
#ifdef __linux__
    // Advisory: an error here leaves the bytes dirty for Sync to write,
    // and Sync reports any real I/O error.
    ::sync_file_range(fd_, static_cast<off_t>(writeback_offset_),
                      static_cast<off_t>(file_offset_ - writeback_offset_),
                      SYNC_FILE_RANGE_WRITE);
#endif
    writeback_offset_ = file_offset_;
    return Status::OK();
  }

 private:
  Status FlushBuffer() {
    Status s = WriteUnbuffered(buf_, pos_);
    pos_ = 0;
    return s;
  }

  Status WriteUnbuffered(const char* data, size_t size) {
    while (size > 0) {
      ::ssize_t write_result = ::write(fd_, data, size);
      if (write_result < 0) {
        if (errno == EINTR) {
          continue;
        }
        return PosixError(fname_, errno);
      }
      data += write_result;
      size -= write_result;
      file_offset_ += write_result;
    }
    return Status::OK();
  }

  static constexpr size_t kBufSize = 64 * 1024;
  const std::string fname_;
  int fd_;
  char buf_[kBufSize];
  size_t pos_ = 0;                 // bytes buffered in buf_
  uint64_t file_offset_ = 0;       // bytes handed to write()
  uint64_t writeback_offset_ = 0;  // bytes handed to sync_file_range
};

class PosixEnv final : public Env {
 public:
  Status NewSequentialFile(const std::string& fname,
                           std::unique_ptr<SequentialFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixSequentialFile(fname, fd));
    return Status::OK();
  }

  Status NewRandomAccessFile(const std::string& fname,
                             std::unique_ptr<RandomAccessFile>* result) override {
    int fd = ::open(fname.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixRandomAccessFile(fname, fd));
    return Status::OK();
  }

  Status NewWritableFile(const std::string& fname,
                         std::unique_ptr<WritableFile>* result) override {
    int fd = ::open(fname.c_str(), O_TRUNC | O_WRONLY | O_CREAT | O_CLOEXEC, 0644);
    if (fd < 0) {
      result->reset();
      return PosixError(fname, errno);
    }
    result->reset(new PosixWritableFile(fname, fd));
    return Status::OK();
  }

  bool FileExists(const std::string& fname) override { return ::access(fname.c_str(), F_OK) == 0; }

  Status GetChildren(const std::string& dir, std::vector<std::string>* result) override {
    result->clear();
    ::DIR* d = ::opendir(dir.c_str());
    if (d == nullptr) {
      return PosixError(dir, errno);
    }
    struct ::dirent* entry;
    while ((entry = ::readdir(d)) != nullptr) {
      result->emplace_back(entry->d_name);
    }
    ::closedir(d);
    return Status::OK();
  }

  Status RemoveFile(const std::string& fname) override {
    if (::unlink(fname.c_str()) != 0) {
      return PosixError(fname, errno);
    }
    return Status::OK();
  }

  Status CreateDir(const std::string& dirname) override {
    if (::mkdir(dirname.c_str(), 0755) != 0 && errno != EEXIST) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status RemoveDir(const std::string& dirname) override {
    if (::rmdir(dirname.c_str()) != 0) {
      return PosixError(dirname, errno);
    }
    return Status::OK();
  }

  Status GetFileSize(const std::string& fname, uint64_t* size) override {
    struct ::stat file_stat;
    if (::stat(fname.c_str(), &file_stat) != 0) {
      *size = 0;
      return PosixError(fname, errno);
    }
    *size = file_stat.st_size;
    return Status::OK();
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) {
      return PosixError(from, errno);
    }
    return Status::OK();
  }

  uint64_t NowMicros() override {
    struct ::timeval tv;
    ::gettimeofday(&tv, nullptr);
    return static_cast<uint64_t>(tv.tv_sec) * 1000000 + tv.tv_usec;
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

Status ReadFileToString(Env* env, const std::string& fname, std::string* data) {
  data->clear();
  std::unique_ptr<SequentialFile> file;
  Status s = env->NewSequentialFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  static const int kBufferSize = 8192;
  std::string scratch(kBufferSize, '\0');
  while (true) {
    Slice fragment;
    s = file->Read(kBufferSize, &fragment, scratch.data());
    if (!s.ok()) {
      break;
    }
    data->append(fragment.data(), fragment.size());
    if (fragment.empty()) {
      break;
    }
  }
  return s;
}

Status WriteStringToFileSync(Env* env, const Slice& data, const std::string& fname) {
  std::unique_ptr<WritableFile> file;
  Status s = env->NewWritableFile(fname, &file);
  if (!s.ok()) {
    return s;
  }
  s = file->Append(data);
  if (s.ok()) {
    s = file->Sync();
  }
  if (s.ok()) {
    s = file->Close();
  }
  if (!s.ok()) {
    env->RemoveFile(fname);
  }
  return s;
}

}  // namespace clsm
