#include "src/util/fault_env.h"

#include <chrono>
#include <thread>

namespace clsm {

namespace {
Status PowerOff(const char* op) {
  return Status::IOError("simulated power loss", op);
}
}  // namespace

// ---- wrapped file types ----------------------------------------------

class FaultInjectionEnv::FaultyWritableFile final : public WritableFile {
 public:
  FaultyWritableFile(FaultInjectionEnv* env, std::string fname,
                     std::unique_ptr<WritableFile> base)
      : env_(env), fname_(std::move(fname)), base_(std::move(base)) {}

  Status Append(const Slice& data) override {
    if (env_->CheckCrash()) {
      return PowerOff("Append");
    }
    if (env_->ShouldFailWrite()) {
      return Status::IOError("injected fault: Append");
    }
    Status s = base_->Append(data);
    if (s.ok()) {
      env_->RecordAppend(fname_, data.size());
    }
    return s;
  }
  Status Close() override {
    // Always close the base file (release the fd) even when "crashed" —
    // the process is still alive, only the simulated disk is gone.
    Status s = base_->Close();
    if (env_->crashed()) {
      return PowerOff("Close");
    }
    return s;
  }
  Status Flush() override {
    if (env_->CheckCrash()) {
      return PowerOff("Flush");
    }
    if (env_->ShouldFailWrite()) {
      return Status::IOError("injected fault: Flush");
    }
    return base_->Flush();
  }
  // Forwarded like Flush: writeback moves no bytes into the synced extent.
  Status StartWriteback() override {
    if (env_->CheckCrash()) {
      return PowerOff("StartWriteback");
    }
    if (env_->ShouldFailWrite()) {
      return Status::IOError("injected fault: StartWriteback");
    }
    return base_->StartWriteback();
  }
  Status Sync() override {
    if (env_->CheckCrash()) {
      return PowerOff("Sync");
    }
    if (env_->ShouldFailWrite() || env_->ShouldFailSync()) {
      return Status::IOError("injected fault: Sync");
    }
    env_->MaybeDelaySync();
    Status s = base_->Sync();
    if (s.ok()) {
      env_->RecordSync(fname_);
    }
    return s;
  }

 private:
  FaultInjectionEnv* env_;
  std::string fname_;
  std::unique_ptr<WritableFile> base_;
};

class FaultInjectionEnv::FaultySequentialFile final : public SequentialFile {
 public:
  FaultySequentialFile(FaultInjectionEnv* env, std::unique_ptr<SequentialFile> base)
      : env_(env), base_(std::move(base)) {}
  Status Read(size_t n, Slice* result, char* scratch) override {
    if (env_->ShouldFailRead()) {
      return Status::IOError("injected fault: Read");
    }
    return base_->Read(n, result, scratch);
  }
  Status Skip(uint64_t n) override { return base_->Skip(n); }

 private:
  FaultInjectionEnv* env_;
  std::unique_ptr<SequentialFile> base_;
};

class FaultInjectionEnv::FaultyRandomAccessFile final : public RandomAccessFile {
 public:
  FaultyRandomAccessFile(FaultInjectionEnv* env, std::unique_ptr<RandomAccessFile> base)
      : env_(env), base_(std::move(base)) {}
  Status Read(uint64_t offset, size_t n, Slice* result, char* scratch) const override {
    if (env_->ShouldFailRead()) {
      return Status::IOError("injected fault: Read");
    }
    return base_->Read(offset, n, result, scratch);
  }

 private:
  FaultInjectionEnv* env_;
  std::unique_ptr<RandomAccessFile> base_;
};

// ---- injector internals ----------------------------------------------

bool FaultInjectionEnv::CheckCrash() {
  if (crashed_.load(std::memory_order_acquire)) {
    return true;
  }
  if (kill_armed_.load(std::memory_order_acquire)) {
    if (kill_countdown_.fetch_sub(1, std::memory_order_acq_rel) <= 1) {
      SimulateCrash();
      return true;
    }
  }
  return false;
}

bool FaultInjectionEnv::ShouldFailWrite() {
  if (!fail_writes_.load(std::memory_order_acquire)) {
    return false;
  }
  if (write_countdown_.fetch_sub(1, std::memory_order_acq_rel) <= 1) {
    write_failures_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool FaultInjectionEnv::ShouldFailSync() {
  int left = sync_failures_left_.load(std::memory_order_acquire);
  if (left <= 0) {
    return false;
  }
  int pass = syncs_to_pass_.load(std::memory_order_acquire);
  while (pass > 0) {
    if (syncs_to_pass_.compare_exchange_weak(pass, pass - 1, std::memory_order_acq_rel)) {
      return false;
    }
  }
  while (left > 0) {
    if (sync_failures_left_.compare_exchange_weak(left, left - 1,
                                                  std::memory_order_acq_rel)) {
      write_failures_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

void FaultInjectionEnv::MaybeDelaySync() {
  const uint64_t micros = sync_delay_micros_.load(std::memory_order_acquire);
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

void FaultInjectionEnv::RecordAppend(const std::string& fname, uint64_t bytes) {
  std::lock_guard<std::mutex> l(files_mutex_);
  files_[fname].pos += bytes;
}

void FaultInjectionEnv::RecordSync(const std::string& fname) {
  std::lock_guard<std::mutex> l(files_mutex_);
  FileState& st = files_[fname];
  st.synced_pos = st.pos;
  st.ever_synced = true;
}

// ---- crash recovery ---------------------------------------------------

Status FaultInjectionEnv::ReactivateAfterCrash(uint32_t torn_tail_seed) {
  crashed_.store(false, std::memory_order_release);
  Heal();
  return DropUnsyncedFileData(torn_tail_seed);
}

Status FaultInjectionEnv::DropUnsyncedFileData(uint32_t torn_tail_seed) {
  std::unordered_map<std::string, FileState> snapshot;
  {
    std::lock_guard<std::mutex> l(files_mutex_);
    snapshot = files_;
  }
  uint32_t rnd = torn_tail_seed;
  for (const auto& [fname, st] : snapshot) {
    if (!base_->FileExists(fname)) {
      std::lock_guard<std::mutex> l(files_mutex_);
      files_.erase(fname);
      continue;
    }
    if (!st.ever_synced) {
      // Never fsync'ed: the file's directory entry data is gone with the
      // page cache. (Metadata simplification: we drop the whole file.)
      Status s = base_->RemoveFile(fname);
      if (!s.ok()) {
        return s;
      }
      std::lock_guard<std::mutex> l(files_mutex_);
      files_.erase(fname);
      continue;
    }
    if (st.synced_pos >= st.pos) {
      continue;  // fully durable
    }
    uint64_t keep = st.synced_pos;
    if (torn_tail_seed != 0) {
      // Torn tail: keep a pseudo-random prefix of the unsynced region.
      rnd = rnd * 1664525u + 1013904223u;
      keep += rnd % (st.pos - st.synced_pos + 1);
    }
    std::string data;
    Status s = ReadFileToString(base_, fname, &data);
    if (!s.ok()) {
      return s;
    }
    if (data.size() > keep) {
      data.resize(keep);
    }
    std::unique_ptr<WritableFile> f;
    s = base_->NewWritableFile(fname, &f);
    if (!s.ok()) {
      return s;
    }
    s = f->Append(Slice(data));
    if (s.ok()) {
      s = f->Sync();
    }
    if (s.ok()) {
      s = f->Close();
    } else {
      f->Close();
    }
    if (!s.ok()) {
      return s;
    }
    std::lock_guard<std::mutex> l(files_mutex_);
    FileState& cur = files_[fname];
    cur.pos = keep;
    cur.synced_pos = keep;
    cur.ever_synced = true;
  }
  return Status::OK();
}

// ---- Env forwarding ---------------------------------------------------

Status FaultInjectionEnv::NewSequentialFile(const std::string& fname,
                                            std::unique_ptr<SequentialFile>* result) {
  if (ShouldFailRead()) {
    return Status::IOError("injected fault: NewSequentialFile", fname);
  }
  std::unique_ptr<SequentialFile> base_file;
  Status s = base_->NewSequentialFile(fname, &base_file);
  if (!s.ok()) {
    return s;
  }
  result->reset(new FaultySequentialFile(this, std::move(base_file)));
  return Status::OK();
}

Status FaultInjectionEnv::NewRandomAccessFile(const std::string& fname,
                                              std::unique_ptr<RandomAccessFile>* result) {
  if (ShouldFailRead()) {
    return Status::IOError("injected fault: NewRandomAccessFile", fname);
  }
  std::unique_ptr<RandomAccessFile> base_file;
  Status s = base_->NewRandomAccessFile(fname, &base_file);
  if (!s.ok()) {
    return s;
  }
  result->reset(new FaultyRandomAccessFile(this, std::move(base_file)));
  return Status::OK();
}

Status FaultInjectionEnv::NewWritableFile(const std::string& fname,
                                          std::unique_ptr<WritableFile>* result) {
  if (CheckCrash()) {
    return PowerOff("NewWritableFile");
  }
  if (fail_new_files_.load(std::memory_order_acquire)) {
    return Status::IOError("injected fault: NewWritableFile", fname);
  }
  std::unique_ptr<WritableFile> base_file;
  Status s = base_->NewWritableFile(fname, &base_file);
  if (!s.ok()) {
    return s;
  }
  {
    // The base open truncates; reset durability tracking for this name.
    std::lock_guard<std::mutex> l(files_mutex_);
    files_[fname] = FileState{};
  }
  result->reset(new FaultyWritableFile(this, fname, std::move(base_file)));
  return Status::OK();
}

bool FaultInjectionEnv::FileExists(const std::string& fname) {
  if (crashed_.load(std::memory_order_acquire)) {
    return false;
  }
  return base_->FileExists(fname);
}

Status FaultInjectionEnv::GetChildren(const std::string& dir,
                                      std::vector<std::string>* result) {
  if (crashed_.load(std::memory_order_acquire)) {
    return PowerOff("GetChildren");
  }
  return base_->GetChildren(dir, result);
}

Status FaultInjectionEnv::RemoveFile(const std::string& fname) {
  if (CheckCrash()) {
    return PowerOff("RemoveFile");
  }
  Status s = base_->RemoveFile(fname);
  if (s.ok()) {
    std::lock_guard<std::mutex> l(files_mutex_);
    files_.erase(fname);
  }
  return s;
}

Status FaultInjectionEnv::CreateDir(const std::string& dirname) {
  if (CheckCrash()) {
    return PowerOff("CreateDir");
  }
  if (fail_create_dir_.load(std::memory_order_acquire)) {
    return Status::IOError("injected fault: CreateDir", dirname);
  }
  return base_->CreateDir(dirname);
}

Status FaultInjectionEnv::RemoveDir(const std::string& dirname) {
  if (CheckCrash()) {
    return PowerOff("RemoveDir");
  }
  return base_->RemoveDir(dirname);
}

Status FaultInjectionEnv::GetFileSize(const std::string& fname, uint64_t* file_size) {
  if (crashed_.load(std::memory_order_acquire)) {
    return PowerOff("GetFileSize");
  }
  return base_->GetFileSize(fname, file_size);
}

Status FaultInjectionEnv::RenameFile(const std::string& src, const std::string& target) {
  if (CheckCrash()) {
    return PowerOff("RenameFile");
  }
  if (fail_renames_.load(std::memory_order_acquire)) {
    return Status::IOError("injected fault: RenameFile", src);
  }
  Status s = base_->RenameFile(src, target);
  if (s.ok()) {
    std::lock_guard<std::mutex> l(files_mutex_);
    auto it = files_.find(src);
    if (it != files_.end()) {
      files_[target] = it->second;
      files_.erase(it);
    }
  }
  return s;
}

// ---- helpers ----------------------------------------------------------

Status TruncateFileTail(Env* env, const std::string& fname, uint64_t remove_bytes) {
  std::string data;
  Status s = ReadFileToString(env, fname, &data);
  if (!s.ok()) {
    return s;
  }
  if (remove_bytes >= data.size()) {
    data.clear();
  } else {
    data.resize(data.size() - remove_bytes);
  }
  std::unique_ptr<WritableFile> f;
  s = env->NewWritableFile(fname, &f);
  if (!s.ok()) {
    return s;
  }
  s = f->Append(Slice(data));
  if (s.ok()) {
    s = f->Sync();
  }
  if (s.ok()) {
    return f->Close();
  }
  f->Close();
  return s;
}

}  // namespace clsm
