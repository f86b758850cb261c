#include <gtest/gtest.h>

#include <memory>

#include "src/util/env.h"
#include "tests/test_util.h"

namespace clsm {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  EnvTest() : dir_("env"), env_(Env::Default()) {}

  ScratchDir dir_;
  Env* env_;
};

TEST_F(EnvTest, WriteReadRoundTrip) {
  std::string fname = dir_.path() + "/f1";
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env_->NewWritableFile(fname, &wf).ok());
  ASSERT_TRUE(wf->Append("hello ").ok());
  ASSERT_TRUE(wf->Append("world").ok());
  ASSERT_TRUE(wf->Sync().ok());
  ASSERT_TRUE(wf->Close().ok());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, fname, &contents).ok());
  EXPECT_EQ("hello world", contents);
}

TEST_F(EnvTest, LargeBufferedWrites) {
  // Exercise the WritableFile buffering edge cases: writes larger than the
  // internal buffer and writes straddling its boundary.
  std::string fname = dir_.path() + "/big";
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env_->NewWritableFile(fname, &wf).ok());
  std::string expected;
  for (int i = 0; i < 10; i++) {
    std::string chunk((i + 1) * 17 * 1024, static_cast<char>('a' + i));
    ASSERT_TRUE(wf->Append(chunk).ok());
    expected += chunk;
  }
  ASSERT_TRUE(wf->Close().ok());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, fname, &contents).ok());
  EXPECT_EQ(expected.size(), contents.size());
  EXPECT_EQ(expected, contents);
}

TEST_F(EnvTest, WritebackAcrossBufferBoundaries) {
  // Appends of 1 B, 4 KiB+5, 64 KiB and 3 MiB straddle the 64 KiB write
  // buffer and the 1 MiB writeback cadence that table output uses; the file
  // must read back exactly as appended.
  constexpr uint64_t kWritebackBytes = 1 << 20;
  std::string fname = dir_.path() + "/wb";
  std::unique_ptr<WritableFile> wf;
  ASSERT_TRUE(env_->NewWritableFile(fname, &wf).ok());
  ASSERT_TRUE(wf->StartWriteback().ok());  // nothing written yet
  std::string expected;
  uint64_t next_writeback = kWritebackBytes;
  for (int round = 0; round < 2; round++) {
    for (size_t size : {size_t{1}, size_t{4096 + 5}, size_t{64 * 1024}, size_t{3 << 20}}) {
      const int reps = size < 64 * 1024 ? 40 : 2;
      for (int r = 0; r < reps; r++) {
        std::string chunk(size, '\0');
        for (size_t i = 0; i < size; i++) {
          chunk[i] = static_cast<char>((expected.size() + i) * 131 % 251);
        }
        ASSERT_TRUE(wf->Append(chunk).ok());
        expected += chunk;
        if (expected.size() >= next_writeback) {
          ASSERT_TRUE(wf->StartWriteback().ok());
          next_writeback = expected.size() + kWritebackBytes;
        }
      }
      ASSERT_TRUE(wf->Sync().ok());
    }
  }
  ASSERT_TRUE(wf->Close().ok());

  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_, fname, &contents).ok());
  ASSERT_EQ(expected.size(), contents.size());
  EXPECT_TRUE(expected == contents);
}

TEST_F(EnvTest, RandomAccessRead) {
  std::string fname = dir_.path() + "/ra";
  ASSERT_TRUE(WriteStringToFileSync(env_, "0123456789abcdef", fname).ok());

  std::unique_ptr<RandomAccessFile> rf;
  ASSERT_TRUE(env_->NewRandomAccessFile(fname, &rf).ok());
  char scratch[16];
  Slice result;
  ASSERT_TRUE(rf->Read(4, 6, &result, scratch).ok());
  EXPECT_EQ("456789", result.ToString());
  // Reads past EOF return fewer bytes.
  ASSERT_TRUE(rf->Read(12, 16, &result, scratch).ok());
  EXPECT_EQ("cdef", result.ToString());
}

TEST_F(EnvTest, SequentialReadAndSkip) {
  std::string fname = dir_.path() + "/seq";
  ASSERT_TRUE(WriteStringToFileSync(env_, "0123456789", fname).ok());
  std::unique_ptr<SequentialFile> sf;
  ASSERT_TRUE(env_->NewSequentialFile(fname, &sf).ok());
  char scratch[8];
  Slice result;
  ASSERT_TRUE(sf->Read(3, &result, scratch).ok());
  EXPECT_EQ("012", result.ToString());
  ASSERT_TRUE(sf->Skip(4).ok());
  ASSERT_TRUE(sf->Read(8, &result, scratch).ok());
  EXPECT_EQ("789", result.ToString());
}

TEST_F(EnvTest, FileManagement) {
  std::string a = dir_.path() + "/a";
  std::string b = dir_.path() + "/b";
  ASSERT_TRUE(WriteStringToFileSync(env_, "data", a).ok());
  EXPECT_TRUE(env_->FileExists(a));
  EXPECT_FALSE(env_->FileExists(b));

  uint64_t size = 0;
  ASSERT_TRUE(env_->GetFileSize(a, &size).ok());
  EXPECT_EQ(4u, size);

  ASSERT_TRUE(env_->RenameFile(a, b).ok());
  EXPECT_FALSE(env_->FileExists(a));
  EXPECT_TRUE(env_->FileExists(b));

  std::vector<std::string> children;
  ASSERT_TRUE(env_->GetChildren(dir_.path(), &children).ok());
  bool found = false;
  for (const auto& c : children) {
    if (c == "b") {
      found = true;
    }
  }
  EXPECT_TRUE(found);

  ASSERT_TRUE(env_->RemoveFile(b).ok());
  EXPECT_FALSE(env_->FileExists(b));
  EXPECT_TRUE(env_->RemoveFile(b).IsNotFound() || !env_->RemoveFile(b).ok());
}

TEST_F(EnvTest, MissingFileErrors) {
  std::unique_ptr<SequentialFile> sf;
  Status s = env_->NewSequentialFile(dir_.path() + "/nope", &sf);
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
}

}  // namespace
}  // namespace clsm
