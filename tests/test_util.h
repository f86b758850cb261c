// Shared helpers for the test suite: scratch directories, DB cleanup and
// the golden files under tests/golden/.
#ifndef CLSM_TESTS_TEST_UTIL_H_
#define CLSM_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/util/env.h"

namespace clsm {

// Creates (and on destruction recursively removes) a fresh scratch
// directory under /tmp, unique per test.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    static int counter = 0;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "/tmp/clsm-test-%s-%d-%d", tag.c_str(), getpid(), counter++);
    path_ = buf;
    Cleanup();
    Env::Default()->CreateDir(path_);
  }

  ~ScratchDir() { Cleanup(); }

  const std::string& path() const { return path_; }

 private:
  void Cleanup() {
    std::string cmd = "rm -rf " + path_;
    int rc = system(cmd.c_str());
    (void)rc;
  }

  std::string path_;
};

// Path of a file checked in under tests/golden/.
inline std::string GoldenPath(const std::string& name) {
  return std::string(CLSM_TESTS_SOURCE_DIR) + "/golden/" + name;
}

// An 8-byte big-endian integer, the key layout of the store's workloads.
inline std::string BigEndianKey(uint64_t v) {
  std::string key(8, '\0');
  for (int b = 0; b < 8; b++) {
    key[b] = static_cast<char>(v >> (56 - 8 * b));
  }
  return key;
}

// The value of key BigEndianKey(2 * i) in the golden per-block filter
// table and store (tests/golden/README.md).
inline std::string GoldenValue(uint64_t i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "golden-value-%06llu", static_cast<unsigned long long>(i));
  return buf;
}

}  // namespace clsm

#endif  // CLSM_TESTS_TEST_UTIL_H_
