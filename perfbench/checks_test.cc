// Self-test of the benchmark's checkers: a correct answer passes, and each
// kind of wrong answer — corrupt value, foreign value, short or gapped
// scan, torn batch, wrong counter sum — is flagged. Exits non-zero when any
// checker lets a defect through or flags a correct answer.
#include <cstdio>
#include <string>

#include "checks.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    failures++;
  }
}

std::string Value(uint64_t index, uint64_t version, uint64_t tag = 0, uint64_t counter = 0) {
  ValueFields f;
  f.key_index = index;
  f.version = version;
  f.tag = tag;
  f.counter = counter;
  std::string v;
  MakeValue(f, index * 31 + version, &v);
  return v;
}

// Rows for keys [start, start+n) of the txn_mixed layout, every group at
// version 1 (untorn).
Rows GroupRows(uint64_t start, uint64_t n) {
  Rows rows;
  for (uint64_t i = start; i < start + n; i++) {
    rows.emplace_back(EncodeKey(i), IsGroupKey(i) ? Value(i, 1, GroupTag(GroupOf(i), 1))
                                                  : Value(i, 1));
  }
  return rows;
}

void TestKeys() {
  uint64_t index = 0;
  Expect(DecodeKey(EncodeKey(0x0102030405060708ULL), &index) && index == 0x0102030405060708ULL,
         "key round trip");
  Expect(EncodeKey(255) < EncodeKey(256), "key bytes sort numerically");
  Expect(!DecodeKey("short", &index), "short key rejected");
}

void TestValues() {
  ValueFields f;
  const std::string good = Value(42, 7, 9, 3);
  Expect(CheckValue(42, good, &f) == nullptr && f.version == 7 && f.tag == 9 && f.counter == 3,
         "well-formed value accepted with its fields");
  for (size_t byte : {0u, 9u, 100u, 255u}) {
    std::string bad = good;
    bad[byte] ^= 0x10;
    Expect(CheckValue(42, bad, &f) != nullptr, "corrupt value flagged");
  }
  Expect(CheckValue(43, good, &f) != nullptr, "value of another key flagged");
  Expect(CheckValue(42, good.substr(0, 200), &f) != nullptr, "truncated value flagged");
  Expect(CheckValue(42, good + "x", &f) != nullptr, "overlong value flagged");
  std::string rewritten = good;
  RewriteValue(8, 4, &rewritten);
  Expect(CheckValue(42, rewritten, &f) == nullptr && f.version == 8 && f.counter == 4,
         "rewritten value re-sealed");
}

void TestScans() {
  const uint64_t n = 1000;
  Rows rows = GroupRows(100, 15);
  Expect(CheckScan(100, 15, n, true, rows, rows.size()) == nullptr, "correct scan accepted");
  Expect(CheckScan(100, 15, n, true, rows, 14) != nullptr, "short scan flagged");
  Expect(CheckScan(100, 14, n, true, rows, rows.size()) != nullptr, "long scan flagged");

  Rows tail = GroupRows(995, 5);
  Expect(CheckScan(995, 15, n, true, tail, tail.size()) == nullptr,
         "scan cut short by the end of the key space accepted");

  Rows gap = rows;
  gap.erase(gap.begin() + 5);
  Expect(CheckScan(100, 14, n, true, gap, gap.size()) != nullptr, "scan with a gap flagged");

  Rows swapped = rows;
  std::swap(swapped[2], swapped[3]);
  Expect(CheckScan(100, 15, n, true, swapped, swapped.size()) != nullptr,
         "out-of-order scan flagged");

  // Key 104 is group 13's first member (104 / 8 = 13, 104 % 8 = 0): give
  // one member the next batch's tag while the others keep the old one.
  Rows torn = rows;
  torn[4].second = Value(104, 2, GroupTag(13, 2));
  Expect(CheckScan(100, 15, n, true, torn, torn.size()) != nullptr, "torn batch flagged");
  Expect(CheckScan(100, 15, n, false, torn, torn.size()) == nullptr,
         "tags ignored outside the batch layout");

  Rows whole = rows;
  for (uint64_t i = 104; i < 108; i++) {
    whole[i - 100].second = Value(i, 2, GroupTag(13, 2));
  }
  Expect(CheckScan(100, 15, n, true, whole, whole.size()) == nullptr,
         "whole batch at a newer version accepted");

  Rows foreign = rows;
  foreign[4].second = Value(104, 1, GroupTag(12, 1));
  Expect(CheckScan(100, 15, n, true, foreign, foreign.size()) != nullptr,
         "batch tag of another group flagged");

  Rows corrupt = rows;
  corrupt[7].second[50] ^= 1;
  Expect(CheckScan(100, 15, n, true, corrupt, corrupt.size()) != nullptr,
         "corrupt value inside a scan flagged");
}

void TestCounters() {
  Expect(CheckCounterSum(12345, 12345) == nullptr, "matching counter sum accepted");
  Expect(CheckCounterSum(12344, 12345) != nullptr, "lost increment flagged");
  Expect(CheckCounterSum(12346, 12345) != nullptr, "extra increment flagged");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestKeys();
  perfbench::TestValues();
  perfbench::TestScans();
  perfbench::TestCounters();
  if (perfbench::failures != 0) {
    std::fprintf(stderr, "%d checker test(s) failed\n", perfbench::failures);
    return 1;
  }
  std::printf("checker self-test passed\n");
  return 0;
}
