#include "common/id.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace hoh::common {
namespace {

TEST(IdGeneratorTest, SequentialFormat) {
  IdGenerator gen("pilot");
  EXPECT_EQ(gen.next(), "pilot.0000");
  EXPECT_EQ(gen.next(), "pilot.0001");
  EXPECT_EQ(gen.issued(), 2u);
}

TEST(IdGeneratorTest, WideCountersDoNotCollide) {
  IdGenerator gen("u");
  for (int i = 0; i < 10000; ++i) gen.next();
  EXPECT_EQ(gen.next(), "u.10000");  // %04 pads, never truncates
}

/// What the printf-based formatter printed for the id of draw \p n.
std::string printf_id(const char* prefix, unsigned long long n) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s.%04llu", prefix, n);
  return buf;
}

TEST(IdGeneratorTest, MatchesPrintfAcrossThePaddingBoundary) {
  IdGenerator gen("unit");
  for (unsigned long long n = 0; n <= 10001; ++n) {
    ASSERT_EQ(gen.next(), printf_id("unit", n)) << n;  // .9999 -> .10000
  }
}

TEST(AppendDecimalTest, MatchesPrintfZeroPadding) {
  for (const unsigned long long n :
       {0ull, 7ull, 999ull, 1000ull, 999999ull, 1000000ull,
        18446744073709551615ull}) {
    for (const int width : {1, 4, 6, 20}) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%0*llu", width, n);
      std::string out = "x";
      append_decimal(out, n, static_cast<std::size_t>(width));
      EXPECT_EQ(out, std::string("x") + buf) << n << " " << width;
    }
  }
}

// The satellite stress for the atomic counter: two threads drawing ids
// concurrently must never collide and must account for every draw.
TEST(IdGeneratorTest, TwoThreadUniquenessStress) {
  constexpr int kPerThread = 20000;
  IdGenerator gen("stress");
  std::vector<std::string> a, b;
  a.reserve(kPerThread);
  b.reserve(kPerThread);
  std::thread ta([&] {
    for (int i = 0; i < kPerThread; ++i) a.push_back(gen.next());
  });
  std::thread tb([&] {
    for (int i = 0; i < kPerThread; ++i) b.push_back(gen.next());
  });
  ta.join();
  tb.join();

  EXPECT_EQ(gen.issued(), 2u * kPerThread);
  std::set<std::string> unique(a.begin(), a.end());
  unique.insert(b.begin(), b.end());
  EXPECT_EQ(unique.size(), 2u * kPerThread);
}

}  // namespace
}  // namespace hoh::common
