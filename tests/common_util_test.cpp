#include <gtest/gtest.h>

#include "common/id.h"
#include "common/string_util.h"
#include "common/units.h"

namespace hoh::common {
namespace {

TEST(StringUtilTest, Split) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("trailing,", ','),
            (std::vector<std::string>{"trailing", ""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
}

TEST(StringUtilTest, SplitJoinRoundTrip) {
  const std::string s = "n0,n1,n2";
  EXPECT_EQ(join(split(s, ','), ","), s);
}

TEST(StringUtilTest, StartsWithAndTrim) {
  EXPECT_TRUE(starts_with("slurm://host", "slurm://"));
  EXPECT_FALSE(starts_with("slu", "slurm"));
  EXPECT_EQ(trim("  x y \n"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringUtilTest, Format) {
  EXPECT_EQ(strformat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(1536), "1.5 KiB");
  EXPECT_EQ(format_bytes(3 * kGiB), "3.0 GiB");
  EXPECT_EQ(format_seconds(12.34), "12.3s");
  EXPECT_EQ(format_seconds(125.0), "2m05.0s");
  EXPECT_EQ(format_seconds(3700.0), "1h01m40s");
}

TEST(UnitsTest, Literals) {
  EXPECT_EQ(4_KiB, 4096);
  EXPECT_EQ(1_MiB, 1048576);
  EXPECT_EQ(bytes_to_mb(5_MiB), 5);
  EXPECT_EQ(mb_to_bytes(2), 2_MiB);
}

TEST(IdGeneratorTest, MonotonicAndPrefixed) {
  IdGenerator gen("unit");
  EXPECT_EQ(gen.next(), "unit.0000");
  EXPECT_EQ(gen.next(), "unit.0001");
  EXPECT_EQ(gen.issued(), 2u);
}

}  // namespace
}  // namespace hoh::common
