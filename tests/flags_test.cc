#include <gtest/gtest.h>

#include "common/flags.h"

namespace causer {
namespace {

Flags ParseList(std::vector<const char*> args,
                const std::set<std::string>& switches = {}) {
  args.insert(args.begin(), "prog");
  return Flags::Parse(static_cast<int>(args.size()), args.data(), switches);
}

TEST(FlagsTest, EqualsSyntax) {
  Flags f = ParseList({"--name=value", "--n=42"});
  EXPECT_EQ(f.GetString("name"), "value");
  EXPECT_EQ(f.GetInt("n", 0), 42);
}

TEST(FlagsTest, SpaceSyntax) {
  Flags f = ParseList({"--name", "value", "--x", "1.5"});
  EXPECT_EQ(f.GetString("name"), "value");
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 0), 1.5);
}

TEST(FlagsTest, BareFlagIsTrue) {
  Flags f = ParseList({"--verbose"});
  EXPECT_TRUE(f.Has("verbose"));
  EXPECT_TRUE(f.GetBool("verbose"));
  EXPECT_FALSE(f.GetBool("quiet"));
}

TEST(FlagsTest, BoolValues) {
  Flags f = ParseList({"--a=true", "--b=0", "--c=off", "--d=yes"});
  EXPECT_TRUE(f.GetBool("a"));
  EXPECT_FALSE(f.GetBool("b"));
  EXPECT_FALSE(f.GetBool("c"));
  EXPECT_TRUE(f.GetBool("d"));
}

TEST(FlagsTest, PositionalCollected) {
  Flags f = ParseList({"cmd", "--k=v", "file.txt"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "cmd");
  EXPECT_EQ(f.positional()[1], "file.txt");
}

TEST(FlagsTest, LaterOverridesEarlier) {
  Flags f = ParseList({"--n=1", "--n=2"});
  EXPECT_EQ(f.GetInt("n", 0), 2);
}

TEST(FlagsTest, MalformedNumbersAreUsageErrors) {
  // A present-but-garbled numeric value must exit 2, never silently take
  // the fallback ("--rerank-k=2kf" meant 2048, not the default).
  Flags f = ParseList({"--n=abc", "--k=2kf", "--x=1.2.3"});
  EXPECT_EXIT(f.GetInt("n", 7), testing::ExitedWithCode(2),
              "malformed integer for --n");
  EXPECT_EXIT(f.GetInt("k", 7), testing::ExitedWithCode(2),
              "malformed integer for --k");
  EXPECT_EXIT(f.GetDouble("x", 0.5), testing::ExitedWithCode(2),
              "malformed number for --x");
}

TEST(FlagsTest, MalformedBoolIsUsageError) {
  Flags f = ParseList({"--check=ture"});
  EXPECT_EXIT(f.GetBool("check"), testing::ExitedWithCode(2),
              "malformed boolean for --check: 'ture'");
}

TEST(FlagsTest, UnreadFlagIsUnknown) {
  // A retired or misspelt flag must fail, not run with defaults.
  Flags f = ParseList({"--data=d", "--serve-replay=2", "--verbose"});
  f.GetString("data");
  f.GetBool("verbose");
  EXPECT_EXIT(f.ExitOnUnknown(), testing::ExitedWithCode(2),
              "unknown flag --serve-replay");
  f.GetInt("serve-replay", 0);
  f.ExitOnUnknown();  // every passed flag has now been read
}

TEST(FlagsTest, SwitchNeverTakesTheNextArgument) {
  // The benches' "--smoke out.json": the report path stays positional.
  Flags f = ParseList({"--smoke", "out.json"}, {"smoke"});
  EXPECT_TRUE(f.GetBool("smoke"));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "out.json");
  Flags g = ParseList({"--smoke=false", "out.json"}, {"smoke"});
  EXPECT_FALSE(g.GetBool("smoke"));
  // A misspelt switch is not one: it swallows the path and stays unread.
  Flags h = ParseList({"--smok", "out.json"}, {"smoke"});
  EXPECT_FALSE(h.GetBool("smoke"));
  EXPECT_TRUE(h.positional().empty());
  EXPECT_EXIT(h.ExitOnUnknown(), testing::ExitedWithCode(2),
              "unknown flag --smok");
}

TEST(FlagsTest, AbsentOrEmptyNumbersStillFallBack) {
  Flags f = ParseList({"--present-empty"});
  EXPECT_EQ(f.GetInt("missing", 7), 7);
  EXPECT_EQ(f.GetInt("present-empty", 9), 9);
  EXPECT_DOUBLE_EQ(f.GetDouble("missing", 0.5), 0.5);
}

TEST(FlagsTest, FlagFollowedByFlagHasEmptyValue) {
  Flags f = ParseList({"--a", "--b=1"});
  EXPECT_TRUE(f.Has("a"));
  EXPECT_TRUE(f.GetBool("a"));
  EXPECT_EQ(f.GetInt("b", 0), 1);
}

TEST(FlagsTest, NegativeNumbersAsValues) {
  Flags f = ParseList({"--n=-5", "--x=-0.25"});
  EXPECT_EQ(f.GetInt("n", 0), -5);
  EXPECT_DOUBLE_EQ(f.GetDouble("x", 0), -0.25);
}

}  // namespace
}  // namespace causer
