#include "util/cli.hpp"

#include <gtest/gtest.h>

namespace gvc::util {
namespace {

Args make(std::initializer_list<const char*> argv) {
  std::vector<const char*> v(argv);
  return Args(static_cast<int>(v.size()), v.data());
}

TEST(Cli, KeyEqualsValue) {
  auto a = make({"prog", "--graph=p_hat", "--n=300"});
  EXPECT_EQ(a.get("graph"), "p_hat");
  EXPECT_EQ(a.get_int("n", 0), 300);
}

TEST(Cli, KeySpaceValue) {
  auto a = make({"prog", "--graph", "grid", "--p", "0.5"});
  EXPECT_EQ(a.get("graph"), "grid");
  EXPECT_DOUBLE_EQ(a.get_double("p", 0), 0.5);
}

TEST(Cli, BareFlagIsTrue) {
  auto a = make({"prog", "--verbose"});
  EXPECT_TRUE(a.has("verbose"));
  EXPECT_TRUE(a.get_bool("verbose", false));
}

TEST(Cli, BoolSpellings) {
  auto a = make({"prog", "--x=off", "--y=YES", "--z=0"});
  EXPECT_FALSE(a.get_bool("x", true));
  EXPECT_TRUE(a.get_bool("y", false));
  EXPECT_FALSE(a.get_bool("z", true));
}

TEST(Cli, FlagsListsEveryNameOnce) {
  auto a = make({"prog", "g.gvc", "--z=1", "--a", "x", "--bare", "--z=2"});
  EXPECT_EQ(a.flags(), (std::vector<std::string>{"a", "bare", "z"}));
  EXPECT_TRUE(make({"prog", "g.gvc"}).flags().empty());
}

TEST(Cli, DefaultsWhenAbsent) {
  auto a = make({"prog"});
  EXPECT_FALSE(a.has("missing"));
  EXPECT_EQ(a.get("missing", "fallback"), "fallback");
  EXPECT_EQ(a.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(a.get_bool("missing", true));
}

TEST(Cli, Positionals) {
  auto a = make({"prog", "input.col", "--k=3", "out.csv"});
  ASSERT_EQ(a.positional().size(), 2u);
  EXPECT_EQ(a.positional()[0], "input.col");
  EXPECT_EQ(a.positional()[1], "out.csv");
  EXPECT_EQ(a.program(), "prog");
}

TEST(Cli, FlagFollowedByFlagIsNotConsumed) {
  auto a = make({"prog", "--a", "--b=2"});
  EXPECT_TRUE(a.get_bool("a", false));
  EXPECT_EQ(a.get_int("b", 0), 2);
}

TEST(CliDeathTest, MalformedNumberAborts) {
  auto a = make({"prog", "--n=abc"});
  EXPECT_DEATH(a.get_int("n", 0), "malformed");
}

}  // namespace
}  // namespace gvc::util
