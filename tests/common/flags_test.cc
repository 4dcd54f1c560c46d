#include "common/flags.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace plp {
namespace {

FlagParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "binary");
  auto r = FlagParser::Parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TEST(FlagParserTest, EqualsForm) {
  const FlagParser f = Parse({"--eps=2.5", "--name=plp"});
  EXPECT_TRUE(f.Has("eps"));
  EXPECT_EQ(f.GetDouble("eps", 0.0), 2.5);
  EXPECT_EQ(f.GetString("name", ""), "plp");
}

TEST(FlagParserTest, SpaceForm) {
  const FlagParser f = Parse({"--steps", "100"});
  EXPECT_EQ(f.GetInt("steps", 0), 100);
}

TEST(FlagParserTest, BareBooleanForm) {
  const FlagParser f = Parse({"--verbose"});
  EXPECT_TRUE(f.GetBool("verbose", false));
}

TEST(FlagParserTest, BooleanValues) {
  EXPECT_TRUE(Parse({"--a=true"}).GetBool("a", false));
  EXPECT_TRUE(Parse({"--a=1"}).GetBool("a", false));
  EXPECT_TRUE(Parse({"--a=yes"}).GetBool("a", false));
  EXPECT_FALSE(Parse({"--a=false"}).GetBool("a", true));
  EXPECT_FALSE(Parse({"--a=0"}).GetBool("a", true));
  EXPECT_FALSE(Parse({"--a=no"}).GetBool("a", true));
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const FlagParser f = Parse({});
  EXPECT_FALSE(f.Has("x"));
  EXPECT_EQ(f.GetInt("x", 7), 7);
  EXPECT_EQ(f.GetDouble("x", 1.5), 1.5);
  EXPECT_EQ(f.GetString("x", "d"), "d");
  EXPECT_TRUE(f.GetBool("x", true));
}

TEST(FlagParserTest, PositionalArguments) {
  const FlagParser f = Parse({"input.csv", "--k=3", "output.csv"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "output.csv");
  EXPECT_EQ(f.GetInt("k", 0), 3);
}

TEST(FlagParserTest, DoubleList) {
  const FlagParser f = Parse({"--eps=0.5,1,2.5"});
  const std::vector<double> v = f.GetDoubleList("eps", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 0.5);
  EXPECT_EQ(v[1], 1.0);
  EXPECT_EQ(v[2], 2.5);
}

TEST(FlagParserTest, IntList) {
  const FlagParser f = Parse({"--lambdas=1,2,4,6"});
  const std::vector<int64_t> v = f.GetIntList("lambdas", {});
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[3], 6);
}

TEST(FlagParserTest, ListDefaultsWhenAbsent) {
  const FlagParser f = Parse({});
  EXPECT_EQ(f.GetDoubleList("eps", {1.0, 2.0}).size(), 2u);
  EXPECT_EQ(f.GetIntList("k", {3}).size(), 1u);
}

TEST(FlagParserTest, KeysListsEveryParsedKeyOnceInOrder) {
  const FlagParser f =
      Parse({"--sigm=9", "input.csv", "--eps", "0.5", "--verbose", "--eps=1"});
  EXPECT_EQ(f.keys(), (std::vector<std::string>{"eps", "sigm", "verbose"}));
  EXPECT_TRUE(Parse({"positional"}).keys().empty());
}

TEST(FlagParserTest, LastValueWins) {
  const FlagParser f = Parse({"--k=1", "--k=2"});
  EXPECT_EQ(f.GetInt("k", 0), 2);
}

TEST(FlagParserTest, NegativeNumberAsValue) {
  const FlagParser f = Parse({"--offset=-5"});
  EXPECT_EQ(f.GetInt("offset", 0), -5);
}

TEST(FlagParserTest, EmptyKeyIsError) {
  const char* args[] = {"binary", "--=3"};
  EXPECT_FALSE(FlagParser::Parse(2, args).ok());
}

}  // namespace
}  // namespace plp
