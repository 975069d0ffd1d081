#include "common/cli.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

namespace mdgan {
namespace {

CliFlags parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return CliFlags(static_cast<int>(argv.size()), argv.data());
}

TEST(CliFlags, ParsesEqualsForm) {
  auto f = parse({"--iters=500", "--name=md-gan"});
  EXPECT_EQ(f.get_int("iters", 0), 500);
  EXPECT_EQ(f.get("name", ""), "md-gan");
}

TEST(CliFlags, ParsesSpaceForm) {
  auto f = parse({"--iters", "500"});
  EXPECT_EQ(f.get_int("iters", 0), 500);
}

TEST(CliFlags, BareFlagIsBooleanTrue) {
  auto f = parse({"--full"});
  EXPECT_TRUE(f.get_bool("full"));
  EXPECT_TRUE(f.has("full"));
}

TEST(CliFlags, DefaultsWhenMissing) {
  auto f = parse({});
  EXPECT_EQ(f.get_int("iters", 123), 123);
  EXPECT_EQ(f.get("name", "x"), "x");
  EXPECT_FALSE(f.get_bool("full"));
  EXPECT_DOUBLE_EQ(f.get_double("lr", 0.5), 0.5);
}

TEST(CliFlags, ParsesDoubles) {
  auto f = parse({"--lr=0.0002"});
  EXPECT_DOUBLE_EQ(f.get_double("lr", 0), 0.0002);
}

TEST(CliFlags, CollectsPositional) {
  auto f = parse({"alpha", "--k=2", "beta"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "alpha");
  EXPECT_EQ(f.positional()[1], "beta");
}

TEST(CliFlags, NegativeNumbersAsValues) {
  auto f = parse({"--offset=-5"});
  EXPECT_EQ(f.get_int("offset", 0), -5);
}

// The message names the flag and the value it could not parse.
void expect_rejected(const std::function<void()>& get, const std::string& flag,
                     const std::string& value) {
  try {
    get();
    ADD_FAILURE() << "--" << flag << "=" << value << " was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--" + flag), std::string::npos) << what;
    EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
  }
}

TEST(CliFlags, IntegerMustParseWhole) {
  auto f = parse({"--iters=1e3", "--workers=2x", "--batch=abc", "--seed=",
                  "--k=1.5", "--shard= "});
  expect_rejected([&] { f.get_int("iters", 0); }, "iters", "1e3");
  expect_rejected([&] { f.get_int("workers", 0); }, "workers", "2x");
  expect_rejected([&] { f.get_int("batch", 0); }, "batch", "abc");
  expect_rejected([&] { f.get_int("seed", 0); }, "seed", "");
  expect_rejected([&] { f.get_int("k", 0); }, "k", "1.5");
  expect_rejected([&] { f.get_int("shard", 0); }, "shard", " ");
}

TEST(CliFlags, IntegerOutOfRangeIsRejected) {
  auto f = parse(
      {"--seed=99999999999999999999", "--offset=-99999999999999999999"});
  expect_rejected([&] { f.get_int("seed", 0); }, "seed",
                  "99999999999999999999");
  expect_rejected([&] { f.get_int("offset", 0); }, "offset",
                  "-99999999999999999999");
  auto edge = parse({"--max=9223372036854775807"});
  EXPECT_EQ(edge.get_int("max", 0), INT64_MAX);
}

TEST(CliFlags, DoubleMustParseWhole) {
  auto f = parse({"--lr=2e-4", "--latency-ms=5ms", "--slowdown=x",
                  "--jitter-ms=1e999", "--mbps="});
  EXPECT_DOUBLE_EQ(f.get_double("lr", 0), 2e-4);
  expect_rejected([&] { f.get_double("latency-ms", 0); }, "latency-ms", "5ms");
  expect_rejected([&] { f.get_double("slowdown", 0); }, "slowdown", "x");
  expect_rejected([&] { f.get_double("jitter-ms", 0); }, "jitter-ms", "1e999");
  expect_rejected([&] { f.get_double("mbps", 0); }, "mbps", "");
}

TEST(CliFlags, BooleanAcceptsOnlyItsSpellings) {
  auto f = parse({"--a=true", "--b=1", "--c=yes", "--d=false", "--e=0",
                  "--f=no", "--g"});
  EXPECT_TRUE(f.get_bool("a"));
  EXPECT_TRUE(f.get_bool("b"));
  EXPECT_TRUE(f.get_bool("c"));
  EXPECT_FALSE(f.get_bool("d", true));
  EXPECT_FALSE(f.get_bool("e", true));
  EXPECT_FALSE(f.get_bool("f", true));
  EXPECT_TRUE(f.get_bool("g"));
  auto bad = parse({"--full=on", "--swap=off", "--tiny=2", "--quiet="});
  expect_rejected([&] { bad.get_bool("full"); }, "full", "on");
  expect_rejected([&] { bad.get_bool("swap", true); }, "swap", "off");
  expect_rejected([&] { bad.get_bool("tiny"); }, "tiny", "2");
  expect_rejected([&] { bad.get_bool("quiet"); }, "quiet", "");
}

}  // namespace
}  // namespace mdgan
