// Tests for the command-line parser used by examples and benches.
#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli_flags.hpp"

namespace dreamsim {
namespace {

bool ParseArgs(CliParser& cli, std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return cli.Parse(static_cast<int>(args.size()), args.data());
}

TEST(CliParser, DefaultsApplyWithoutArgs) {
  CliParser cli("test");
  cli.AddInt("n", 7, "count");
  cli.AddString("name", "x", "label");
  cli.AddDouble("ratio", 0.5, "ratio");
  cli.AddBool("flag", false, "flag");
  ASSERT_TRUE(ParseArgs(cli, {}));
  EXPECT_EQ(cli.GetInt("n"), 7);
  EXPECT_EQ(cli.GetString("name"), "x");
  EXPECT_DOUBLE_EQ(cli.GetDouble("ratio"), 0.5);
  EXPECT_FALSE(cli.GetBool("flag"));
}

TEST(CliParser, EqualsSyntax) {
  CliParser cli("test");
  cli.AddInt("n", 0, "count");
  ASSERT_TRUE(ParseArgs(cli, {"--n=42"}));
  EXPECT_EQ(cli.GetInt("n"), 42);
}

TEST(CliParser, SpaceSyntax) {
  CliParser cli("test");
  cli.AddInt("n", 0, "count");
  ASSERT_TRUE(ParseArgs(cli, {"--n", "13"}));
  EXPECT_EQ(cli.GetInt("n"), 13);
}

TEST(CliParser, BareBooleanFlagMeansTrue) {
  CliParser cli("test");
  cli.AddBool("verbose", false, "talk");
  ASSERT_TRUE(ParseArgs(cli, {"--verbose"}));
  EXPECT_TRUE(cli.GetBool("verbose"));
}

TEST(CliParser, BooleanExplicitValues) {
  CliParser cli("test");
  cli.AddBool("a", false, "");
  cli.AddBool("b", true, "");
  ASSERT_TRUE(ParseArgs(cli, {"--a=yes", "--b=off"}));
  EXPECT_TRUE(cli.GetBool("a"));
  EXPECT_FALSE(cli.GetBool("b"));
}

TEST(CliParser, PerformanceTogglesMirrorTheTool) {
  // The dreamsim tool registers both index toggles default-on; either can
  // be disabled to fall back to the reference scans.
  CliParser cli("test");
  cli.AddBool("scheduler-index", true, "");
  cli.AddBool("drain-index", true, "");
  ASSERT_TRUE(ParseArgs(cli, {}));
  EXPECT_TRUE(cli.GetBool("scheduler-index"));
  EXPECT_TRUE(cli.GetBool("drain-index"));
  ASSERT_TRUE(ParseArgs(cli, {"--drain-index=false", "--scheduler-index=off"}));
  EXPECT_FALSE(cli.GetBool("scheduler-index"));
  EXPECT_FALSE(cli.GetBool("drain-index"));
}

TEST(CliParser, UnknownOptionFails) {
  CliParser cli("test");
  ASSERT_FALSE(ParseArgs(cli, {"--nope=1"}));
  EXPECT_NE(cli.error().find("nope"), std::string::npos);
}

TEST(CliParser, MalformedIntFails) {
  CliParser cli("test");
  cli.AddInt("n", 0, "");
  ASSERT_FALSE(ParseArgs(cli, {"--n=abc"}));
  EXPECT_NE(cli.error().find("integer"), std::string::npos);
}

TEST(CliParser, MalformedDoubleFails) {
  CliParser cli("test");
  cli.AddDouble("r", 0.0, "");
  ASSERT_FALSE(ParseArgs(cli, {"--r=1.2.3"}));
}

TEST(CliParser, MissingValueFails) {
  CliParser cli("test");
  cli.AddInt("n", 0, "");
  ASSERT_FALSE(ParseArgs(cli, {"--n"}));
  EXPECT_NE(cli.error().find("expects a value"), std::string::npos);
}

TEST(CliParser, NegativeNumbers) {
  CliParser cli("test");
  cli.AddInt("n", 0, "");
  cli.AddDouble("d", 0.0, "");
  ASSERT_TRUE(ParseArgs(cli, {"--n=-5", "--d=-1.5"}));
  EXPECT_EQ(cli.GetInt("n"), -5);
  EXPECT_DOUBLE_EQ(cli.GetDouble("d"), -1.5);
}

TEST(CliParser, PositionalArguments) {
  CliParser cli("test");
  cli.AddInt("n", 0, "");
  ASSERT_TRUE(ParseArgs(cli, {"file1", "--n=1", "file2"}));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "file1");
  EXPECT_EQ(cli.positional()[1], "file2");
}

TEST(CliParser, HelpRequested) {
  CliParser cli("test tool");
  cli.AddInt("n", 3, "the count");
  ASSERT_TRUE(ParseArgs(cli, {"--help"}));
  EXPECT_TRUE(cli.help_requested());
  const std::string help = cli.HelpText();
  EXPECT_NE(help.find("test tool"), std::string::npos);
  EXPECT_NE(help.find("--n"), std::string::npos);
  EXPECT_NE(help.find("default: 3"), std::string::npos);
}

TEST(CliParser, TypeMismatchAccessThrows) {
  CliParser cli("test");
  cli.AddInt("n", 0, "");
  ASSERT_TRUE(ParseArgs(cli, {}));
  EXPECT_THROW((void)cli.GetString("n"), std::logic_error);
  EXPECT_THROW((void)cli.GetInt("missing"), std::logic_error);
}

TEST(CliParser, WasSetDistinguishesDefaultsFromExplicit) {
  // The tool lets an explicit --seed, --mode, --policy or --explain
  // override a scenario file, so it must tell an explicitly passed option
  // apart from one left at its default.
  CliParser cli("test");
  cli.AddInt("n", 7, "");
  cli.AddString("out", "", "");
  cli.AddBool("flag", false, "");
  ASSERT_TRUE(ParseArgs(cli, {"--n=7", "--flag"}));
  EXPECT_TRUE(cli.WasSet("n"));  // explicit, even though it equals the default
  EXPECT_TRUE(cli.WasSet("flag"));
  EXPECT_FALSE(cli.WasSet("out"));
  EXPECT_THROW((void)cli.WasSet("missing"), std::logic_error);
}

TEST(CliParser, IntRangeIsCheckedAtParseTime) {
  CliParser cli("test");
  cli.AddInt("n", 1, "", 1, 10);
  EXPECT_TRUE(ParseArgs(cli, {"--n=1", "--n=10"}));  // inclusive ends
  EXPECT_EQ(cli.GetInt("n"), 10);
  ASSERT_FALSE(ParseArgs(cli, {"--n=0"}));
  EXPECT_NE(cli.error().find("--n expects an integer in [1, 10], got '0'"),
            std::string::npos);
  EXPECT_FALSE(ParseArgs(cli, {"--n", "11"}));
  EXPECT_THROW(cli.AddInt("m", 0, "", 1, 10), std::logic_error);
}

// The dreamsim tool's own flag set: a count outside its declared range is
// a parse error naming the flag, never a value wrapped by the narrowing.
void ExpectToolRejects(std::vector<std::vector<const char*>> cases) {
  for (const auto& args : cases) {
    CliParser cli("dreamsim");
    tool::RegisterFlags(cli);
    EXPECT_FALSE(ParseArgs(cli, args)) << args[0] << ' ' << args[1];
    EXPECT_NE(cli.error().find(args[0]), std::string::npos) << cli.error();
  }
}

TEST(DreamsimFlags, CountsBelowRangeFail) {
  ExpectToolRejects({{"--nodes", "-5"}, {"--configs", "-1"},
                     {"--tasks", "-1"}, {"--families", "0"},
                     {"--suspension-batch", "-1"}, {"--max-retries", "-1"},
                     {"--queue-capacity", "-1"}, {"--threads", "-1"},
                     {"--replications", "0"}, {"--sample-interval", "-5"},
                     {"--metrics-interval", "0"}});
}

TEST(DreamsimFlags, CountsAboveRangeFail) {
  ExpectToolRejects({{"--nodes", "3000000000"}, {"--configs", "2147483648"},
                     {"--tasks", "4294967396"}, {"--families", "4294967298"},
                     {"--max-retries", "4294967296"}, {"--threads", "1025"},
                     {"--replications", "1000001"}});
}

TEST(DreamsimFlags, RangeEndsAreAccepted) {
  CliParser cli("dreamsim");
  tool::RegisterFlags(cli);
  EXPECT_TRUE(ParseArgs(
      cli, {"--nodes", "0", "--tasks", "2147483647", "--families", "1",
            "--max-retries", "4294967295", "--threads", "1024",
            "--replications", "1000000"}));
  EXPECT_TRUE(ParseArgs(cli, {"--threads", "0", "--replications", "1"}));
}

}  // namespace
}  // namespace dreamsim
