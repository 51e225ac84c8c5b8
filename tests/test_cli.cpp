// Unit tests for Cli numeric-flag validation: malformed values must exit 2
// naming the program and the flag instead of silently parsing to 0.
#include <gtest/gtest.h>

#include <initializer_list>
#include <vector>

#include "common/cli.hpp"

namespace cr {
namespace {

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(CliValidate, AcceptsWellFormedNumbers) {
  const Cli cli = make_cli({"--n=42", "--neg=-17", "--rate=0.25", "--exp=1e3"});
  EXPECT_EQ(cli.get_int("n", 0), 42);
  EXPECT_EQ(cli.get_int("neg", 0), -17);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(cli.get_double("exp", 0.0), 1000.0);
}

TEST(CliValidate, AcceptsSubnormalDouble) {
  // glibc strtod sets ERANGE on underflow; a representable subnormal must
  // still be accepted, not treated as a parse failure.
  const Cli cli = make_cli({"--rate=1e-310"});
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.0), 1e-310);
}

TEST(CliValidate, MissingFlagsFallBackToDefaults) {
  const Cli cli = make_cli({});
  EXPECT_EQ(cli.get_int("n", 9), 9);
  EXPECT_DOUBLE_EQ(cli.get_double("rate", 0.5), 0.5);
}

TEST(CliValidateDeathTest, RejectsGarbageInt) {
  const Cli cli = make_cli({"--n=abc"});
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2),
              "prog: --n expects an integer");
}

TEST(CliValidateDeathTest, RejectsTrailingJunkInt) {
  const Cli cli = make_cli({"--n=12x"});
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2),
              "prog: --n expects an integer");
}

TEST(CliValidateDeathTest, RejectsFloatAsInt) {
  const Cli cli = make_cli({"--n=3.5"});
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2),
              "prog: --n expects an integer");
}

TEST(CliValidateDeathTest, RejectsIntOverflow) {
  const Cli cli = make_cli({"--n=99999999999999999999999999"});
  EXPECT_EXIT(cli.get_int("n", 0), ::testing::ExitedWithCode(2),
              "prog: --n expects an integer");
}

TEST(CliValidateDeathTest, RejectsDoubleOverflow) {
  const Cli cli = make_cli({"--rate=1e999"});
  EXPECT_EXIT(cli.get_double("rate", 0.0), ::testing::ExitedWithCode(2),
              "prog: --rate expects a number");
}

TEST(CliValidateDeathTest, RejectsGarbageDouble) {
  const Cli cli = make_cli({"--rate=fast"});
  EXPECT_EXIT(cli.get_double("rate", 0.0), ::testing::ExitedWithCode(2),
              "prog: --rate expects a number");
}

TEST(CliValidateDeathTest, RejectsTrailingJunkDouble) {
  const Cli cli = make_cli({"--rate=0.5qq"});
  EXPECT_EXIT(cli.get_double("rate", 0.0), ::testing::ExitedWithCode(2),
              "prog: --rate expects a number");
}

TEST(CliValidateDeathTest, RejectsBareBoolReadAsInt) {
  // `--verbose` with no value stores "true"; asking for it as an int must
  // exit 2 rather than return 0.
  const Cli cli = make_cli({"--verbose"});
  EXPECT_EXIT(cli.get_int("verbose", 0), ::testing::ExitedWithCode(2),
              "prog: --verbose expects an integer");
}

TEST(CliValidateDeathTest, RejectsAnUnknownBooleanWord) {
  // A misspelled word must not read as false: `--quick=ture` would run the
  // full-size sweep.
  const Cli cli = make_cli({"--quick=ture"});
  EXPECT_EXIT(cli.get_bool("quick", false), ::testing::ExitedWithCode(2),
              "prog: --quick expects true or false, got \"ture\"");
}

// Unknown-flag rejection: a typo like --rep=10 must fail loudly instead of
// silently running with the default.

TEST(CliUnknown, ReadsAndDeclaresRegisterKnownFlags) {
  const Cli cli = make_cli({"--n=42", "--quick", "--out=x.csv"});
  cli.get_int("n", 0);
  cli.get_bool("quick", false);
  EXPECT_EQ(cli.unknown_flags(), std::vector<std::string>{"out"});
  cli.declare({"out"});
  EXPECT_TRUE(cli.unknown_flags().empty());
  cli.reject_unknown();  // no-op when everything is known
}

TEST(CliUnknown, NoFlagsIsTriviallyKnown) {
  const Cli cli = make_cli({});
  EXPECT_TRUE(cli.unknown_flags().empty());
  cli.reject_unknown();
}

TEST(CliUnknownDeathTest, RejectUnknownExitsWithMessage) {
  const Cli cli = make_cli({"--rep=10"});
  cli.declare({"reps", "seed"});
  EXPECT_EXIT(cli.reject_unknown(), ::testing::ExitedWithCode(2), "unknown flag --rep");
}

TEST(CliUnknownDeathTest, SuggestsCloseMatches) {
  const Cli cli = make_cli({"--thread=4"});
  cli.declare({"threads", "reps"});
  EXPECT_EXIT(cli.reject_unknown(), ::testing::ExitedWithCode(2),
              "did you mean --threads");
}

}  // namespace
}  // namespace cr
