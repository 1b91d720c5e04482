#include "support/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace {

using dlb::support::Cli;

TEST(Cli, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--procs=16", "--verbose", "positional"};
  const Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("procs", 0), 16);
  EXPECT_TRUE(cli.has("verbose"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  EXPECT_FALSE(cli.has("x"));
  EXPECT_EQ(cli.get("x", "dflt"), "dflt");
  EXPECT_EQ(cli.get_int("x", 9), 9);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 2.5), 2.5);
}

TEST(Cli, ParsesDoubles) {
  const char* argv[] = {"prog", "--t=1.25"};
  const Cli cli(2, argv);
  EXPECT_DOUBLE_EQ(cli.get_double("t", 0.0), 1.25);
}

TEST(Cli, EmptyValueAllowed) {
  const char* argv[] = {"prog", "--name="};
  const Cli cli(2, argv);
  EXPECT_TRUE(cli.has("name"));
  EXPECT_EQ(cli.get("name", "z"), "");
}

TEST(Cli, GarbageIntegerThrows) {
  // get_int used to atol-parse and silently hand back 0 for garbage, so
  // --procs=four ran a 0-processor grid instead of failing.
  const char* argv[] = {"prog", "--procs=four"};
  const Cli cli(2, argv);
  EXPECT_THROW((void)cli.get_int("procs", 0), std::invalid_argument);
}

TEST(Cli, TrailingJunkIntegerThrows) {
  // "4x" parsed as 4 before; a partial parse is still a bad value.
  const char* argv[] = {"prog", "--procs=4x"};
  const Cli cli(2, argv);
  EXPECT_THROW((void)cli.get_int("procs", 0), std::invalid_argument);
}

TEST(Cli, EmptyNumericValueThrows) {
  const char* argv[] = {"prog", "--procs=", "--tl="};
  const Cli cli(3, argv);
  EXPECT_THROW((void)cli.get_int("procs", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("tl", 0.0), std::invalid_argument);
}

TEST(Cli, OutOfRangeIntegerThrows) {
  const char* argv[] = {"prog", "--n=99999999999999999999999999"};
  const Cli cli(2, argv);
  EXPECT_THROW((void)cli.get_int("n", 0), std::invalid_argument);
}

TEST(Cli, GarbageDoubleThrows) {
  const char* argv[] = {"prog", "--tl=fast", "--max=1.5sec"};
  const Cli cli(3, argv);
  EXPECT_THROW((void)cli.get_double("tl", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("max", 0.0), std::invalid_argument);
}

TEST(Cli, NonFiniteDoubleThrows) {
  // strtod parses these whole, so they passed the full-consumption check;
  // --ops=inf then ran a grid whose work converted out of range.
  const char* argv[] = {"prog", "--ops=inf", "--bytes=nan", "--tl=-Infinity"};
  const Cli cli(4, argv);
  try {
    (void)cli.get_double("ops", 0.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--ops=inf: not a valid finite number");
  }
  EXPECT_THROW((void)cli.get_double("bytes", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("tl", 0.0), std::invalid_argument);
}

TEST(Cli, ValidNumbersStillParse) {
  const char* argv[] = {"prog", "--a=-3", "--b=1e3", "--c=.5"};
  const Cli cli(4, argv);
  EXPECT_EQ(cli.get_int("a", 0), -3);
  EXPECT_DOUBLE_EQ(cli.get_double("b", 0.0), 1000.0);
  EXPECT_DOUBLE_EQ(cli.get_double("c", 0.0), 0.5);
}

TEST(Cli, BareFlagNeedsAValue) {
  // A bare flag used to read as "1": a bare --trace-out wrote its traces
  // into ./1 and a bare --procs ran one processor.
  const char* argv[] = {"prog", "--trace-out", "--procs", "--tl"};
  const Cli cli(4, argv);
  EXPECT_TRUE(cli.has("trace-out"));
  try {
    (void)cli.get("trace-out", "");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "--trace-out needs a value");
  }
  EXPECT_THROW((void)cli.get_int("procs", 4), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("tl", 2.0), std::invalid_argument);
}

TEST(Cli, RejectUnknownAcceptsKnownFlags) {
  const char* argv[] = {"prog", "--procs=4", "--verbose", "positional"};
  const Cli cli(4, argv);
  EXPECT_NO_THROW(cli.reject_unknown({"procs", "verbose", "seeds"}));
}

TEST(Cli, RejectUnknownThrowsOnTypo) {
  // A typo like --trace-our=DIR must fail loudly, not silently run the
  // default grid with the flag ignored.
  const char* argv[] = {"prog", "--trace-our=/tmp/x"};
  const Cli cli(2, argv);
  try {
    cli.reject_unknown({"trace-out"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("trace-our"), std::string::npos);
  }
}

}  // namespace
