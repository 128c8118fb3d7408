//===- tests/argparse_test.cpp ---------------------------------*- C++ -*-===//

#include "support/ArgParse.h"
#include "support/Error.h"
#include "support/Parallel.h"

#include <gtest/gtest.h>

using namespace deept::support;

namespace {

ArgParse parse(std::initializer_list<const char *> Argv,
               const std::vector<std::string> &Switches = {}) {
  std::vector<const char *> V = Argv;
  return ArgParse(static_cast<int>(V.size()), V.data(), Switches);
}

} // namespace

TEST(ArgParse, PositionalAndFlags) {
  ArgParse A = parse({"prog", "train", "--out", "m.dptm", "--layers", "3"});
  ASSERT_EQ(A.positional().size(), 1u);
  EXPECT_EQ(A.positional()[0], "train");
  EXPECT_EQ(A.get("out"), "m.dptm");
  EXPECT_EQ(A.getInt("layers", 0), 3);
  EXPECT_FALSE(A.has("missing"));
  EXPECT_EQ(A.get("missing", "fallback"), "fallback");
}

TEST(ArgParse, SwitchesConsumeNoValue) {
  ArgParse A = parse({"prog", "train", "--robust", "positional2"},
                     {"robust"});
  EXPECT_TRUE(A.has("robust"));
  ASSERT_EQ(A.positional().size(), 2u);
  EXPECT_EQ(A.positional()[1], "positional2");
}

TEST(ArgParse, EqualsForm) {
  ArgParse A = parse({"prog", "--norm=linf", "--eps=0.25"});
  EXPECT_EQ(A.get("norm"), "linf");
  EXPECT_DOUBLE_EQ(A.getDouble("eps", 0.0), 0.25);
}

TEST(ArgParse, FlagBeforeAnotherFlagActsAsSwitch) {
  ArgParse A = parse({"prog", "--verbose", "--out", "x"});
  EXPECT_TRUE(A.has("verbose"));
  EXPECT_EQ(A.get("verbose"), "");
  EXPECT_EQ(A.get("out"), "x");
  // --verbose is not a declared switch, so it is a flag missing its value.
  EXPECT_EQ(A.missingValues(), std::vector<std::string>{"verbose"});
}

TEST(ArgParse, TrailingFlagWithoutValue) {
  ArgParse A = parse({"prog", "--flag"});
  EXPECT_TRUE(A.has("flag"));
  EXPECT_EQ(A.get("flag", "d"), "");
  EXPECT_EQ(A.missingValues(), std::vector<std::string>{"flag"});
  // A declared switch never misses a value, in either position.
  EXPECT_TRUE(parse({"prog", "--fsync"}, {"fsync"}).missingValues().empty());
  EXPECT_TRUE(parse({"prog", "--fsync", "--out", "x"}, {"fsync"})
                  .missingValues()
                  .empty());
  // `--key=` spells an empty value, which is as missing as no value.
  EXPECT_EQ(parse({"prog", "--cert-dir="}).missingValues(),
            std::vector<std::string>{"cert-dir"});
  EXPECT_TRUE(parse({"prog", "--out", "x"}).missingValues().empty());
}

TEST(ArgParse, IntAndDoubleDefaults) {
  ArgParse A = parse({"prog", "--n", "42", "--x", "2.5"});
  EXPECT_EQ(A.getInt("n", 0), 42);
  EXPECT_DOUBLE_EQ(A.getDouble("x", 0.0), 2.5);
  EXPECT_EQ(A.getInt("absent", 7), 7);
  EXPECT_DOUBLE_EQ(A.getDouble("absent", 1.5), 1.5);
}

TEST(ArgParse, UnknownFlagDetection) {
  ArgParse A = parse({"prog", "--out", "x", "--typo", "y"});
  auto Unknown = A.unknownFlags({"out"});
  ASSERT_EQ(Unknown.size(), 1u);
  EXPECT_EQ(Unknown[0], "typo");
}

TEST(ArgParse, GetIntStrictAcceptsWellFormedIntegers) {
  ArgParse A = parse({"prog", "--deadline-ms", "250", "--neg", "-3",
                      "--eps", "-0.5", "--exp", "1e-3"});
  EXPECT_EQ(A.getInt("deadline-ms", 7), 250);
  EXPECT_EQ(A.getInt("neg", 7), -3);
  EXPECT_DOUBLE_EQ(A.getDouble("eps", 0.0), -0.5);
  EXPECT_DOUBLE_EQ(A.getDouble("exp", 0.0), 1e-3);
  // Absent flags return the default.
  EXPECT_EQ(A.getInt("absent", 42), 42);
}

namespace {

/// The BadArgument message getInt / getDouble throw for \p Name, or ""
/// when they do not throw.
std::string numericError(const ArgParse &A, const char *Name, bool Int) {
  try {
    if (Int)
      A.getInt(Name, 0);
    else
      A.getDouble(Name, 0.0);
  } catch (const Error &E) {
    EXPECT_EQ(E.code(), ErrorCode::BadArgument);
    return E.what();
  }
  return "";
}

} // namespace

TEST(ArgParse, GetIntStrictRejectsMalformedValues) {
  ArgParse A = parse({"prog", "--a", "12x", "--b", "abc", "--c", "1.5",
                      "--d", "", "--e", " 4", "--f",
                      "99999999999999999999999", "--trailing"});
  for (const char *Name : {"a", "b", "c", "d", "e", "f", "trailing"})
    EXPECT_NE(numericError(A, Name, true).find("expects an integer"),
              std::string::npos)
        << Name;
  // The same strict path parses doubles, and rejects non-finite values.
  ArgParse D = parse({"prog", "--a", "0.5x", "--b", "abc", "--c", "nan",
                      "--d", "inf", "--e", "", "--trailing"});
  for (const char *Name : {"a", "b", "c", "d", "e", "trailing"})
    EXPECT_NE(numericError(D, Name, false).find("--"), std::string::npos)
        << Name;
  EXPECT_NE(numericError(D, "b", false).find("--b expects a number, got "
                                             "'abc'"),
            std::string::npos);
}

TEST(ThreadCount, ParseAcceptsPositiveIntegers) {
  size_t Out = 0;
  EXPECT_TRUE(deept::support::parseThreadCount("1", Out));
  EXPECT_EQ(Out, 1u);
  EXPECT_TRUE(deept::support::parseThreadCount("16", Out));
  EXPECT_EQ(Out, 16u);
}

TEST(ThreadCount, ParseRejectsZeroNegativeAndGarbage) {
  for (const char *Bad : {"0", "-1", "-8", "two", "4x", "1.5", "", " 4"}) {
    size_t Out = 99;
    std::string Err;
    EXPECT_FALSE(deept::support::parseThreadCount(Bad, Out, &Err)) << Bad;
    EXPECT_NE(Err.find("positive integer"), std::string::npos) << Err;
  }
}
