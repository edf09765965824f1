//===- tests/FuzzRobustnessTest.cpp - Parser totality under random input ------===//
///
/// \file
/// All three front-end parsers (regex, s-expression, JSON) are total
/// functions: arbitrary byte garbage must produce a parse error or a valid
/// value, never a crash, hang, or invariant violation. This suite throws
/// seeded random inputs — raw bytes, metacharacter soup, and mutated valid
/// inputs — at each parser, and re-validates anything that parses.
///
//===----------------------------------------------------------------------===//

#include "re/RegexParser.h"
#include "smt/SExpr.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

std::string randomBytes(Rng &R, size_t MaxLen) {
  size_t Len = R.below(MaxLen + 1);
  std::string Out;
  for (size_t I = 0; I != Len; ++I)
    Out.push_back(static_cast<char>(R.below(256)));
  return Out;
}

std::string randomMetaSoup(Rng &R, size_t MaxLen) {
  static const char Pool[] = "()[]{}|&~*+?.\\-^$#@\"ab01,;: \n";
  size_t Len = R.below(MaxLen + 1);
  std::string Out;
  for (size_t I = 0; I != Len; ++I)
    Out.push_back(Pool[R.below(sizeof(Pool) - 1)]);
  return Out;
}

std::string mutate(Rng &R, std::string In) {
  if (In.empty())
    return In;
  size_t Edits = 1 + R.below(3);
  for (size_t I = 0; I != Edits; ++I) {
    size_t Pos = R.below(In.size());
    switch (R.below(3)) {
    case 0:
      In[Pos] = static_cast<char>(R.below(256));
      break;
    case 1:
      In.erase(Pos, 1);
      break;
    default:
      In.insert(Pos, 1, static_cast<char>(R.below(256)));
      break;
    }
    if (In.empty())
      break;
  }
  return In;
}

class FuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FuzzTest, RegexParserIsTotal) {
  RegexManager M;
  Rng R(GetParam());
  for (int I = 0; I != 60; ++I) {
    std::string Input =
        R.chance(1, 2) ? randomMetaSoup(R, 40) : randomBytes(R, 40);
    RegexParseResult Res = parseRegex(M, Input);
    if (!Res.Ok)
      continue;
    // Whatever parsed must print and re-parse to the same term.
    std::string Printed = M.toString(Res.Value);
    RegexParseResult Again = parseRegex(M, Printed);
    ASSERT_TRUE(Again.Ok) << "print of a parsed term failed to reparse: "
                          << Printed;
    EXPECT_EQ(Again.Value, Res.Value) << Printed;
  }
}

TEST_P(FuzzTest, RegexParserSurvivesMutatedValidPatterns) {
  RegexManager M;
  Rng R(GetParam());
  const char *Seeds[] = {
      ".*\\d.*&~(.*01.*)",
      "\\d{4}-[a-zA-Z]{3}-\\d{2}",
      "(.*a.{5})&(.*b.{5})",
      "[\\u4E00-\\u9FFF]+x?",
  };
  for (const char *Seed : Seeds)
    for (int I = 0; I != 25; ++I) {
      std::string Input = mutate(R, Seed);
      RegexParseResult Res = parseRegex(M, Input);
      if (Res.Ok)
        (void)M.toString(Res.Value); // must not crash either
    }
}

TEST_P(FuzzTest, SExprReaderIsTotal) {
  Rng R(GetParam());
  for (int I = 0; I != 60; ++I) {
    std::string Input =
        R.chance(1, 2) ? randomMetaSoup(R, 60) : randomBytes(R, 60);
    (void)parseSExprs(Input); // must terminate without crashing
  }
  // Mutated valid scripts.
  const char *Seed = "(declare-const s String)(assert (str.in_re s "
                     "(re.+ (re.range \"a\" \"z\"))))(check-sat)";
  for (int I = 0; I != 40; ++I)
    (void)parseSExprs(mutate(R, Seed));
}

TEST_P(FuzzTest, JsonReaderIsTotal) {
  Rng R(GetParam());
  for (int I = 0; I != 60; ++I)
    (void)parseJson(R.chance(1, 2) ? randomMetaSoup(R, 60)
                                   : randomBytes(R, 60));
  const char *Seed = R"({"if":{"allOf":[{"field":"date","match":"##"}]}})";
  for (int I = 0; I != 40; ++I)
    (void)parseJson(mutate(R, Seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTest, ::testing::Range<uint64_t>(1, 16));

} // namespace
