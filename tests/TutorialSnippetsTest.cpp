//===- tests/TutorialSnippetsTest.cpp - docs/TUTORIAL.md stays honest ---------===//
///
/// \file
/// Every concrete claim in docs/TUTORIAL.md, executed. If the tutorial
/// drifts from the implementation, this suite fails.
///
//===----------------------------------------------------------------------===//

#include "core/LanguageOps.h"
#include "re/RegexParser.h"
#include "smt/SmtSolver.h"
#include "solver/RegexSolver.h"
#include "support/Unicode.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class TutorialTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver S{E};
};

TEST_F(TutorialTest, Section2BuildingRegexes) {
  Re Password = parseRegexOrDie(M, "(.*\\d.*)&~(.*01.*)");
  Re HasDigit =
      M.concat(M.top(), M.concat(M.pred(CharSet::digit()), M.top()));
  Re No01 = M.complement(parseRegexOrDie(M, ".*01.*"));
  Re Password2 = M.inter(HasDigit, No01);
  EXPECT_EQ(Password, Password2); // "same interned node"

  // "Watch the constructors simplify".
  Re A = parseRegexOrDie(M, "ab*");
  EXPECT_EQ(M.union_(A, M.complement(A)), M.top());
  EXPECT_EQ(M.inter(M.pred(CharSet::digit()),
                    M.pred(CharSet::asciiLetter())),
            M.empty());

  // Round trip.
  EXPECT_EQ(parseRegexOrDie(M, M.toString(Password)), Password);
}

TEST_F(TutorialTest, Section3Matching) {
  Re Password = parseRegexOrDie(M, "(.*\\d.*)&~(.*01.*)");
  EXPECT_TRUE(E.matches(Password, std::string("pass9word")));
  EXPECT_FALSE(E.matches(Password, std::string("pass01word")));

  // "E memoizes every step D_a(R) across calls": a repeated word is
  // answered from the memo alone.
  EXPECT_TRUE(E.matches(Password, std::string("aB3!")));
#if SBD_OBS
  uint64_t Misses = E.stats().MemoMisses;
  EXPECT_TRUE(E.matches(Password, std::string("aB3!")));
  EXPECT_EQ(E.stats().MemoMisses, Misses);
  EXPECT_GT(E.stats().MemoHits, 0u);
#endif // SBD_OBS

  auto Span =
      findFirstMatch(E, parseRegexOrDie(M, "\\d+"), fromUtf8("ab12cd"));
  ASSERT_TRUE(Span.has_value());
  EXPECT_EQ(*Span, (std::pair<size_t, size_t>{2, 3}));
}

TEST_F(TutorialTest, Section4Solving) {
  Re Password = parseRegexOrDie(M, "(.*\\d.*)&~(.*01.*)");
  SolveResult R = S.checkSat(Password);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  ASSERT_EQ(R.Witness.size(), 1u); // "a shortest member under BFS"
  EXPECT_TRUE(CharSet::digit().contains(R.Witness[0]));

  EXPECT_TRUE(S.checkSat(M.inter(parseRegexOrDie(M, "(ab)+"),
                                 parseRegexOrDie(M, "(ba)+")))
                  .isUnsat());

  // Persistence claim: dead regexes stay refuted.
  Re Dead = M.inter(parseRegexOrDie(M, "(ab)+"), parseRegexOrDie(M, "(ba)+"));
  EXPECT_TRUE(S.graph().isDead(Dead));
}

TEST_F(TutorialTest, Section7SmtExample) {
  SmtSolver Smt(S);
  SmtResult R = Smt.solveScript(R"(
    (declare-const s String)
    (assert (str.in_re s (re.+ (re.range "a" "z"))))
    (assert (<= (str.len s) 4))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  ASSERT_EQ(R.Model.size(), 1u);
  EXPECT_EQ(R.Model[0].first, "s");
  EXPECT_EQ(R.Model[0].second, "a"); // the documented model
}

} // namespace
