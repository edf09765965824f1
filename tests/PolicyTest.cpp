//===- tests/PolicyTest.cpp - Cloud-policy front end tests --------------------===//

#include "policy/Policy.h"

#include "core/Derivatives.h"
#include "re/RegexParser.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class PolicyTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  PolicyChecker Checker{Solver};
};

TEST_F(PolicyTest, PatternTranslation) {
  // The translation unrolls per character (no loop nodes), so compare with
  // the unrolled regex; language equality with the {n}-form is checked by
  // the solver in the Fig. 1 tests below.
  EXPECT_EQ(PolicyChecker::compileMatchPattern(M, "####-??" "?-##"),
            parseRegexOrDie(
                M, "\\d\\d\\d\\d-[a-zA-Z][a-zA-Z][a-zA-Z]-\\d\\d"));
  RegexSolver S2{E};
  EXPECT_TRUE(S2.checkEquivalent(
                    PolicyChecker::compileMatchPattern(M, "####-??" "?-##"),
                    parseRegexOrDie(M, "\\d{4}-[a-zA-Z]{3}-\\d{2}"))
                  .isUnsat());
  EXPECT_EQ(PolicyChecker::compileLikePattern(M, "2019*"),
            parseRegexOrDie(M, "2019.*"));
  EXPECT_EQ(PolicyChecker::compileLikePattern(M, "*.log"),
            parseRegexOrDie(M, ".*\\.log"));
  EXPECT_EQ(PolicyChecker::compileMatchPattern(M, ""), M.epsilon());
}

TEST_F(PolicyTest, Figure1PolicyCanFire) {
  // The exact document of Fig. 1.
  const char *Doc = R"({
    "if": {"allOf": [{"field": "date", "match": "####-???-##"},
                     {"anyOf": [{"field": "date", "like": "2019*"},
                                {"field": "date", "like": "2020*"}]}]},
    "then": {"effect": "audit"}})";
  PolicyAnalysis A = Checker.analyze(Doc);
  ASSERT_EQ(A.Status, SolveStatus::Sat);
  EXPECT_EQ(A.Effect, "audit");
  ASSERT_EQ(A.Activation.size(), 1u);
  EXPECT_EQ(A.Activation[0].first, "date");
  // The activating date matches both the shape and a year prefix.
  Re Shape = parseRegexOrDie(M, "\\d{4}-[a-zA-Z]{3}-\\d{2}");
  EXPECT_TRUE(E.matches(Shape, A.Activation[0].second));
  std::string Year = A.Activation[0].second.substr(0, 4);
  EXPECT_TRUE(Year == "2019" || Year == "2020");
}

TEST_F(PolicyTest, Figure1BuggyPolicyNeverFires) {
  // The paper's hypothetical bug: suffix instead of prefix year patterns.
  const char *Doc = R"({
    "if": {"allOf": [{"field": "date", "match": "####-???-##"},
                     {"anyOf": [{"field": "date", "like": "*2019"},
                                {"field": "date", "like": "*2020"}]}]},
    "then": {"effect": "audit"}})";
  PolicyAnalysis A = Checker.analyze(Doc);
  EXPECT_EQ(A.Status, SolveStatus::Unsat); // useless audit rule, detected
}

TEST_F(PolicyTest, MultipleFieldsAreIndependent) {
  const char *Doc = R"({
    "allOf": [{"field": "name", "like": "db-*"},
              {"field": "region", "in": ["eu-west", "eu-north"]},
              {"field": "region", "notEquals": "eu-west"}]})";
  PolicyAnalysis A = Checker.analyze(Doc);
  ASSERT_EQ(A.Status, SolveStatus::Sat);
  std::string Name, Region;
  for (const auto &[F, V] : A.Activation) {
    if (F == "name")
      Name = V;
    if (F == "region")
      Region = V;
  }
  EXPECT_EQ(Name.substr(0, 3), "db-");
  EXPECT_EQ(Region, "eu-north");
}

TEST_F(PolicyTest, NotCombinatorAndContains) {
  const char *Doc = R"({
    "allOf": [{"field": "path", "contains": "secret"},
              {"not": {"field": "path", "like": "/public/*"}}]})";
  PolicyAnalysis A = Checker.analyze(Doc);
  ASSERT_EQ(A.Status, SolveStatus::Sat);
  EXPECT_NE(A.Activation[0].second.find("secret"), std::string::npos);
}

TEST_F(PolicyTest, ContradictoryConditionDetected) {
  const char *Doc = R"({
    "allOf": [{"field": "env", "equals": "prod"},
              {"field": "env", "notEquals": "prod"}]})";
  EXPECT_EQ(Checker.analyze(Doc).Status, SolveStatus::Unsat);
}

TEST_F(PolicyTest, Implication) {
  const char *Strict = R"({"allOf": [
      {"field": "date", "match": "####-???-##"},
      {"field": "date", "like": "2020*"}]})";
  const char *Loose = R"({"allOf": [
      {"field": "date", "match": "####-???-##"},
      {"anyOf": [{"field": "date", "like": "2019*"},
                 {"field": "date", "like": "2020*"}]}]})";
  // Strict ⇒ Loose, but not conversely.
  EXPECT_EQ(Checker.implies(Strict, Loose), SolveStatus::Unsat);
  EXPECT_EQ(Checker.implies(Loose, Strict), SolveStatus::Sat);
}

TEST_F(PolicyTest, UnsupportedReportsCleanly) {
  EXPECT_EQ(Checker.analyze("not json").Status, SolveStatus::Unsupported);
  EXPECT_EQ(Checker.analyze(R"({"field": "x"})").Status,
            SolveStatus::Unsupported); // no operator
  EXPECT_EQ(Checker.analyze(R"({"allOf": "oops"})").Status,
            SolveStatus::Unsupported);
  // Empty combinators have the usual unit semantics.
  EXPECT_EQ(Checker.analyze(R"({"allOf": []})").Status, SolveStatus::Sat);
  EXPECT_EQ(Checker.analyze(R"({"anyOf": []})").Status, SolveStatus::Unsat);
}

} // namespace
