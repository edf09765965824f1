//===- tests/RegexTest.cpp - Regex algebra unit + property tests -----------===//

#include "re/Regex.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace sbd;

namespace {

class RegexTest : public ::testing::Test {
protected:
  RegexManager M;
};

TEST_F(RegexTest, DistinguishedTerms) {
  EXPECT_NE(M.empty(), M.epsilon());
  EXPECT_NE(M.empty(), M.top());
  EXPECT_FALSE(M.nullable(M.empty()));
  EXPECT_TRUE(M.nullable(M.epsilon()));
  EXPECT_TRUE(M.nullable(M.top()));
  EXPECT_FALSE(M.nullable(M.anyChar()));
}

TEST_F(RegexTest, HashConsingIdentity) {
  Re A = M.chr('a');
  Re B = M.chr('b');
  EXPECT_EQ(M.concat(A, B), M.concat(A, B));
  EXPECT_EQ(M.union_(A, B), M.union_(B, A)); // commutativity
  EXPECT_EQ(M.union_(A, A), A);              // idempotence
  EXPECT_EQ(M.union_(M.union_(A, B), M.chr('c')),
            M.union_(A, M.union_(B, M.chr('c')))); // associativity
  EXPECT_EQ(M.inter(A, B), M.inter(B, A));
}

TEST_F(RegexTest, ConcatUnitsAndAbsorption) {
  Re A = M.chr('a');
  EXPECT_EQ(M.concat(A, M.epsilon()), A);
  EXPECT_EQ(M.concat(M.epsilon(), A), A);
  EXPECT_EQ(M.concat(A, M.empty()), M.empty());
  EXPECT_EQ(M.concat(M.empty(), A), M.empty());
}

TEST_F(RegexTest, ConcatRightAssociated) {
  Re A = M.chr('a'), B = M.chr('b'), C = M.chr('c');
  Re Left = M.concat(M.concat(A, B), C);
  Re Right = M.concat(A, M.concat(B, C));
  EXPECT_EQ(Left, Right);
  EXPECT_TRUE(M.isNormalized(Left));
  // The left child of every concat node is not itself a concat.
  EXPECT_NE(M.kind(M.node(Left).Kids[0]), RegexKind::Concat);
}

TEST_F(RegexTest, UnionAbsorbersAndUnits) {
  Re A = M.chr('a');
  EXPECT_EQ(M.union_(A, M.empty()), A);         // ⊥ unit
  EXPECT_EQ(M.union_(A, M.top()), M.top());     // .* absorbs
  EXPECT_EQ(M.inter(A, M.top()), A);            // .* unit
  EXPECT_EQ(M.inter(A, M.empty()), M.empty());  // ⊥ absorbs
}

TEST_F(RegexTest, ComplementLaws) {
  Re A = M.chr('a');
  EXPECT_EQ(M.complement(M.complement(A)), A);
  EXPECT_EQ(M.complement(M.empty()), M.top());
  EXPECT_EQ(M.complement(M.top()), M.empty());
  // R | ~R = .*; R & ~R = ⊥.
  EXPECT_EQ(M.union_(A, M.complement(A)), M.top());
  EXPECT_EQ(M.inter(A, M.complement(A)), M.empty());
}

TEST_F(RegexTest, PredicateMerging) {
  // φ | ψ collapses into one predicate through the character algebra.
  Re DigitOrLetter =
      M.union_(M.pred(CharSet::digit()), M.pred(CharSet::asciiLetter()));
  EXPECT_EQ(M.kind(DigitOrLetter), RegexKind::Pred);
  EXPECT_EQ(M.predSet(DigitOrLetter),
            CharSet::digit().unionWith(CharSet::asciiLetter()));
  // Disjoint predicates intersect to ⊥, collapsing the whole conjunction.
  Re DigitAndLetter =
      M.inter(M.pred(CharSet::digit()), M.pred(CharSet::asciiLetter()));
  EXPECT_EQ(DigitAndLetter, M.empty());
}

TEST_F(RegexTest, StarLaws) {
  Re A = M.chr('a');
  EXPECT_EQ(M.star(M.epsilon()), M.epsilon());
  EXPECT_EQ(M.star(M.empty()), M.epsilon());
  EXPECT_EQ(M.star(M.star(A)), M.star(A));
  EXPECT_TRUE(M.nullable(M.star(A)));
  EXPECT_EQ(M.star(M.anyChar()), M.top());
}

TEST_F(RegexTest, LoopNormalization) {
  Re A = M.chr('a');
  EXPECT_EQ(M.loop(A, 0, 0), M.epsilon());
  EXPECT_EQ(M.loop(A, 1, 1), A);
  EXPECT_EQ(M.loop(A, 0, LoopInf), M.star(A));
  EXPECT_EQ(M.loop(M.epsilon(), 3, 7), M.epsilon());
  EXPECT_EQ(M.loop(M.empty(), 2, 4), M.empty());
  EXPECT_EQ(M.loop(M.empty(), 0, 4), M.epsilon());
  // Nullable bodies force the lower bound to 0 (increasing-powers chain).
  Re OptA = M.opt(A);
  Re L = M.loop(OptA, 3, 5);
  EXPECT_EQ(M.node(L).LoopMin, 0u);
  EXPECT_EQ(M.node(L).LoopMax, 5u);
  // (S*){m,n} = S*.
  EXPECT_EQ(M.loop(M.star(A), 2, 9), M.star(A));
}

TEST_F(RegexTest, EpsilonInterRules) {
  Re A = M.chr('a');
  // ε & a = ⊥ (a is not nullable); ε & a* = ε.
  EXPECT_EQ(M.inter(M.epsilon(), A), M.empty());
  EXPECT_EQ(M.inter(M.epsilon(), M.star(A)), M.epsilon());
}

TEST_F(RegexTest, NullabilityComputation) {
  Re A = M.chr('a'), B = M.chr('b');
  EXPECT_FALSE(M.nullable(M.concat(A, B)));
  EXPECT_TRUE(M.nullable(M.concat(M.star(A), M.star(B))));
  EXPECT_TRUE(M.nullable(M.union_(A, M.epsilon())));
  EXPECT_FALSE(M.nullable(M.inter(M.star(A), B)));
  EXPECT_TRUE(M.nullable(M.complement(A)));
  EXPECT_FALSE(M.nullable(M.complement(M.star(A))));
}

TEST_F(RegexTest, MetricsCount) {
  // ♯(R) counts predicate leaves in the syntax tree.
  Re A = M.chr('a'), B = M.chr('b');
  Re R = M.inter(M.concat(M.top(), M.concat(A, M.top())),
                 M.complement(M.concat(M.top(), M.concat(B, M.top()))));
  // .*a.* has 3 preds; ~(.*b.*) has 3; total 6.
  EXPECT_EQ(M.node(R).NumPreds, 6u);
}

TEST_F(RegexTest, StructuralClassPredicates) {
  Re A = M.chr('a'), B = M.chr('b');
  Re Plain = M.concat(M.star(A), M.union_(A, B));
  EXPECT_TRUE(M.isPlainRe(Plain));
  EXPECT_TRUE(M.isBooleanOverRe(Plain));

  Re Bool = M.inter(Plain, M.complement(M.star(B)));
  EXPECT_FALSE(M.isPlainRe(Bool));
  EXPECT_TRUE(M.isBooleanOverRe(Bool));

  // ~ under concat leaves B(RE).
  Re NotBre = M.concat(M.complement(A), B);
  EXPECT_FALSE(M.isBooleanOverRe(NotBre));

  EXPECT_TRUE(M.isClean(Bool));
  EXPECT_FALSE(M.isClean(M.empty()));
}

TEST_F(RegexTest, CollectPredicates) {
  Re R = M.concat(M.pred(CharSet::digit()),
                  M.union_(M.pred(CharSet::digit()), M.chr('x')));
  std::vector<CharSet> Ps = M.collectPredicates(R);
  // \d occurs twice but is collected once; \d|x merged into one class.
  EXPECT_EQ(Ps.size(), 2u);
}

TEST_F(RegexTest, WordAndLiteral) {
  Re W = M.literal("ab");
  EXPECT_EQ(W, M.concat(M.chr('a'), M.chr('b')));
  EXPECT_EQ(M.literal(""), M.epsilon());
}

/// Random regex generator shared by the property suites.
Re randomRegex(RegexManager &M, Rng &R, int Depth) {
  if (Depth <= 0) {
    switch (R.below(4)) {
    case 0:
      return M.chr(static_cast<uint32_t>('a' + R.below(3)));
    case 1:
      return M.pred(CharSet::digit());
    case 2:
      return M.epsilon();
    default:
      return M.anyChar();
    }
  }
  switch (R.below(7)) {
  case 0:
    return M.concat(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 1:
    return M.union_(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 2:
    return M.inter(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 3:
    return M.star(randomRegex(M, R, Depth - 1));
  case 4:
    return M.complement(randomRegex(M, R, Depth - 1));
  case 5: {
    uint32_t Min = static_cast<uint32_t>(R.below(3));
    uint32_t Max = Min + static_cast<uint32_t>(R.below(3));
    if (Max == 0)
      Max = 1;
    return M.loop(randomRegex(M, R, Depth - 1), Min, Max);
  }
  default:
    return randomRegex(M, R, 0);
  }
}

class RegexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RegexPropertyTest, SmartConstructorLawsOnRandomTerms) {
  RegexManager M;
  Rng R(GetParam());
  Re A = randomRegex(M, R, 3);
  Re B = randomRegex(M, R, 3);
  Re C = randomRegex(M, R, 3);

  EXPECT_EQ(M.union_(A, B), M.union_(B, A));
  EXPECT_EQ(M.inter(A, B), M.inter(B, A));
  EXPECT_EQ(M.union_(A, A), A);
  EXPECT_EQ(M.inter(A, A), A);
  EXPECT_EQ(M.union_(M.union_(A, B), C), M.union_(A, M.union_(B, C)));
  EXPECT_EQ(M.inter(M.inter(A, B), C), M.inter(A, M.inter(B, C)));
  EXPECT_EQ(M.complement(M.complement(A)), A);
  EXPECT_EQ(M.concat(M.concat(A, B), C), M.concat(A, M.concat(B, C)));
  EXPECT_EQ(M.union_(A, M.complement(A)), M.top());
  EXPECT_EQ(M.inter(A, M.complement(A)), M.empty());
  EXPECT_TRUE(M.isNormalized(M.concat(M.concat(A, B), C)));
}

TEST_P(RegexPropertyTest, NullabilityMatchesDeMorganOverCompl) {
  RegexManager M;
  Rng R(GetParam());
  Re A = randomRegex(M, R, 3);
  Re B = randomRegex(M, R, 3);
  EXPECT_EQ(M.nullable(M.complement(A)), !M.nullable(A));
  EXPECT_EQ(M.nullable(M.union_(A, B)), M.nullable(A) || M.nullable(B));
  EXPECT_EQ(M.nullable(M.inter(A, B)), M.nullable(A) && M.nullable(B));
  EXPECT_EQ(M.nullable(M.concat(A, B)), M.nullable(A) && M.nullable(B));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexPropertyTest,
                         ::testing::Range<uint64_t>(1, 41));

/// Builds the I-th member of a family of pairwise-distinct regexes through
/// several constructor shapes (stresses every interning path: Pred, Concat,
/// Star, Loop, Union, Inter, Compl).
Re stressRegex(RegexManager &M, uint32_t I) {
  Re Digits = M.literal("k" + std::to_string(I));
  Re Cls = M.pred(CharSet::range('a' + I % 20, 'a' + I % 20 + 5));
  Re Shape;
  switch (I % 4) {
  case 0:
    Shape = M.concat(Digits, M.star(Cls));
    break;
  case 1:
    Shape = M.union_(Digits, M.loop(Cls, 1, 2 + I % 7));
    break;
  case 2:
    Shape = M.inter(M.concat(Cls, Digits), M.top());
    break;
  default:
    Shape = M.concat(M.complement(Digits), Cls);
    break;
  }
  return Shape;
}

TEST(RegexInternStress, HundredThousandDistinctRebuildIsIdentity) {
  // Guards the open-addressing interning table against collision and
  // rehash bugs: 100k structurally distinct regexes, then an identical
  // rebuild pass. Every rebuild must return the identical interned id and
  // the arena must not grow by a single node.
  constexpr uint32_t N = 100000;
  RegexManager M;
  std::vector<Re> First;
  First.reserve(N);
  for (uint32_t I = 0; I != N; ++I)
    First.push_back(stressRegex(M, I));

  // The family is pairwise distinct by construction (distinct literals).
  std::vector<Re> Sorted = First;
  std::sort(Sorted.begin(), Sorted.end(),
            [](Re A, Re B) { return A.Id < B.Id; });
  ASSERT_EQ(std::adjacent_find(Sorted.begin(), Sorted.end()), Sorted.end())
      << "stress family must be pairwise distinct";

  size_t NodesAfterFirst = M.numNodes();
  for (uint32_t I = 0; I != N; ++I)
    ASSERT_EQ(stressRegex(M, I), First[I]) << "rebuild diverged at " << I;
  EXPECT_EQ(M.numNodes(), NodesAfterFirst)
      << "rebuilding equal terms must not intern new nodes";

  // Interning ids are deterministic: a fresh manager fed the same build
  // sequence assigns the same ids.
  RegexManager M2;
  for (uint32_t I = 0; I != N; ++I)
    ASSERT_EQ(stressRegex(M2, I).Id, First[I].Id) << "id drift at " << I;
}

TEST(RegexInternStress, ReserveDoesNotDisturbInterning) {
  RegexManager Plain, Reserved;
  Reserved.reserve(1 << 18);
  for (uint32_t I = 0; I != 5000; ++I)
    ASSERT_EQ(stressRegex(Plain, I).Id, stressRegex(Reserved, I).Id);
  EXPECT_EQ(Plain.numNodes(), Reserved.numNodes());
}

} // namespace
