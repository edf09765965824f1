//===- tests/DerivativesTest.cpp - δ / Brzozowski / matcher tests -----------===//

#include "core/Derivatives.h"

#include "re/RegexParser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class DerivTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};

  Re re(const std::string &S) { return parseRegexOrDie(M, S); }
};

TEST_F(DerivTest, LeafRules) {
  EXPECT_EQ(E.derivative(M.empty()), T.bot());
  EXPECT_EQ(E.derivative(M.epsilon()), T.bot());
  // δ(φ) = if(φ, ε, ⊥).
  Tr D = E.derivative(M.pred(CharSet::digit()));
  EXPECT_EQ(D, T.ite(CharSet::digit(), T.leaf(M.epsilon()), T.bot()));
  // δ(.) simplifies to the constant ε (the if-condition is ⊤).
  EXPECT_EQ(E.derivative(M.anyChar()), T.leaf(M.epsilon()));
}

TEST_F(DerivTest, PaperExample45) {
  // Example 4.5: δ(.*01.*) = .*01.* | if(0, 1.*, ⊥) and δ(1.*) = if(1,.*,⊥).
  Re R = re(".*01.*");
  Tr D = E.derivative(R);
  Tr Expected =
      T.union2(T.leaf(R), T.ite(CharSet::singleton('0'), T.leaf(re("1.*")),
                                T.bot()));
  EXPECT_EQ(D, Expected);

  Tr D1 = E.derivative(re("1.*"));
  EXPECT_EQ(D1, T.ite(CharSet::singleton('1'), T.leaf(M.top()), T.bot()));
}

TEST_F(DerivTest, PaperExample51ComplementDnf) {
  // Example 5.1: δdnf(~(.*01.*)) = if(φ0, r & ~(1.*), r) with r = ~(.*01.*).
  Re R01 = re(".*01.*");
  Re R = M.complement(R01);
  Tr Dnf = E.derivativeDnf(R);
  Re R3 = M.inter(R, M.complement(re("1.*")));
  Tr Expected = T.ite(CharSet::singleton('0'), T.leaf(R3), T.leaf(R));
  EXPECT_EQ(Dnf, Expected);

  // ... and δdnf(r & ~(1.*)) ≡ if(φ0, r & ~(1.*), if(φ1, ⊥, r)). The exact
  // conditional nesting order depends on interning order, so check the
  // semantics: Fig. 2d's three-way behaviour.
  Tr Dnf3 = E.derivativeDnf(R3);
  EXPECT_TRUE(T.isDnf(Dnf3));
  EXPECT_EQ(T.apply(Dnf3, '0'), R3);
  EXPECT_EQ(T.apply(Dnf3, '1'), M.empty());
  EXPECT_EQ(T.apply(Dnf3, 'x'), R);
  std::vector<TrArc> Arcs3 = T.arcs(Dnf3);
  ASSERT_EQ(Arcs3.size(), 2u); // the '1' branch goes to ⊥ and is dropped
  for (const TrArc &A : Arcs3) {
    if (A.Target == R3) {
      EXPECT_EQ(A.Guard, CharSet::singleton('0'));
    }
    else {
      EXPECT_EQ(A.Target, R);
      EXPECT_EQ(A.Guard, CharSet::fromRanges({{'0', '1'}}).complement());
    }
  }
}

TEST_F(DerivTest, RunningExampleSection2) {
  // δ(R) for R = (.*\d.*) & ~(.*01.*) is, in DNF,
  // if(φ0, ..., if(φd, ..., ...)) — its arcs must be the three-way split of
  // the Section 2 derivation: on '0': R2&~(1.*) (digit branch subsumed),
  // on other digits: R2' = .*\d.* already satisfied → ~(.*01.*), else R.
  Re R1 = re(".*\\d.*");
  Re R2 = M.complement(re(".*01.*"));
  Re R = M.inter(R1, R2);
  Tr Dnf = E.derivativeDnf(R);
  EXPECT_TRUE(T.isDnf(Dnf));
  // The guard space splits into {0}, digits∖{0} and the rest; union
  // branches may contribute a subsumed extra arc (the paper's 3-way form
  // uses ≡-simplifications beyond the derivation itself).
  std::vector<TrArc> Arcs = T.arcs(Dnf);
  EXPECT_GE(Arcs.size(), 3u);
  EXPECT_LE(Arcs.size(), 4u);

  Re OnZero = T.apply(Dnf, '0');
  EXPECT_EQ(OnZero, M.inter(R2, M.complement(re("1.*"))));
  Re OnDigit = T.apply(Dnf, '7');
  EXPECT_EQ(OnDigit, R2);
  Re OnOther = T.apply(Dnf, 'x');
  EXPECT_EQ(OnOther, R);
}

TEST_F(DerivTest, BrzozowskiBasics) {
  Re Ab = re("ab");
  EXPECT_EQ(E.brzozowski(Ab, 'a'), re("b"));
  EXPECT_EQ(E.brzozowski(Ab, 'b'), M.empty());
  EXPECT_EQ(E.brzozowski(re("a*"), 'a'), re("a*"));
  EXPECT_EQ(E.brzozowski(re("a|b"), 'b'), M.epsilon());
  // δ+ example from Section 7: δ(ab) reached states {b, ε}.
  EXPECT_EQ(E.brzozowski(re("b(ab)*"), 'b'), re("(ab)*"));
}

TEST_F(DerivTest, BrzozowskiThroughComplementAndLoop) {
  Re R = re("~(ab)");
  // D_a(~(ab)) = ~(b); D_x(~(ab)) = ~⊥ = .*.
  EXPECT_EQ(E.brzozowski(R, 'a'), M.complement(re("b")));
  EXPECT_EQ(E.brzozowski(R, 'x'), M.top());

  Re L = re("a{3}");
  EXPECT_EQ(E.brzozowski(L, 'a'), re("a{2}"));
  EXPECT_EQ(E.brzozowski(re("a{2}"), 'a'), re("a"));
  EXPECT_EQ(E.brzozowski(re("a{1,3}"), 'a'), re("a{0,2}"));
  EXPECT_EQ(E.brzozowski(re("a{2,}"), 'a'), re("a{1,}"));
}

TEST_F(DerivTest, MatcherGroundTruth) {
  EXPECT_TRUE(E.matches(re("abc"), "abc"));
  EXPECT_FALSE(E.matches(re("abc"), "ab"));
  EXPECT_FALSE(E.matches(re("abc"), "abcd"));
  EXPECT_TRUE(E.matches(re("a*b"), "aaab"));
  EXPECT_TRUE(E.matches(re("a*b"), "b"));
  EXPECT_TRUE(E.matches(re(".*\\d.*"), "xx7yy"));
  EXPECT_FALSE(E.matches(re(".*\\d.*"), "xxyy"));
  // Extended operators.
  EXPECT_TRUE(E.matches(re("(.*a.*)&(.*b.*)"), "xbya"));
  EXPECT_FALSE(E.matches(re("(.*a.*)&(.*b.*)"), "xya"));
  EXPECT_TRUE(E.matches(re("~(.*01.*)"), "0a1"));
  EXPECT_FALSE(E.matches(re("~(.*01.*)"), "x01y"));
  // The password constraint of Section 2.
  Re Pw = M.inter(re(".*\\d.*"), re("~(.*01.*)"));
  EXPECT_TRUE(E.matches(Pw, "pass9word"));
  EXPECT_FALSE(E.matches(Pw, "password"));  // no digit
  EXPECT_FALSE(E.matches(Pw, "pass01word")); // contains 01
  EXPECT_TRUE(E.matches(Pw, "0"));
}

TEST_F(DerivTest, MatcherLoops) {
  Re Date = re("\\d{4}-[a-zA-Z]{3}-\\d{2}");
  EXPECT_TRUE(E.matches(Date, "2020-Nov-25"));
  EXPECT_FALSE(E.matches(Date, "20-Nov-25"));
  EXPECT_FALSE(E.matches(Date, "2020-N0v-25"));
  EXPECT_FALSE(E.matches(Date, "2020-Nov-256"));
  EXPECT_TRUE(E.matches(re("a{2,4}"), "aa"));
  EXPECT_TRUE(E.matches(re("a{2,4}"), "aaaa"));
  EXPECT_FALSE(E.matches(re("a{2,4}"), "a"));
  EXPECT_FALSE(E.matches(re("a{2,4}"), "aaaaa"));
}

TEST_F(DerivTest, UnicodeMatching) {
  Re R = re("[\\u4E00-\\u9FFF]+");
  EXPECT_TRUE(E.matches(R, std::string("\xE4\xB8\xAD\xE6\x96\x87")));
  EXPECT_FALSE(E.matches(R, "abc"));
  Re Astral = re("\\U{1F600}*");
  EXPECT_TRUE(E.matches(Astral, std::string("\xF0\x9F\x98\x80")));
}

TEST_F(DerivTest, MatchesUnicodeRanges) {
  Re R = re("[\\u4E00-\\u9FFF]+x?");
  EXPECT_TRUE(E.matches(R, std::string("\xE4\xB8\xAD")));
  EXPECT_TRUE(E.matches(R, std::string("\xE4\xB8\xADx")));
  EXPECT_FALSE(E.matches(R, std::string("x")));

  // Over 4,096 non-ASCII code points (three UTF-8 bytes each), matched
  // repeatedly through one engine so its memo stays warm across calls.
  std::string Long;
  for (int I = 0; I != 5000; ++I)
    Long += "\xE4\xB8\xAD";
  std::string Tail = Long + "x";
  std::string Broken = Long.substr(0, 3 * 2500) + "y" + Long.substr(3 * 2500);
  for (int Rep = 0; Rep != 3; ++Rep) {
    EXPECT_TRUE(E.matches(R, Long));
    EXPECT_TRUE(E.matches(R, Tail));
    EXPECT_FALSE(E.matches(R, Broken));
  }
}

TEST_F(DerivTest, MatchesLongAsciiInput) {
  Re R = re("(.*\\d.*)&~(.*01.*)");
  std::string Long;
  while (Long.size() < 5000)
    Long += "xy0z";
  std::string Broken = Long.substr(0, 2500) + "01" + Long.substr(2500);
  for (int Rep = 0; Rep != 3; ++Rep) {
    EXPECT_TRUE(E.matches(R, Long));
    EXPECT_FALSE(E.matches(R, Broken));
  }
}

TEST_F(DerivTest, MatchesIsLazyOnHugeRegex) {
  // Rejecting a short word must not build the reachable derivative space
  // of a 40-deep loop intersection, only the nodes of the two steps taken.
  Re R = re("(.*a.{40})&(.*b.{40})");
  size_t Before = M.numNodes();
  EXPECT_FALSE(E.matches(R, std::string("ab")));
  EXPECT_LE(M.numNodes() - Before, 8u);
}

TEST_F(DerivTest, MatchesReusesMemoAcrossCalls) {
  // (a|b)*abb has four derivative classes over {a,b}: once the first words
  // have visited them, further words intern no new nodes.
  Re R = re("(a|b)*abb");
  EXPECT_TRUE(E.matches(R, std::string("abb")));
  EXPECT_FALSE(E.matches(R, std::string("ab")));
  size_t Nodes = M.numNodes();
  EXPECT_TRUE(E.matches(R, std::string("aabb")));
  EXPECT_TRUE(E.matches(R, std::string("babb")));
  EXPECT_FALSE(E.matches(R, std::string("ababab")));
  EXPECT_EQ(M.numNodes(), Nodes);
#if SBD_OBS
  // A new word over transitions already taken is served from the
  // (re, char) memo alone.
  uint64_t Misses = E.stats().MemoMisses;
  EXPECT_TRUE(E.matches(R, std::string("ababb")));
  EXPECT_EQ(E.stats().MemoMisses, Misses);
#endif // SBD_OBS
}

TEST_F(DerivTest, MatcherRejectsValuesOutsideTheAlphabet) {
  // Revalidated witnesses may come from an untrusted cache.
  EXPECT_TRUE(E.matches(M.top(), std::vector<uint32_t>{'a', MaxCodePoint}));
  EXPECT_FALSE(E.matches(M.top(), std::vector<uint32_t>{MaxCodePoint + 1}));
  EXPECT_FALSE(E.matches(re("~(a)"), std::vector<uint32_t>{'a', 0xFFFFFFFFu}));
}

/// --- Theorem 4.3 property: L(δ(R)(a)) = L(D_a(R)) ------------------------

Re randomRegex(RegexManager &M, Rng &R, int Depth) {
  if (Depth <= 0) {
    switch (R.below(8)) {
    case 0:
      return M.chr(static_cast<uint32_t>('a' + R.below(3)));
    case 1:
      return M.chr(static_cast<uint32_t>('0' + R.below(2)));
    case 2:
      return M.pred(CharSet::digit());
    case 3:
      return M.epsilon();
    case 4:
      // Random multi-range class overlapping the word alphabet.
      return M.pred(CharSet::fromRanges(
          {{static_cast<uint32_t>('a' + R.below(3)),
            static_cast<uint32_t>('c' + R.below(20))},
           {'0', static_cast<uint32_t>('0' + R.below(8))}}));
    case 5:
      // Complemented class (huge set; exercises wide guards).
      return M.pred(CharSet::range('a', static_cast<uint32_t>(
                                            'a' + R.below(26)))
                        .complement());
    case 6:
      // Class with an astral-plane component.
      return M.pred(CharSet::fromRanges({{'z', 'z'}, {0x1F600, 0x1F64F}}));
    default:
      return M.anyChar();
    }
  }
  switch (R.below(8)) {
  case 0:
  case 1:
    return M.concat(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 2:
    return M.union_(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 3:
    return M.inter(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 4:
    return M.star(randomRegex(M, R, Depth - 1));
  case 5:
    return M.complement(randomRegex(M, R, Depth - 1));
  case 6: {
    uint32_t Min = static_cast<uint32_t>(R.below(3));
    uint32_t Max = Min + 1 + static_cast<uint32_t>(R.below(2));
    return M.loop(randomRegex(M, R, Depth - 1), Min, Max);
  }
  default:
    return randomRegex(M, R, 0);
  }
}

std::vector<uint32_t> randomWord(Rng &R, size_t MaxLen) {
  static const uint32_t Alphabet[] = {'a', 'b', 'c', '0', '1', '5', 'z'};
  size_t Len = R.below(MaxLen + 1);
  std::vector<uint32_t> W(Len);
  for (uint32_t &C : W)
    C = Alphabet[R.below(std::size(Alphabet))];
  return W;
}

class Theorem43Test : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Theorem43Test, SymbolicMatchesClassicalBySampling) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  Rng Rand(GetParam());

  for (int I = 0; I != 8; ++I) {
    Re R = randomRegex(M, Rand, 4);
    for (uint32_t Ch : {uint32_t('a'), uint32_t('b'), uint32_t('0'),
                        uint32_t('1'), uint32_t('7'), uint32_t('Q')}) {
      Re Sym = T.apply(E.derivative(R), Ch);
      Re SymDnf = T.apply(E.derivativeDnf(R), Ch);
      Re Classic = E.brzozowski(R, Ch);
      // Language equality by membership sampling (node equality need not
      // hold: distributivity is not an interning law).
      for (int W = 0; W != 12; ++W) {
        std::vector<uint32_t> Word = randomWord(Rand, 5);
        bool InClassic = E.matches(Classic, Word);
        EXPECT_EQ(E.matches(Sym, Word), InClassic)
            << "δ disagrees with Brzozowski on " << M.toString(R);
        EXPECT_EQ(E.matches(SymDnf, Word), InClassic)
            << "δdnf disagrees with Brzozowski on " << M.toString(R);
      }
      // Nullability (the ϵ case) must agree exactly.
      EXPECT_EQ(M.nullable(Sym), M.nullable(Classic));
      EXPECT_EQ(M.nullable(SymDnf), M.nullable(Classic));
    }
  }
}

TEST_P(Theorem43Test, MatcherAgreesWithDerivativeChain) {
  // Matching w = a1…an is nullable(D_an(…D_a1(R))) but also reachable by
  // applying δ step by step; both must agree.
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  Rng Rand(GetParam());

  for (int I = 0; I != 8; ++I) {
    Re R = randomRegex(M, Rand, 4);
    for (int W = 0; W != 10; ++W) {
      std::vector<uint32_t> Word = randomWord(Rand, 6);
      Re ViaSymbolic = R;
      for (uint32_t Ch : Word)
        ViaSymbolic = T.apply(E.derivativeDnf(ViaSymbolic), Ch);
      EXPECT_EQ(M.nullable(ViaSymbolic), E.matches(R, Word))
          << "stepping δdnf disagrees with the matcher on " << M.toString(R);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem43Test,
                         ::testing::Range<uint64_t>(1, 31));

/// --- The (re, char) memo never changes a verdict ---------------------------

class BrzMemoPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BrzMemoPropertyTest, WarmMemoAgreesWithColdMemo) {
  // One engine matches every word of every regex, so its memo is shared
  // across calls; a fresh engine on the same arenas starts each word cold.
  RegexManager M;
  TrManager T(M);
  DerivativeEngine Warm(M, T);
  Rng Rand(GetParam());
  for (int I = 0; I != 6; ++I) {
    Re R = randomRegex(M, Rand, 4);
    for (int W = 0; W != 25; ++W) {
      std::vector<uint32_t> Word = randomWord(Rand, 6);
      DerivativeEngine Cold(M, T);
      EXPECT_EQ(Warm.matches(R, Word), Cold.matches(R, Word))
          << "memoized matching disagrees on " << M.toString(R);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BrzMemoPropertyTest,
                         ::testing::Range<uint64_t>(1, 26));

} // namespace
