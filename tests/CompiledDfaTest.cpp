//===- tests/CompiledDfaTest.cpp - Compiled state-major DFA tests -----------===//
//
// Coverage for the compiled serving path (compile/CompiledDfa.h): packed
// table equivalence against DerivativeEngine::derivativeOfWord on a seed
// corpus, promotion-threshold boundaries in CachedMatcher, fallback
// correctness when the compile budget is hopeless, prefilter soundness on
// inputs with and without the required byte, and the audit checker that
// validates packed rows against fresh derivative rows.
//
//===----------------------------------------------------------------------===//

#include "compile/CompiledDfa.h"

#include "core/CachedMatcher.h"
#include "re/RegexParser.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/Unicode.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class CompiledDfaTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};

  Re re(const std::string &Pat) { return parseRegexOrDie(M, Pat); }

  static std::vector<uint32_t> cps(const std::string &Ascii) {
    std::vector<uint32_t> Out;
    for (char C : Ascii)
      Out.push_back(static_cast<uint8_t>(C));
    return Out;
  }
};

/// Hand-picked patterns covering every constructor the compiler must
/// freeze: literals, classes, star, bounded loops, union, intersection,
/// complement, the empty language, and non-ASCII predicates.
const char *const SeedCorpus[] = {
    "a*b",
    "(a|b)*abb",
    "(ab|ba){2}",
    ".*(ab|ba){2}.*\\d.*",
    "(.*\\d.*)&~(.*01.*)",
    "~(a*)",
    "~(.*)",
    "[a-c]{1,3}",
    "a?b?c?",
    "(foo|bar)*",
    "~(.*ab.*)&[a-z]*",
    "[\\u4E00-\\u9FFF]+x?",
};

TEST_F(CompiledDfaTest, TableEquivalenceOnSeedCorpus) {
  // Draw pool: covers every corpus pattern's predicates plus bystanders
  // and a non-ASCII code point (CJK, inside the [一-鿿] class).
  const uint32_t Pool[] = {'a', 'b', 'c', 'd', 'f', 'o', 'r', 'x',
                           '0', '1', '7', 'z', 0x4E2D};
  Rng Rand(99);
  for (const char *Pat : SeedCorpus) {
    Re R = re(Pat);
    std::optional<CompiledDfa> D = CompiledDfa::compile(E, R);
    ASSERT_TRUE(D.has_value()) << Pat;
    EXPECT_EQ(D->auditTable(E), 0u) << Pat;
    for (int I = 0; I != 200; ++I) {
      std::vector<uint32_t> W(Rand.below(13));
      for (uint32_t &C : W)
        C = Pool[Rand.below(sizeof(Pool) / sizeof(Pool[0]))];
      // The specification route: membership is nullability of the word
      // derivative (Theorem 3.2 flavor), computed without any compression.
      bool Want = M.nullable(E.derivativeOfWord(R, W));
      EXPECT_EQ(D->matches(W), Want) << Pat << " on " << toUtf8(W);
      EXPECT_EQ(D->matches(toUtf8(W)), Want) << Pat << " on " << toUtf8(W);
    }
  }
}

TEST_F(CompiledDfaTest, MinimizationMergesNerodeEquivalentStates) {
  // The raw derivative closure of the bench pattern has 20 syntactically
  // distinct states; its minimal DFA has 12. Moore refinement must find
  // exactly that (and thereby put the table inside the single-shuffle
  // Sheng budget), and the merged table must still answer like the
  // specification route — auditTable's pair traversal checks the
  // language-level agreement entry by entry.
  Re R = re(".*(ab|ba){2}.*\\d.*");
  std::optional<CompiledDfa> D = CompiledDfa::compile(E, R);
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->numStates(), 12u);
  EXPECT_TRUE(D->shengEligible());
  EXPECT_EQ(D->auditTable(E), 0u);
  // A language-empty pattern that is not syntactically empty folds into
  // the dead sink entirely.
  std::optional<CompiledDfa> Dead = CompiledDfa::compile(E, re("a&b"));
  ASSERT_TRUE(Dead.has_value());
  EXPECT_EQ(Dead->numStates(), 1u);
  EXPECT_FALSE(Dead->matches(std::string("a")));
}

TEST_F(CompiledDfaTest, EmptyLanguageCompilesToDeadStart) {
  std::optional<CompiledDfa> D = CompiledDfa::compile(E, re("~(.*)"));
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->numStates(), 1u); // just the dead sink, which is the start
  EXPECT_FALSE(D->matches(std::string()));
  EXPECT_FALSE(D->matches(std::string("a")));
}

TEST_F(CompiledDfaTest, BudgetOverflowDeclinesInsteadOfTruncating) {
  // ~2^10 reachable states: a 16-state closure cap must refuse, and so
  // must a byte budget smaller than one row.
  CompiledDfaOptions Small;
  Small.MaxStates = 16;
  EXPECT_FALSE(CompiledDfa::compile(E, re(".*a.{10}"), Small).has_value());
  CompiledDfaOptions Tiny;
  Tiny.MaxTableBytes = 4;
  EXPECT_FALSE(CompiledDfa::compile(E, re("a*b"), Tiny).has_value());
}

TEST_F(CompiledDfaTest, SimdAndScalarKernelsAgree) {
  // A <= 16-state pattern is Sheng-eligible: on SSSE3/NEON hosts
  // matches(string) runs the shuffle kernel while matches(word) is always
  // the scalar walk — the two must agree everywhere, including long
  // inputs (block boundaries) and embedded non-ASCII bytes. The {3}
  // variant minimizes to 22 states and rides along to cross-check the
  // split-shuffle wide kernel against the word walk the same way.
  std::optional<CompiledDfa> Small = CompiledDfa::compile(E, re("(a|b)*abb"));
  std::optional<CompiledDfa> Wide =
      CompiledDfa::compile(E, re(".*(ab|ba){3}.*\\d.*"));
  ASSERT_TRUE(Small && Wide);
  EXPECT_TRUE(Small->shengEligible());
  EXPECT_FALSE(Wide->shengEligible());
  EXPECT_TRUE(Wide->shengWideEligible()); // 22 states: split-shuffle kernel
  const uint32_t Pool[] = {'a', 'b', 'x', '7', 0xE9, 0x4E2D};
  Rng Rand(5);
  for (int I = 0; I != 200; ++I) {
    std::vector<uint32_t> W(Rand.below(200));
    for (uint32_t &C : W)
      C = Pool[Rand.below(sizeof(Pool) / sizeof(Pool[0]))];
    EXPECT_EQ(Small->matches(toUtf8(W)), Small->matches(W)) << toUtf8(W);
    EXPECT_EQ(Wide->matches(toUtf8(W)), Wide->matches(W)) << toUtf8(W);
  }
}

TEST_F(CompiledDfaTest, PrefilterSoundness) {
  // Every state of .*z\d except the post-z ones self-loops on all ASCII
  // but 'z', so the scanner skims. Verdicts must be identical with the
  // prefilter on and off, with and without the required byte present.
  Re R = re(".*z\\d");
  CompiledDfaOptions On, Off;
  Off.EnablePrefilter = false;
  std::optional<CompiledDfa> DOn = CompiledDfa::compile(E, R, On);
  std::optional<CompiledDfa> DOff = CompiledDfa::compile(E, R, Off);
  ASSERT_TRUE(DOn && DOff);

  std::string NoZ(300, 'a');
  std::string LateZ = NoZ + "z7";
  std::string EarlyZ = "z7" + NoZ;
  std::string MultiZ = "zz" + NoZ + "z9";
  std::string NonAscii = "\xC3\xA9" + NoZ + "z3"; // é then the hit
  for (const std::string &S : {NoZ, LateZ, EarlyZ, MultiZ, NonAscii}) {
    bool Want = E.matches(R, S);
    EXPECT_EQ(DOn->matches(S), Want) << S.substr(0, 8);
    EXPECT_EQ(DOff->matches(S), Want) << S.substr(0, 8);
  }
#if SBD_OBS
  // The skim must actually engage: a long no-hit input is mostly skipped.
  obs::MetricShard Before = obs::MetricsRegistry::global().snapshot();
  (void)DOn->matches(NoZ);
  obs::MetricShard After = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(After.since(Before).get(obs::Counter::CompiledPrefilterSkips),
            200u);
#endif
}

TEST_F(CompiledDfaTest, PromotionThresholdBoundary) {
  CachedMatcher::Options O;
  O.PromoteAfterChars = 10;
  CachedMatcher Mt(E, re("a*b"), O);
  EXPECT_TRUE(Mt.matches(std::string("aaab"))); // 4 chars fed
  EXPECT_FALSE(Mt.matches(std::string("aaaaa"))); // 9 chars fed
  EXPECT_FALSE(Mt.promoted());
  // The call that reaches the threshold is already served compiled.
  EXPECT_TRUE(Mt.matches(std::string("b"))); // 10 chars fed
  EXPECT_TRUE(Mt.promoted());
  ASSERT_NE(Mt.compiled(), nullptr);
  EXPECT_EQ(Mt.compiled()->auditTable(E), 0u);
  // Verdicts are unchanged after the swap.
  EXPECT_TRUE(Mt.matches(std::string("aab")));
  EXPECT_FALSE(Mt.matches(std::string("ba")));
}

TEST_F(CompiledDfaTest, PromotionDisabledAtZero) {
  CachedMatcher::Options O;
  O.PromoteAfterChars = 0;
  CachedMatcher Mt(E, re("a*b"), O);
  for (int I = 0; I != 64; ++I)
    (void)Mt.matches(std::string("aaaaaaaaaaaaaaab"));
  EXPECT_FALSE(Mt.promoted());
}

TEST_F(CompiledDfaTest, FallbackOnHopelessBudgetStaysLazyAndCorrect) {
  // Promotion fires on the first word but the compile budget cannot hold
  // the ~2^10-state closure: the matcher must take the fallback path once,
  // keep the bounded lazy cache (including eviction under the tiny cap),
  // and stay bit-identical to the uncompressed engine.
  Re R = re(".*a.{10}");
  CachedMatcher::Options O;
  O.MaxStates = 48;
  O.PromoteAfterChars = 1;
  O.CompileMaxStates = 16;
  CachedMatcher Mt(E, R, O);

  Rng Rand(21);
  for (int I = 0; I != 120; ++I) {
    std::vector<uint32_t> W(Rand.below(24));
    for (uint32_t &C : W)
      C = Rand.below(2) ? 'a' : 'x';
    EXPECT_EQ(Mt.matches(W), E.matches(R, W));
  }
  EXPECT_FALSE(Mt.promoted());
  EXPECT_GT(Mt.evictions(), 0u); // the lazy path kept evicting as before
}

#if SBD_OBS
TEST_F(CompiledDfaTest, PromotionAndFallbackCounters) {
  obs::MetricShard Before = obs::MetricsRegistry::global().snapshot();
  {
    CachedMatcher::Options O;
    O.PromoteAfterChars = 1;
    CachedMatcher Mt(E, re("a*b"), O);
    (void)Mt.matches(std::string("ab"));
    EXPECT_TRUE(Mt.promoted());

    CachedMatcher::Options F;
    F.PromoteAfterChars = 1;
    F.CompileMaxStates = 2;
    CachedMatcher Fb(E, re(".*a.{10}"), F);
    (void)Fb.matches(std::string("xaxxxxxxxxxx"));
    EXPECT_FALSE(Fb.promoted());
  }
  obs::MetricShard D = obs::MetricsRegistry::global().snapshot().since(Before);
  EXPECT_GE(D.get(obs::Counter::CompiledPromotions), 1u);
  EXPECT_GE(D.get(obs::Counter::CompiledFallbacks), 1u);
  EXPECT_GT(D.get(obs::Counter::CompiledCharsScanned), 0u);
}
#endif

TEST_F(CompiledDfaTest, AuditDetectsCorruptedEntry) {
  // Mirrors CachedMatcherTest.AuditDetectsCorruptedRow: a healthy table
  // audits clean; repointing the start state's row at itself must be
  // flagged by the independent δdnf re-derivation. (State id 1 is always
  // the pattern for a nonempty language — id 0 is the dead sink.)
  std::optional<CompiledDfa> D = CompiledDfa::compile(E, re("(a|b)*abb"));
  ASSERT_TRUE(D.has_value());
  ASSERT_EQ(D->auditTable(E), 0u);
  for (uint16_t C = 0; C != D->numClasses(); ++C)
    D->corruptEntryForTest(1, C, 1);
  EXPECT_GT(D->auditTable(E), 0u);
}

} // namespace
