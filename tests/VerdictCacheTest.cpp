//===- tests/VerdictCacheTest.cpp - Cross-query verdict cache tests ----------===//
///
/// \file
/// Unit and integration tests for the canonical verdict cache (DESIGN.md
/// §15): key canonicality (print → reparse round-trip), bounded capacity
/// with least-recently-hit eviction, JSONL persistence, and — through the
/// portfolio — the untrusted-cache revalidation contract: a poisoned Sat
/// witness must surface as a hard error, never a silent re-solve.
///
//===----------------------------------------------------------------------===//

#include "cache/VerdictCache.h"

#include "core/Derivatives.h"
#include "fuzz/Generator.h"
#include "portfolio/Portfolio.h"
#include "re/RegexParser.h"
#include "support/Metrics.h"
#include "support/Unicode.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

using namespace sbd;
using namespace sbd::cache;

namespace {

class VerdictCacheTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};

  Re parse(const std::string &P) { return parseRegexOrDie(M, P); }

  std::string key(const std::string &P, const SolveOptions &Opts = {}) {
    return canonicalVerdictKey(M, parse(P), Opts);
  }
};

TEST_F(VerdictCacheTest, LookupMissThenInsertThenHit) {
  VerdictCache C(VerdictCache::Config{64});
  std::string K = key("ab*c");
  EXPECT_FALSE(C.lookup(K).has_value());
  C.insert(K, {true, {'a', 'c'}});
  auto Hit = C.lookup(K);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_TRUE(Hit->Sat);
  EXPECT_EQ(Hit->Witness, (std::vector<uint32_t>{'a', 'c'}));
  VerdictCacheCounters N = C.counters();
  EXPECT_EQ(N.Hits, 1u);
  EXPECT_EQ(N.Misses, 1u);
  EXPECT_EQ(N.Inserts, 1u);
  EXPECT_EQ(N.Size, 1u);
  EXPECT_DOUBLE_EQ(N.hitRate(), 0.5);
}

TEST_F(VerdictCacheTest, EmptyKeysAreRejected) {
  VerdictCache C;
  C.insert("", {false, {}});
  EXPECT_EQ(C.size(), 0u);
  EXPECT_FALSE(C.lookup("").has_value());
}

/// The key law behind cross-arena sharing: printing the hash-consed term
/// and reparsing it into a *fresh* arena must produce the identical key —
/// canonical prints, not arena pointers, are the cache identity.
TEST_F(VerdictCacheTest, KeyRoundTripsThroughPrintAndReparse) {
  const char *Patterns[] = {
      "ab*c",
      "(a|b)&~(c)",
      "~((ab)*)&[a-z]{2,5}",
      "(a|())(b|c)*&~(d?)",
  };
  for (const char *P : Patterns) {
    Re R = parse(P);
    SolveOptions Opts;
    Opts.MaxStates = 123;
    std::string K1 = canonicalVerdictKey(M, R, Opts);
    ASSERT_FALSE(K1.empty());

    RegexManager M2;
    Re R2 = parseRegexOrDie(M2, M.toString(R));
    std::string K2 = canonicalVerdictKey(M2, R2, Opts);
    EXPECT_EQ(K1, K2) << "key not canonical across arenas for " << P;
  }
}

/// Cross-arena identity must not depend on what an arena interned before:
/// operand order is structural, so a term keys the same in a fresh arena
/// and in one that has seen other terms (here `xyz` first, which used to
/// flip the union to `(xyz|zq)`, then every earlier generated sample).
TEST_F(VerdictCacheTest, KeyIsIndependentOfArenaHistory) {
  std::vector<std::string> Patterns = {"(zq|xyz)&~(.*k)"};
  RegexManager GenM;
  fuzz::RegexGenerator Gen(GenM, 77);
  for (int I = 0; I != 100; ++I)
    Patterns.push_back(GenM.toString(Gen.generate()));
  RegexManager Warm;
  parseRegexOrDie(Warm, "xyz");
  SolveOptions Opts;
  for (const std::string &P : Patterns) {
    RegexManager Fresh;
    std::string Want =
        canonicalVerdictKey(Fresh, parseRegexOrDie(Fresh, P), Opts);
    std::string Got = canonicalVerdictKey(Warm, parseRegexOrDie(Warm, P), Opts);
    ASSERT_FALSE(Want.empty()) << P;
    EXPECT_EQ(Want, Got) << P;
  }
}

TEST_F(VerdictCacheTest, KeyIncludesBudgetAndStrategyButNotDeadline) {
  Re R = parse("a*b");
  SolveOptions A;
  SolveOptions B;
  B.TimeoutMs = 5000; // deadline must NOT split the key space
  EXPECT_EQ(canonicalVerdictKey(M, R, A), canonicalVerdictKey(M, R, B));

  SolveOptions C;
  C.MaxStates = 7; // a tighter state budget can change the verdict
  EXPECT_NE(canonicalVerdictKey(M, R, A), canonicalVerdictKey(M, R, C));

  SolveOptions D;
  D.Strategy = SearchStrategy::Dfs; // DFS finds different witnesses
  EXPECT_NE(canonicalVerdictKey(M, R, A), canonicalVerdictKey(M, R, D));
}

TEST_F(VerdictCacheTest, OversizedKeysAreSkipped) {
  Re R = parse("(abcdefghij){3}");
  EXPECT_TRUE(canonicalVerdictKey(M, R, SolveOptions{}, 8).empty());
  EXPECT_FALSE(canonicalVerdictKey(M, R, SolveOptions{}).empty());
}

TEST_F(VerdictCacheTest, InsertOverwritesExistingEntry) {
  VerdictCache C;
  std::string K = key("a|b");
  C.insert(K, {true, {'a'}});
  C.insert(K, {true, {'b'}});
  EXPECT_EQ(C.size(), 1u);
  auto Hit = C.lookup(K);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Witness, (std::vector<uint32_t>{'b'}));
}

/// Capacity is bounded and overflow evicts the least-recently-hit entry of
/// the full shard: a just-probed entry must survive an insert storm that
/// evicts its never-probed siblings.
TEST_F(VerdictCacheTest, EvictionIsBoundedAndLeastRecentlyHit) {
  // Capacity 64 with 16 shards → four entries per shard: small enough to
  // force evictions quickly, large enough that recency can protect an
  // entry from its shard-mates.
  VerdictCache C(VerdictCache::Config{64});
  std::vector<std::string> Keys;
  for (int I = 0; I < 512; ++I)
    Keys.push_back("k" + std::to_string(I) + "|synthetic");
  for (const auto &K : Keys)
    C.insert(K, {false, {}});
  EXPECT_LE(C.size(), 64u);
  VerdictCacheCounters N = C.counters();
  EXPECT_EQ(N.Inserts, Keys.size());
  EXPECT_GE(N.Evictions, Keys.size() - 64);

  // Recency: hit one survivor, then hammer its shard with fresh keys. The
  // probed entry must outlive entries that were never hit.
  std::string Survivor;
  for (const auto &K : Keys)
    if (C.lookup(K).has_value()) {
      Survivor = K;
      break;
    }
  ASSERT_FALSE(Survivor.empty());
  size_t Evicted = 0;
  for (int I = 0; I < 512 && Evicted < 64; ++I) {
    std::string Fresh = "fresh" + std::to_string(I);
    C.insert(Fresh, {false, {}});
    if (C.counters().Evictions > N.Evictions + Evicted)
      ++Evicted;
    // Keep the survivor's recency ahead of the insert ticks.
    ASSERT_TRUE(C.lookup(Survivor).has_value())
        << "least-recently-hit eviction removed the most-recently-hit entry";
  }
  EXPECT_GT(Evicted, 0u);
}

TEST_F(VerdictCacheTest, ClearDropsEntriesButKeepsCounters) {
  VerdictCache C;
  C.insert(key("a"), {true, {'a'}});
  C.insert(key("b"), {true, {'b'}});
  ASSERT_EQ(C.size(), 2u);
  C.clear();
  EXPECT_EQ(C.size(), 0u);
  EXPECT_EQ(C.counters().Inserts, 2u);
  EXPECT_FALSE(C.lookup(key("a")).has_value());
}

TEST_F(VerdictCacheTest, JsonlSaveLoadRoundTrip) {
  std::string Path =
      ::testing::TempDir() + "/verdict_cache_roundtrip.jsonl";
  VerdictCache C;
  // Keys with JSON-hostile characters: quotes, backslashes, newlines.
  std::string Tricky = "pat\"quote\\back\nline\ttab";
  C.insert(key("ab*c"), {true, {'a', 'c'}});
  C.insert(key("~(a)&b"), {false, {}});
  C.insert(Tricky, {true, {0x10FFFF, 0, 'x'}});
  ASSERT_TRUE(C.save(Path));

  VerdictCache D;
  EXPECT_EQ(D.load(Path), 3);
  EXPECT_EQ(D.size(), 3u);
  auto Sat = D.lookup(key("ab*c"));
  ASSERT_TRUE(Sat.has_value());
  EXPECT_TRUE(Sat->Sat);
  EXPECT_EQ(Sat->Witness, (std::vector<uint32_t>{'a', 'c'}));
  auto Unsat = D.lookup(key("~(a)&b"));
  ASSERT_TRUE(Unsat.has_value());
  EXPECT_FALSE(Unsat->Sat);
  auto T = D.lookup(Tricky);
  ASSERT_TRUE(T.has_value());
  EXPECT_EQ(T->Witness, (std::vector<uint32_t>{0x10FFFF, 0, 'x'}));
  std::remove(Path.c_str());
}

TEST_F(VerdictCacheTest, LoadSkipsMalformedLinesAndMissingFileIsAnError) {
  std::string Path = ::testing::TempDir() + "/verdict_cache_malformed.jsonl";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "{\"key\": \"good\", \"status\": \"unsat\"}\n"
        << "not json at all\n"
        << "{\"key\": \"half\n"
        << "{\"key\": \"good2\", \"status\": \"sat\", \"witness\": [97, 98]}\n";
  }
  VerdictCache C;
  EXPECT_EQ(C.load(Path), 2);
  EXPECT_TRUE(C.lookup("good").has_value());
  ASSERT_TRUE(C.lookup("good2").has_value());
  EXPECT_EQ(C.lookup("good2")->Witness, (std::vector<uint32_t>{97, 98}));
  std::remove(Path.c_str());

  EXPECT_EQ(C.load(::testing::TempDir() + "/definitely_missing.jsonl"), -1);
}

/// A witness element that is no code point (too large, overflowing, or
/// fractional) marks a corrupt line: it is skipped, never wrapped into a
/// different character.
TEST_F(VerdictCacheTest, LoadSkipsOutOfRangeWitnessValues) {
  std::string Path = ::testing::TempDir() + "/verdict_cache_range.jsonl";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << "{\"key\": \"wraps\", \"status\": \"sat\", "
           "\"witness\": [4294967393]}\n"
        << "{\"key\": \"overflows\", \"status\": \"sat\", "
           "\"witness\": [97, 123456789012345678901]}\n"
        << "{\"key\": \"above\", \"status\": \"sat\", "
           "\"witness\": [1114112]}\n"
        << "{\"key\": \"negative\", \"status\": \"sat\", "
           "\"witness\": [-1]}\n"
        << "{\"key\": \"fraction\", \"status\": \"sat\", "
           "\"witness\": [97.5]}\n"
        << "{\"key\": \"top\", \"status\": \"sat\", "
           "\"witness\": [1114111, 0]}\n";
  }
  VerdictCache C;
  EXPECT_EQ(C.load(Path), 1);
  EXPECT_EQ(C.size(), 1u);
  ASSERT_TRUE(C.lookup("top").has_value());
  EXPECT_EQ(C.lookup("top")->Witness,
            (std::vector<uint32_t>{MaxCodePoint, 0}));
  for (const char *Bad : {"wraps", "overflows", "above", "negative",
                          "fraction"})
    EXPECT_FALSE(C.lookup(Bad).has_value()) << Bad;
  std::remove(Path.c_str());
}

/// save → load → save reproduces the snapshot byte for byte, including
/// keys with quotes, backslashes and every control byte.
TEST_F(VerdictCacheTest, SaveLoadSaveIsByteIdentical) {
  std::string First = ::testing::TempDir() + "/verdict_cache_first.jsonl";
  std::string Second = ::testing::TempDir() + "/verdict_cache_second.jsonl";
  VerdictCache C;
  std::string Controls;
  for (char Ch = 1; Ch != 0x20; ++Ch)
    Controls += Ch;
  C.insert(key("ab*c"), {true, {'a', 'c'}});
  C.insert(key("~(a)&b"), {false, {}});
  C.insert("q\"uo\\te\x7f\u00e9", {true, {0xE9, MaxCodePoint}});
  C.insert(Controls, {true, {}});
  ASSERT_TRUE(C.save(First));

  VerdictCache D;
  EXPECT_EQ(D.load(First), 4);
  ASSERT_TRUE(D.save(Second));
  auto slurp = [](const std::string &Path) {
    std::ifstream In(Path);
    return std::string(std::istreambuf_iterator<char>(In), {});
  };
  EXPECT_FALSE(slurp(First).empty());
  EXPECT_EQ(slurp(First), slurp(Second));
  std::remove(First.c_str());
  std::remove(Second.c_str());
}

/// Portfolio integration: the second identical query is answered from the
/// cache (engine tag VerdictCache), with the identical verdict and witness.
TEST_F(VerdictCacheTest, PortfolioServesWarmHitWithIdenticalVerdict) {
  VerdictCache C;
  portfolio::PortfolioSolver P(Solver);
  P.setVerdictCache(&C);
  Re R = parse("(ab|cd)*ef&~(x)");

  SolveResult Cold = P.checkSat(R);
  ASSERT_EQ(Cold.Status, SolveStatus::Sat);
  EXPECT_NE(Cold.Stats.Engine, SolveEngine::VerdictCache);
  EXPECT_EQ(C.counters().Inserts, 1u);

  SolveResult Warm = P.checkSat(R);
  EXPECT_EQ(Warm.Status, SolveStatus::Sat);
  EXPECT_EQ(Warm.Witness, Cold.Witness);
  EXPECT_EQ(Warm.Stats.Engine, SolveEngine::VerdictCache);
  EXPECT_EQ(C.counters().Hits, 1u);
}

TEST_F(VerdictCacheTest, UnsatVerdictsAreCachedToo) {
  VerdictCache C;
  portfolio::PortfolioSolver P(Solver);
  P.setVerdictCache(&C);
  Re R = parse("a&b"); // distinct singletons: provably empty
  ASSERT_EQ(P.checkSat(R).Status, SolveStatus::Unsat);
  SolveResult Warm = P.checkSat(R);
  EXPECT_EQ(Warm.Status, SolveStatus::Unsat);
  EXPECT_EQ(Warm.Stats.Engine, SolveEngine::VerdictCache);
}

/// The negative test of the trust model: hand-corrupt the cached witness
/// and prove the revalidation layer catches it as a HARD error — verdict
/// Unknown with CacheRevalidationFailed, audit counters bumped, poisoned
/// entry dropped — and never silently re-solves.
TEST_F(VerdictCacheTest, CorruptedWitnessIsAHardErrorNeverASilentResolve) {
  VerdictCache C;
  portfolio::PortfolioSolver P(Solver);
  P.setVerdictCache(&C);
  Re R = parse("ab*c");
  ASSERT_EQ(P.checkSat(R).Status, SolveStatus::Sat);

  std::string K = canonicalVerdictKey(M, R, SolveOptions{});
  ASSERT_TRUE(C.corruptWitnessForTest(K));

  uint64_t AuditBefore = obs::MetricsRegistry::global().snapshot().get(
      obs::Counter::AuditViolations);
  SolveResult Hit = P.checkSat(R);
  EXPECT_EQ(Hit.Status, SolveStatus::Unknown);
  EXPECT_EQ(Hit.Stop, StopReason::CacheRevalidationFailed);
  EXPECT_NE(Hit.Note.find("revalidation"), std::string::npos);
  EXPECT_EQ(C.counters().RevalidationFailures, 1u);
  EXPECT_EQ(obs::MetricsRegistry::global().snapshot().get(
                obs::Counter::AuditViolations),
            AuditBefore + 1);

  // The poisoned entry is gone: the next query re-solves cold and repairs
  // the cache with a genuine witness.
  SolveResult Repaired = P.checkSat(R);
  EXPECT_EQ(Repaired.Status, SolveStatus::Sat);
  EXPECT_NE(Repaired.Stats.Engine, SolveEngine::VerdictCache);
  SolveResult Warm = P.checkSat(R);
  EXPECT_EQ(Warm.Stats.Engine, SolveEngine::VerdictCache);
  EXPECT_EQ(Warm.Witness, Repaired.Witness);
}

/// Cache verdicts must be identical to direct solves — the acceptance
/// criterion "zero verdict differences cached-vs-direct" in miniature.
TEST_F(VerdictCacheTest, CachedVerdictsMatchDirectSolves) {
  const char *Patterns[] = {
      "ab*c",       "a&b",           "~(a*)&a{3}",  "(a|b)*&~(.*bb.*)",
      "[a-c]{2,4}", "~(())&(x|y)?",  "(ab)*&(ba)*", "a?b?c?&~(abc)",
  };
  VerdictCache C;
  portfolio::PortfolioSolver Cached(Solver);
  Cached.setVerdictCache(&C);
  portfolio::PortfolioSolver Direct(Solver);
  for (const char *P : Patterns) {
    Re R = parse(P);
    SolveResult D = Direct.checkSat(R);
    SolveResult Cold = Cached.checkSat(R);
    SolveResult Warm = Cached.checkSat(R);
    EXPECT_EQ(Cold.Status, D.Status) << P;
    EXPECT_EQ(Warm.Status, D.Status) << P;
    EXPECT_EQ(Warm.Witness, Cold.Witness) << P;
    if (Cold.Status == SolveStatus::Sat || Cold.Status == SolveStatus::Unsat) {
      EXPECT_EQ(Warm.Stats.Engine, SolveEngine::VerdictCache) << P;
    }
  }
}

} // namespace
