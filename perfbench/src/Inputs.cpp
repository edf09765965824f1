//===- perfbench/Inputs.cpp - Seeded workload inputs ------------------------===//

#include "Inputs.h"

#include "Workloads.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace perfbench;

namespace {

/// splitmix64: the benchmark's own generator, so its inputs do not move
/// when the program's RNG does.
class Rand {
public:
  explicit Rand(uint64_t Seed) : State(Seed ^ 0x5eedbe9c4c0ffee1ULL) {}
  uint64_t next() {
    State += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = State;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t Bound) { return next() % Bound; }
  uint64_t range(uint64_t Lo, uint64_t Hi) { return Lo + below(Hi - Lo + 1); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

private:
  uint64_t State;
};

Query fromInstance(const sbd::BenchInstance &I) {
  Query Q;
  Q.Pattern = I.Pattern;
  Q.Family = I.Family;
  if (I.ExpectedSat) {
    Q.Expected = *I.ExpectedSat ? Label::Sat : Label::Unsat;
    Q.LabelledByConstruction = true;
  }
  return Q;
}

void append(std::vector<Query> &Out,
            const std::vector<sbd::BenchSuite> &Suites) {
  for (const sbd::BenchSuite &S : Suites)
    for (const sbd::BenchInstance &I : S.Instances)
      Out.push_back(fromInstance(I));
}

Query constructed(std::string Pattern, std::string Family, bool Sat) {
  Query Q;
  Q.Pattern = std::move(Pattern);
  Q.Family = std::move(Family);
  Q.Expected = Sat ? Label::Sat : Label::Unsat;
  Q.LabelledByConstruction = true;
  return Q;
}

} // namespace

bool perfbench::parseWorkload(const std::string &Name, Workload &Out) {
  for (Workload W : {Workload::CorpusBatch, Workload::HardBoolean,
                     Workload::SessionReplay, Workload::CorpusDist})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

const char *perfbench::workloadName(Workload W) {
  switch (W) {
  case Workload::CorpusBatch:
    return "corpus_batch";
  case Workload::HardBoolean:
    return "hard_boolean";
  case Workload::SessionReplay:
    return "session_replay";
  case Workload::CorpusDist:
    return "corpus_dist";
  }
  return "?";
}

std::vector<Query> perfbench::corpusQueries(uint64_t Seed) {
  constexpr double Scale = 5.0;
  std::vector<Query> Out;
  append(Out, sbd::nonBooleanSuites(Scale, Seed));
  append(Out, sbd::booleanSuites(Scale, Seed));
  append(Out, sbd::handwrittenSuites());
  return Out;
}

std::vector<Query> perfbench::hardQueries(uint64_t Seed) {
  std::vector<Query> Out;
  append(Out, {sbd::makeDateFamily(), sbd::makePasswordFamily(),
               sbd::makeBooleanLoopsFamily(),
               sbd::makeDeterminizationBlowupFamily()});

  // The three bench_scaling families. The seed only renames the k letters,
  // so every seed has the same k profile and hence the same cost shape.
  // Each (family, k) gets a fixed number of variants. The unsat
  // length-window family at k=8 is the slowest group (about 27 ms each on
  // a 2020s x86 core, against at most 17 ms for any other query); at 24 of
  // the 185 queries it holds the p90 tail well inside the group.
  // Complements stop at k=5 and containment at k=9 so that they stay
  // below it.
  struct Shape {
    const char *Family;
    uint32_t MinK, MaxK, Variants;
  };
  static const Shape Shapes[] = {{"scaling-contain", 2, 9, 4},
                                 {"scaling-complement", 2, 5, 4},
                                 {kLenWindowFamily, 2, 7, 4},
                                 {kLenWindowFamily, 8, 8, 24}};
  Rand R(Seed);
  for (const Shape &S : Shapes)
    for (uint32_t K = S.MinK; K <= S.MaxK; ++K)
      for (uint32_t V = 0; V != S.Variants; ++V) {
        std::string Cs = "abcdefghijklmnopqrstuvwxyz";
        for (size_t I = Cs.size() - 1; I > 0; --I)
          std::swap(Cs[I], Cs[R.below(I + 1)]);
        Cs.resize(K);
        std::string P;
        for (char C : Cs)
          P += std::string(P.empty() ? "" : "&") + "(.*" + C + ".*)";
        std::string Family = S.Family;
        if (Family == "scaling-complement")
          for (char C : Cs)
            P += std::string("&~(.*") + C + C + ".*)";
        // k distinct letters cannot fit in k-1 positions.
        bool Window = Family == kLenWindowFamily;
        if (Window)
          P += "&.{0," + std::to_string(K - 1) + "}";
        Out.push_back(constructed(P, Family, !Window));
      }
  return Out;
}

namespace {

/// One membership atom: its SMT-LIB regex term and the equivalent
/// surface-syntax regex.
struct Atom {
  std::string Smt;
  std::string Ere;
};

std::string literal(Rand &R, size_t MinLen, size_t MaxLen,
                    const std::string &Alphabet) {
  std::string Out;
  for (size_t I = 0, N = R.range(MinLen, MaxLen); I != N; ++I)
    Out.push_back(Alphabet[R.below(Alphabet.size())]);
  return Out;
}

Atom randomAtom(Rand &R, const std::string &Alphabet) {
  const std::string Any = "(re.* re.allchar)";
  switch (R.below(6)) {
  case 0: {
    std::string L = literal(R, 1, 3, Alphabet);
    return {"(re.++ " + Any + " (str.to_re \"" + L + "\") " + Any + ")",
            ".*" + L + ".*"};
  }
  case 1: {
    std::string L = literal(R, 1, 3, Alphabet);
    return {"(re.++ (str.to_re \"" + L + "\") " + Any + ")", L + ".*"};
  }
  case 2: {
    std::string L = literal(R, 1, 3, Alphabet);
    return {"(re.++ " + Any + " (str.to_re \"" + L + "\"))", ".*" + L};
  }
  case 3: {
    // [a-c] or [a-d]: every renaming of a, b, c leaves the class as is.
    char Hi = static_cast<char>('a' + R.range(2, 3));
    return {std::string("(re.* (re.range \"a\" \"") + Hi + "\"))",
            std::string("[a-") + Hi + "]*"};
  }
  case 4: {
    uint64_t Lo = R.range(1, 3), Hi = Lo + R.range(0, 3);
    std::string Bounds = std::to_string(Lo) + " " + std::to_string(Hi);
    return {"((_ re.loop " + Bounds + ") (re.range \"0\" \"9\"))",
            "[0-9]{" + std::to_string(Lo) + "," + std::to_string(Hi) + "}"};
  }
  default: {
    std::string A = literal(R, 1, 2, Alphabet),
                B = literal(R, 1, 3, Alphabet);
    return {"(re.+ (re.union (str.to_re \"" + A + "\") (str.to_re \"" + B +
                "\")))",
            "(" + A + "|" + B + ")+"};
  }
  }
}

/// A Boolean formula over membership atoms of x, in both syntaxes.
struct Formula {
  std::string Smt;
  std::string Ere;
};

Formula membership(const Atom &A) {
  return {"(str.in_re x " + A.Smt + ")", "(" + A.Ere + ")"};
}

Formula negate(const Formula &F) {
  return {"(not " + F.Smt + ")", "~(" + F.Ere + ")"};
}

Formula combine(const char *SmtOp, const char *EreOp, const Formula &A,
                const Formula &B) {
  return {std::string("(") + SmtOp + " " + A.Smt + " " + B.Smt + ")",
          "(" + A.Ere + ")" + EreOp + "(" + B.Ere + ")"};
}

/// 1-3 atoms under and/or/not.
Formula randomFormula(Rand &R, uint32_t Atoms, const std::string &Alphabet) {
  Formula F = membership(randomAtom(R, Alphabet));
  if (R.below(3) == 0)
    F = negate(F);
  for (uint32_t I = 1; I < Atoms; ++I) {
    Formula G = membership(randomAtom(R, Alphabet));
    if (R.below(3) == 0)
      G = negate(G);
    F = R.below(2) ? combine("and", "&", F, G) : combine("or", "|", F, G);
    if (R.below(5) == 0)
      F = negate(F);
  }
  return F;
}

} // namespace

SessionInputs perfbench::sessionInputs(uint64_t Seed) {
  // Script pool and replay stream sizes. The stream draws scripts by a
  // Zipf law over the pool, so popular scripts repeat and hit the verdict
  // cache; the cache holds far fewer entries than the distinct questions,
  // so the long tail evicts.
  constexpr size_t PoolSize = 1200;
  constexpr size_t StreamScripts = 1500;
  constexpr double ZipfExponent = 1.05;

  SessionInputs In;
  In.CacheCapacity = 256;
  // The seed only renames the literals' characters (a permutation of a, b,
  // c and one of 0, 1). The scripts' shapes and the replay stream come from
  // a fixed generator, so every seed has the same cost profile: pools drawn
  // afresh per seed moved p50 and p99 latency by 15% between seeds.
  Rand Rename(Seed);
  std::string Letters = "abc", Digits = "01";
  for (std::string *Class : {&Letters, &Digits})
    for (size_t I = Class->size() - 1; I > 0; --I)
      std::swap((*Class)[I], (*Class)[Rename.below(I + 1)]);
  const std::string Alphabet = Letters + Digits;
  Rand R(0x5e55105eULL);
  std::map<std::string, uint32_t> CheckIds;
  auto checkId = [&](const std::string &Ere) {
    auto [It, Fresh] =
        CheckIds.emplace(Ere, static_cast<uint32_t>(In.Checks.size()));
    if (Fresh) {
      Query Q;
      Q.Pattern = Ere;
      Q.Family = "session";
      In.Checks.push_back(std::move(Q));
    }
    return It->second;
  };

  for (size_t P = 0; P != PoolSize; ++P) {
    // 2-4 atoms in all: one in the base assertion, 1-3 in the scoped one.
    uint32_t ScopedAtoms = static_cast<uint32_t>(R.range(1, 3));
    Formula Base = randomFormula(R, 1, Alphabet);
    Formula Scoped = randomFormula(R, ScopedAtoms, Alphabet);
    uint64_t MaxLen = R.range(2, 12), MinLen = R.range(1, 6);
    SessionScript S;
    S.Text = "(declare-fun x () String)\n"
             "(assert " + Base.Smt + ")\n"
             "(push 1)\n"
             "(assert " + Scoped.Smt + ")\n"
             "(assert (<= (str.len x) " + std::to_string(MaxLen) + "))\n"
             "(check-sat)\n"
             "(pop 1)\n"
             "(assert (>= (str.len x) " + std::to_string(MinLen) + "))\n"
             "(check-sat)\n"
             "(reset)\n";
    S.CheckIds.push_back(checkId("(" + Base.Ere + ")&(" + Scoped.Ere +
                                 ")&.{0," + std::to_string(MaxLen) + "}"));
    S.CheckIds.push_back(
        checkId("(" + Base.Ere + ")&.{" + std::to_string(MinLen) + ",}"));
    In.Pool.push_back(std::move(S));
  }

  std::vector<double> Cdf(PoolSize);
  double Sum = 0;
  for (size_t I = 0; I != PoolSize; ++I)
    Cdf[I] = Sum += 1.0 / std::pow(static_cast<double>(I + 1), ZipfExponent);
  std::vector<bool> Seen(In.Checks.size(), false);
  size_t Checks = 0, Repeats = 0;
  for (size_t I = 0; I != StreamScripts; ++I) {
    double U = R.unit() * Sum;
    uint32_t Script = static_cast<uint32_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin());
    Script = std::min<uint32_t>(Script, PoolSize - 1);
    In.Stream.push_back(Script);
    for (uint32_t C : In.Pool[Script].CheckIds) {
      ++Checks;
      Repeats += Seen[C];
      Seen[C] = true;
    }
  }
  In.RepeatShare =
      Checks ? static_cast<double>(Repeats) / static_cast<double>(Checks) : 0;
  return In;
}

std::vector<Query> perfbench::labelledQueries(Workload W, uint64_t Seed,
                                              SessionInputs *Session) {
  switch (W) {
  case Workload::CorpusBatch:
  case Workload::CorpusDist:
    return corpusQueries(Seed);
  case Workload::HardBoolean:
    return hardQueries(Seed);
  case Workload::SessionReplay: {
    SessionInputs In = sessionInputs(Seed);
    std::vector<Query> Out = In.Checks;
    if (Session)
      *Session = std::move(In);
    return Out;
  }
  }
  return {};
}
