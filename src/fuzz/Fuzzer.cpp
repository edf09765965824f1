//===- fuzz/Fuzzer.cpp - Differential fuzzing driver -------------------------===//

#include "fuzz/Fuzzer.h"

#include "dist/Coordinator.h"
#include "dist/Protocol.h"
#include "re/RegexParser.h"
#include "support/Json.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"
#include "support/Unicode.h"

#include <map>
#include <utility>

using namespace sbd;
using namespace sbd::fuzz;

//===----------------------------------------------------------------------===//
// The corrupted engine
//===----------------------------------------------------------------------===//

/// Structure-preserving rewrite of every `&` node into `|` — the injected
/// semantic bug. Generated terms are small (MaxNodes-bounded), so plain
/// recursion without memoization is fine.
static Re rewriteInterAsUnion(RegexManager &M, Re R) {
  // Copy: interning rewritten children grows the arena, so a reference
  // into it would dangle.
  const RegexNode N = M.node(R);
  switch (N.Kind) {
  case RegexKind::Empty:
  case RegexKind::Epsilon:
  case RegexKind::Pred:
    return R;
  case RegexKind::Concat:
    return M.concat(rewriteInterAsUnion(M, N.Kids[0]),
                    rewriteInterAsUnion(M, N.Kids[1]));
  case RegexKind::Star:
    return M.star(rewriteInterAsUnion(M, N.Kids[0]));
  case RegexKind::Loop:
    return M.loop(rewriteInterAsUnion(M, N.Kids[0]), N.LoopMin, N.LoopMax);
  case RegexKind::Compl:
    return M.complement(rewriteInterAsUnion(M, N.Kids[0]));
  case RegexKind::Union:
  case RegexKind::Inter: {
    std::vector<Re> Kids;
    Kids.reserve(N.Kids.size());
    for (Re K : N.Kids)
      Kids.push_back(rewriteInterAsUnion(M, K));
    // Both cases rebuild as a union: for Inter that is the bug.
    return M.unionList(std::move(Kids));
  }
  }
  return R;
}

DifferentialOracle::MembershipStub sbd::fuzz::interAsUnionStub() {
  DifferentialOracle::MembershipStub S;
  S.Name = "inter_as_union_stub";
  S.Matches = [](RegexManager &M, DerivativeEngine &E, Re R,
                 const std::vector<uint32_t> &W) {
    return E.matches(rewriteInterAsUnion(M, R), W);
  };
  return S;
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

/// C++ string-literal escaping using octal escapes (unambiguous regardless
/// of the following character, unlike \xNN).
static std::string cxxEscape(const std::string &S) {
  std::string Out;
  for (char Raw : S) {
    auto U = static_cast<unsigned char>(Raw);
    if (Raw == '"' || Raw == '\\') {
      Out += '\\';
      Out += Raw;
    } else if (U < 0x20 || U > 0x7E) {
      char Buf[8];
      Buf[0] = '\\';
      Buf[1] = static_cast<char>('0' + ((U >> 6) & 7));
      Buf[2] = static_cast<char>('0' + ((U >> 3) & 7));
      Buf[3] = static_cast<char>('0' + (U & 7));
      Buf[4] = '\0';
      Out += Buf;
    } else {
      Out += Raw;
    }
  }
  return Out;
}

std::string sbd::fuzz::renderRegressionTest(const Discrepancy &D,
                                            uint64_t Seed, size_t CaseIndex) {
  std::string Word;
  for (uint32_t Cp : D.Word) {
    if (!Word.empty())
      Word += ", ";
    Word += std::to_string(Cp);
  }
  std::string Out;
  Out += "// sbd-fuzz regression: seed=" + std::to_string(Seed) +
         " law=" + oracleLawName(D.Law) + " engine=" + D.Engine + "\n";
  Out += "// detail: " + D.Detail + "\n";
  Out += "TEST(SbdFuzzRegression, Seed" + std::to_string(Seed) + "Case" +
         std::to_string(CaseIndex) + ") {\n";
  Out += "  sbd::RegexManager M;\n";
  Out += "  sbd::TrManager T(M);\n";
  Out += "  sbd::DerivativeEngine E(M, T);\n";
  Out += "  sbd::RegexSolver S(E);\n";
  Out += "  sbd::fuzz::DifferentialOracle O(E, S);\n";
  Out += "  sbd::Re R = sbd::parseRegexOrDie(M, \"" + cxxEscape(D.Pattern) +
         "\");\n";
  Out += "  std::vector<sbd::fuzz::Discrepancy> Ds;\n";
  Out += "  O.checkSample(R, {{" + Word + "}}, Ds);\n";
  Out += "  EXPECT_TRUE(Ds.empty());\n";
  Out += "}\n";
  return Out;
}

std::string FuzzReport::json() const {
  std::string Out = "{";
  Out += "\"seed\": " + std::to_string(Seed);
  Out += ", \"iterations\": " + std::to_string(Iterations);
  Out += ", \"samples\": " + std::to_string(Samples);
  Out += ", \"checks\": " + std::to_string(Checks);
  Out += ", \"elapsed_us\": " + std::to_string(ElapsedUs);
  Out += std::string(", \"ok\": ") + (ok() ? "true" : "false");
  Out += ", \"discrepancies\": [";
  for (size_t I = 0; I != Discrepancies.size(); ++I) {
    const Discrepancy &D = Discrepancies[I];
    if (I)
      Out += ", ";
    Out += "{\"law\": \"" + std::string(oracleLawName(D.Law)) + "\"";
    Out += ", \"engine\": ";
    appendJsonString(Out, D.Engine);
    Out += ", \"pattern\": ";
    appendJsonString(Out, D.Pattern);
    Out += ", \"regex_nodes\": " + std::to_string(D.RegexNodes);
    Out += ", \"word\": [";
    for (size_t J = 0; J != D.Word.size(); ++J) {
      if (J)
        Out += ", ";
      Out += std::to_string(D.Word[J]);
    }
    Out += "]";
    Out += ", \"word_utf8\": ";
    appendJsonString(Out, toUtf8(D.Word));
    Out += ", \"detail\": ";
    appendJsonString(Out, D.Detail);
    Out += "}";
  }
  Out += "]";
  Out += ", \"engine_timings\": [";
  for (size_t I = 0; I != Timings.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "{\"name\": ";
    appendJsonString(Out, Timings[I].Name);
    Out += ", \"total_us\": " + std::to_string(Timings[I].TotalUs);
    Out += ", \"calls\": " + std::to_string(Timings[I].Calls) + "}";
  }
  Out += "]";
  Out += ", \"engine_phases\": [";
  for (size_t I = 0; I != Engines.size(); ++I) {
    if (I)
      Out += ", ";
    Out += "{\"name\": ";
    appendJsonString(Out, Engines[I].Name);
    Out += ", \"queries\": " + std::to_string(Engines[I].Queries);
    Out += ", \"stats\": " + Engines[I].Stats.json() + "}";
  }
  Out += "]";
  Out += ", \"obs\": " + (ObsJson.empty() ? std::string("{}") : ObsJson);
  Out += "}";
  return Out;
}

//===----------------------------------------------------------------------===//
// The campaign driver
//===----------------------------------------------------------------------===//

namespace {

/// Can this law be re-checked on a candidate (regex, word) pair by
/// re-running the per-regex oracle? De Morgan involves a *pair* of source
/// terms, so its discrepancies are reported unshrunk; dist consistency is
/// a whole-batch stream property with no single (regex, word) witness.
bool shrinkable(OracleLaw L) {
  return L != OracleLaw::DeMorgan && L != OracleLaw::DistConsistency;
}

/// The dist_consistency law: the batch's patterns through the
/// coordinator/worker layer with 1 worker and with \p Workers workers
/// must yield byte-identical canonical verdict streams. Any divergence is
/// one discrepancy pinpointing the first differing line.
void checkDistConsistency(const std::vector<std::string> &Patterns,
                          uint32_t Workers, const FuzzOptions &Opts,
                          std::vector<Discrepancy> &Out) {
  std::vector<BatchQuery> Queries;
  Queries.reserve(Patterns.size());
  for (const std::string &P : Patterns) {
    BatchQuery Q;
    Q.Pattern = P;
    Q.Opts.MaxStates = Opts.Oracle.SolverMaxStates;
    Queries.push_back(std::move(Q));
  }
  auto streamWith = [&](unsigned N) {
    dist::DistOptions DOpts;
    DOpts.NumWorkers = N;
    dist::DistSolver Solver(DOpts);
    std::vector<BatchResult> Results = Solver.solveAll(Queries);
    std::vector<std::string> Lines;
    Lines.reserve(Results.size());
    for (size_t I = 0; I != Results.size(); ++I)
      Lines.push_back(dist::renderVerdictLine(I, Results[I]));
    return Lines;
  };
  std::vector<std::string> One = streamWith(1);
  std::vector<std::string> Many = streamWith(Workers ? Workers : 2);
  for (size_t I = 0; I != One.size() && I != Many.size(); ++I) {
    if (One[I] == Many[I])
      continue;
    Discrepancy D;
    D.Law = OracleLaw::DistConsistency;
    D.Engine = "dist";
    D.Pattern = I < Patterns.size() ? Patterns[I] : "";
    D.Detail = "verdict streams diverged at line " + std::to_string(I) +
               ": 1-worker '" + One[I] + "' vs " +
               std::to_string(Workers) + "-worker '" + Many[I] + "'";
    Out.push_back(std::move(D));
    return;
  }
  if (One.size() != Many.size()) {
    Discrepancy D;
    D.Law = OracleLaw::DistConsistency;
    D.Engine = "dist";
    D.Detail = "verdict stream lengths diverged: 1-worker " +
               std::to_string(One.size()) + " vs " +
               std::to_string(Workers) + "-worker " +
               std::to_string(Many.size());
    Out.push_back(std::move(D));
  }
}

} // namespace

FuzzReport sbd::fuzz::runFuzz(const FuzzOptions &Opts) {
  Stopwatch Total;
  obs::MetricShard ObsBefore = obs::MetricsRegistry::global().snapshot();

  FuzzReport Rep;
  Rep.Seed = Opts.Seed;

  // Master stream: one derived seed pair per batch, so batch K is
  // reproducible without replaying batches 0..K-1's arena contents.
  Rng SeedStream(Opts.Seed);
  std::map<std::string, EngineTiming> Merged;
  std::map<std::string, EnginePhase> MergedPhases;

  uint64_t Iter = 0;
  uint64_t BatchIndex = 0;
  bool Stop = false;
  while (Iter < Opts.Iterations && !Stop) {
    uint64_t RegexSeed = SeedStream.next();
    uint64_t WordSeed = SeedStream.next();

    // Fresh arenas per batch: bounded memory, and no cross-batch interning
    // state that sample ordering could leak through.
    RegexManager M;
    TrManager T(M);
    DerivativeEngine Eng(M, T);
    RegexSolver Solver(Eng);
    DifferentialOracle Oracle(Eng, Solver, Opts.Oracle);
    if (Opts.CorruptStub)
      Oracle.setStub(interAsUnionStub());
    RegexGenerator RG(M, RegexSeed, Opts.Gen);
    WordGenerator WG(M, WordSeed, Opts.Gen);

    std::vector<std::string> BatchPatterns;
    for (uint32_t B = 0;
         B != (Opts.ArenaBatch ? Opts.ArenaBatch : 1) &&
         Iter < Opts.Iterations && !Stop;
         ++B, ++Iter) {
      Re Rx = RG.generate();
      if (Opts.DistEvery && BatchIndex % Opts.DistEvery == 0)
        BatchPatterns.push_back(M.toString(Rx));
      std::vector<Discrepancy> Local;
      Oracle.beginRegex(Rx, Local);
      WG.prime(Rx);
      std::vector<std::vector<uint32_t>> Words;
      for (uint32_t WI = 0; WI != Opts.WordsPerRegex; ++WI) {
        Words.push_back(WG.generate());
        Oracle.checkWord(Words.back(), Local);
      }
      Rep.Samples += Words.size();

      if (Opts.DeMorganEvery && Iter % Opts.DeMorganEvery == 0) {
        Re A = RG.generateWithBudget(Opts.Gen.MaxNodes / 2);
        Re B2 = RG.generateWithBudget(Opts.Gen.MaxNodes / 2);
        Oracle.checkDeMorgan(A, B2, Words, Local);
      }

      for (Discrepancy &D : Local) {
        if (Opts.Shrink && shrinkable(D.Law)) {
          // Re-check candidates with a dedicated oracle: CheckSat only
          // when the violated law needs the solvers, so membership-law
          // shrinks stay cheap.
          OracleOptions SOpts = Opts.Oracle;
          SOpts.CheckSat = D.Law == OracleLaw::SatVerdict ||
                           D.Law == OracleLaw::WitnessValid;
          DifferentialOracle Check(Eng, Solver, SOpts);
          if (Opts.CorruptStub)
            Check.setStub(interAsUnionStub());
          OracleLaw Law = D.Law;
          std::string Engine = D.Engine;
          FailurePredicate Fails = [&](Re C,
                                       const std::vector<uint32_t> &W) {
            std::vector<Discrepancy> Ds;
            Check.beginRegex(C, Ds);
            Check.checkWord(W, Ds);
            for (const Discrepancy &D2 : Ds)
              if (D2.Law == Law && (Engine.empty() || D2.Engine == Engine))
                return true;
            return false;
          };
          // The recorded word may be a witness for a per-regex law (empty
          // for pure verdict conflicts); shrink from the sample as stored.
          if (Fails(Rx, D.Word)) {
            Shrinker Sh(M);
            ShrinkResult SR = Sh.shrink(Rx, D.Word, Fails);
            D.Pattern = M.toString(SR.Pattern);
            D.Word = SR.Word;
            D.RegexNodes = M.node(SR.Pattern).Size;
          }
        }
        bool Dup = false;
        for (const Discrepancy &Seen : Rep.Discrepancies)
          if (Seen.Law == D.Law && Seen.Engine == D.Engine &&
              Seen.Pattern == D.Pattern && Seen.Word == D.Word) {
            Dup = true;
            break;
          }
        if (!Dup)
          Rep.Discrepancies.push_back(std::move(D));
        if (Rep.Discrepancies.size() >= Opts.MaxDiscrepancies) {
          Stop = true;
          break;
        }
      }
    }

    if (!BatchPatterns.empty() && !Stop) {
      std::vector<Discrepancy> DistDs;
      checkDistConsistency(BatchPatterns, Opts.DistWorkers, Opts, DistDs);
      ++Rep.Checks;
      SBD_OBS_INC(FuzzChecks);
      for (Discrepancy &D : DistDs) {
        SBD_OBS_INC(FuzzDiscrepancies);
        Rep.Discrepancies.push_back(std::move(D));
        if (Rep.Discrepancies.size() >= Opts.MaxDiscrepancies)
          Stop = true;
      }
    }
    ++BatchIndex;

    for (const EngineTiming &ET : Oracle.timings()) {
      EngineTiming &Slot = Merged[ET.Name];
      Slot.Name = ET.Name;
      Slot.TotalUs += ET.TotalUs;
      Slot.Calls += ET.Calls;
    }
    for (const EnginePhase &EP : Oracle.phaseStats()) {
      EnginePhase &Slot = MergedPhases[EP.Name];
      Slot.Name = EP.Name;
      Slot.Queries += EP.Queries;
      Slot.Stats += EP.Stats;
    }
    Rep.Checks += Oracle.checksRun();
  }

  Rep.Iterations = Iter;
  for (auto &KV : Merged)
    Rep.Timings.push_back(KV.second);
  for (auto &KV : MergedPhases)
    Rep.Engines.push_back(KV.second);
  Rep.ElapsedUs = Total.elapsedUs();
  Rep.ObsJson =
      obs::MetricsRegistry::global().snapshot().since(ObsBefore).json();
  return Rep;
}
