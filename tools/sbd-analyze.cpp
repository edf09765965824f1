//===- tools/sbd-analyze.cpp - Pre-solve static analysis front end ----------===//
///
/// \file
/// Runs the RegexAnalyzer (DESIGN.md §14) over patterns without solving
/// them: structural features, ReDoS/blow-up risk score, classification,
/// and the portfolio route the solver would take. With --solve it also
/// solves each pattern so the analyzer's overhead can be compared against
/// real solve time (the CI gate in scripts/ci/analyze_corpus.sh).
///
///   sbd-analyze '<pattern>' ...          analyze command-line patterns
///   sbd-analyze --file <path>            one pattern per line ('#' comments)
///   sbd-analyze --corpus                 the seed benchmark corpus
///   sbd-analyze --scale f --seed n       corpus generator knobs
///   sbd-analyze --classes                one "name<TAB>class" line each
///                                        (the regression baseline format)
///   sbd-analyze --json                   machine-readable report
///   sbd-analyze --solve                  also solve; report overhead
///   sbd-analyze --risk-threshold n       exit 1 when any risk >= n
///
/// Exit codes: 0 analyzed cleanly, 1 risk threshold exceeded, 2 usage or
/// input error (unreadable file, unparsable pattern).
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "analysis/RegexAnalyzer.h"
#include "portfolio/Portfolio.h"
#include "re/RegexParser.h"
#include "solver/RegexSolver.h"
#include "support/Json.h"
#include "support/Stopwatch.h"
#include "support/Unicode.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace sbd;

namespace {

struct Args {
  std::vector<std::string> Patterns;
  std::string File;
  bool Corpus = false;
  double Scale = 0.05;
  uint64_t Seed = 2021;
  bool Classes = false;
  bool Json = false;
  bool Solve = false;
  long RiskThreshold = -1; ///< -1 = no gate
};

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--corpus] [--scale f] [--seed n] [--file path] "
               "[--classes] [--json]\n       [--solve] [--risk-threshold n] "
               "['<pattern>' ...]\n"
               "Analyzes extended regexes without solving them: features, "
               "risk score,\nclassification, and the portfolio route "
               "(DESIGN.md \xc2\xa7" "14).\n",
               Prog);
  return 2;
}

/// One named input pattern.
struct Input {
  std::string Name;
  std::string Pattern;
};

std::vector<Input> corpusInputs(double Scale, uint64_t Seed) {
  std::vector<Input> Out;
  std::vector<BenchSuite> Suites = nonBooleanSuites(Scale, Seed);
  std::vector<BenchSuite> Boolean = booleanSuites(Scale, Seed);
  Suites.insert(Suites.end(), Boolean.begin(), Boolean.end());
  std::vector<BenchSuite> Hand = handwrittenSuites();
  Suites.insert(Suites.end(), Hand.begin(), Hand.end());
  for (const BenchSuite &Suite : Suites)
    for (const BenchInstance &Inst : Suite.Instances)
      Out.push_back({Suite.Name + "/" + Inst.Name, Inst.Pattern});
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    auto needsValue = [&](const char *Flag) {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--corpus"))
      A.Corpus = true;
    else if (!std::strcmp(Argv[I], "--scale"))
      A.Scale = std::atof(needsValue("--scale"));
    else if (!std::strcmp(Argv[I], "--seed"))
      A.Seed = std::strtoull(needsValue("--seed"), nullptr, 10);
    else if (!std::strcmp(Argv[I], "--file"))
      A.File = needsValue("--file");
    else if (!std::strcmp(Argv[I], "--classes"))
      A.Classes = true;
    else if (!std::strcmp(Argv[I], "--json"))
      A.Json = true;
    else if (!std::strcmp(Argv[I], "--solve"))
      A.Solve = true;
    else if (!std::strcmp(Argv[I], "--risk-threshold"))
      A.RiskThreshold = std::atol(needsValue("--risk-threshold"));
    else if (Argv[I][0] == '-')
      return usage(Argv[0]);
    else
      A.Patterns.push_back(Argv[I]);
  }

  std::vector<Input> Inputs;
  for (size_t I = 0; I != A.Patterns.size(); ++I)
    Inputs.push_back({"arg" + std::to_string(I), A.Patterns[I]});
  if (!A.File.empty()) {
    std::ifstream In(A.File);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", A.File.c_str());
      return 2;
    }
    std::string Line;
    size_t LineNo = 0;
    while (std::getline(In, Line)) {
      ++LineNo;
      if (Line.empty() || Line[0] == '#')
        continue;
      Inputs.push_back({A.File + ":" + std::to_string(LineNo), Line});
    }
  }
  if (A.Corpus) {
    std::vector<Input> Corpus = corpusInputs(A.Scale, A.Seed);
    Inputs.insert(Inputs.end(), Corpus.begin(), Corpus.end());
  }
  if (Inputs.empty())
    return usage(Argv[0]);

  // One shared stack: hash-consing dedups shared structure across the
  // inputs, exactly as a long-lived solver process would see them.
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexSolver S(E);
  portfolio::PortfolioSolver Port(S);

  size_t ParseErrors = 0;
  size_t OverThreshold = 0;
  int64_t AnalysisUsTotal = 0;
  int64_t SolveUsTotal = 0;
  std::string JsonResults; // accumulated array body

  for (const Input &In : Inputs) {
    RegexParseResult Parsed = parseRegex(M, In.Pattern);
    if (!Parsed.Ok) {
      ++ParseErrors;
      std::fprintf(stderr, "error: %s: parse error: %s\n", In.Name.c_str(),
                   Parsed.Error.c_str());
      continue;
    }
    Stopwatch AnalysisTimer;
    // Copy: the memo vector may reallocate on later analyze() calls.
    const analysis::RegexFeatures Feat = S.analyzer().analyze(Parsed.Value);
    AnalysisUsTotal += AnalysisTimer.elapsedUs();
    portfolio::RouteDecision Route = portfolio::planRoute(Feat, SolveOptions{});
    const bool Risky =
        A.RiskThreshold >= 0 && Feat.Risk >= static_cast<uint32_t>(A.RiskThreshold);
    if (Risky)
      ++OverThreshold;

    SolveResult Solved;
    if (A.Solve) {
      Solved = Port.checkSat(Parsed.Value, SolveOptions{});
      SolveUsTotal += Solved.Stats.TotalUs;
    }

    if (A.Classes) {
      std::printf("%s\t%s\n", In.Name.c_str(),
                  analysis::reClassName(Feat.Class));
      continue;
    }
    if (A.Json) {
      std::string R = "{\"name\": ";
      appendJsonString(R, In.Name);
      R += ", \"pattern\": ";
      appendJsonString(R, In.Pattern);
      R += ", \"route\": \"" + std::string(solveEngineName(Route.Engine)) + "\"";
      R += ", \"route_reason\": \"" + std::string(Route.Reason) + "\"";
      R += ", \"predicted_states\": " +
           std::to_string(analysis::predictedStateBound(Feat));
      R += ", \"features\": " + Feat.json();
      if (A.Solve) {
        R += ", \"solve\": {\"status\": \"" +
             std::string(statusName(Solved.Status)) + "\"";
        R += ", \"total_us\": " + std::to_string(Solved.Stats.TotalUs);
        R += ", \"engine\": \"" + std::string(solveEngineName(Solved.Stats.Engine)) +
             "\"}";
      }
      R += "}";
      if (!JsonResults.empty())
        JsonResults += ",\n  ";
      JsonResults += R;
      continue;
    }
    std::printf("%s%s\n  pattern: %s\n", In.Name.c_str(),
                Risky ? "  [RISK]" : "", In.Pattern.c_str());
    std::printf("  class=%s risk=%u route=%s (%s) predicted-states<=%llu\n",
                analysis::reClassName(Feat.Class), Feat.Risk,
                solveEngineName(Route.Engine), Route.Reason,
                static_cast<unsigned long long>(
                    analysis::predictedStateBound(Feat)));
    std::printf("  size: tree=%llu dag=%u star-height=%u bool-depth=%u "
                "compl-depth=%u\n",
                static_cast<unsigned long long>(Feat.TreeSize), Feat.DagSize,
                Feat.StarHeight, Feat.BooleanDepth, Feat.ComplDepth);
    std::printf("  counters: blowup<=%llu max-bound=%u  alphabet: preds=%u "
                "minterms<=%llu\n",
                static_cast<unsigned long long>(Feat.CounterBlowup),
                Feat.MaxLoopBound, Feat.DistinctPreds,
                static_cast<unsigned long long>(Feat.MintermBound));
    if (Feat.PrefixLen > 0 || Feat.PrefixExact) {
      std::vector<uint32_t> Pfx(Feat.Prefix, Feat.Prefix + Feat.PrefixLen);
      std::printf("  required prefix: \"%s\"%s%s\n", escapeWord(Pfx).c_str(),
                  Feat.PrefixExact ? " (exact word)" : "",
                  Feat.PrefixComplete ? "" : " (truncated)");
    }
    if (A.Solve)
      std::printf("  solved: %s in %lld us via %s\n",
                  statusName(Solved.Status),
                  static_cast<long long>(Solved.Stats.TotalUs),
                  solveEngineName(Solved.Stats.Engine));
  }

  if (A.Json) {
    std::string Out = "{\"analyzed\": " +
                      std::to_string(Inputs.size() - ParseErrors);
    Out += ", \"parse_errors\": " + std::to_string(ParseErrors);
    Out += ", \"over_threshold\": " + std::to_string(OverThreshold);
    Out += ", \"analysis_us_total\": " + std::to_string(AnalysisUsTotal);
    Out += ", \"solve_us_total\": " + std::to_string(SolveUsTotal);
    Out += ", \"results\": [\n  " + JsonResults + "\n]}";
    std::printf("%s\n", Out.c_str());
  } else if (!A.Classes && Inputs.size() > 1) {
    std::printf("analyzed %zu patterns (%zu parse errors) in %lld us",
                Inputs.size() - ParseErrors, ParseErrors,
                static_cast<long long>(AnalysisUsTotal));
    if (A.Solve)
      std::printf("; solve time %lld us",
                  static_cast<long long>(SolveUsTotal));
    std::printf("\n");
  }

  if (ParseErrors)
    return 2;
  return OverThreshold ? 1 : 0;
}
