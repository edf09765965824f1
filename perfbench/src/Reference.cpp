//===- perfbench/Reference.cpp - Independent verdict reference --------------===//

#include "Reference.h"

#include "automata/EagerSolver.h"
#include "baselines/BrzozowskiMintermSolver.h"
#include "core/Derivatives.h"
#include "re/RegexParser.h"

#include <map>

using namespace perfbench;
using namespace sbd;

namespace {

/// One comparator verdict on a fresh arena. A Sat verdict counts only when
/// its witness replays through the classical matcher.
Label comparatorVerdict(const std::string &Pattern) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexParseResult Parsed = parseRegex(M, Pattern);
  if (!Parsed.Ok)
    return Label::Unknown;
  SolveOptions Budget;
  Budget.TimeoutMs = 20000;
  Budget.MaxStates = 1 << 18;
  auto decided = [&](const SolveResult &R) {
    if (R.Status == SolveStatus::Unsat)
      return Label::Unsat;
    if (R.Status == SolveStatus::Sat && E.matches(Parsed.Value, R.Witness))
      return Label::Sat;
    return Label::Unknown;
  };
  BrzozowskiMintermSolver Brz(E);
  Label L = decided(Brz.solve(Parsed.Value, Budget));
  if (L != Label::Unknown)
    return L;
  EagerSolver Eager(M);
  return decided(Eager.solve(Parsed.Value, Budget));
}

} // namespace

size_t perfbench::labelWithComparators(std::vector<Query> &Queries) {
  std::map<std::string, Label> Memo;
  size_t Left = 0;
  for (Query &Q : Queries) {
    if (Q.Expected != Label::Unknown)
      continue;
    auto [It, Fresh] = Memo.emplace(Q.Pattern, Label::Unknown);
    if (Fresh)
      It->second = comparatorVerdict(Q.Pattern);
    Q.Expected = It->second;
    Left += Q.Expected == Label::Unknown;
  }
  return Left;
}

std::string perfbench::encodeLabels(const std::vector<Query> &Queries) {
  std::string Out;
  Out.reserve(Queries.size());
  for (const Query &Q : Queries)
    Out.push_back(Q.Expected == Label::Sat     ? 's'
                  : Q.Expected == Label::Unsat ? 'u'
                                               : '?');
  return Out;
}

bool perfbench::decodeLabels(const std::string &Text,
                             std::vector<Query> &Queries) {
  if (Text.size() != Queries.size())
    return false;
  for (size_t I = 0; I != Text.size(); ++I) {
    Label L = Text[I] == 's'   ? Label::Sat
              : Text[I] == 'u' ? Label::Unsat
                               : Label::Unknown;
    if (L == Label::Unknown && Text[I] != '?')
      return false;
    // A comparator label never overrides one known by construction.
    if (Queries[I].LabelledByConstruction && L != Queries[I].Expected)
      return false;
    Queries[I].Expected = L;
  }
  return true;
}

bool perfbench::witnessValid(const std::string &Pattern,
                             const std::vector<uint32_t> &Word) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexParseResult Parsed = parseRegex(M, Pattern);
  return Parsed.Ok && E.matches(Parsed.Value, Word);
}
