//===- portfolio/BatchSolver.h - Batch solving front end --------------------===//
///
/// \file
/// Serving-stack front end: takes N independent regex satisfiability
/// queries (surface-syntax patterns, so queries are self-contained and not
/// tied to any caller-side arena) and solves them in order on the calling
/// thread. Each query gets a fresh solver stack — RegexManager, TrManager,
/// DerivativeEngine, RegexSolver — which bounds its memory and makes its
/// state budget independent of the queries solved before it. Parallelism
/// is worker processes (`src/dist`, DESIGN.md §16), not threads.
///
/// Queries carry their own `SolveOptions` (deadline, state budget,
/// strategy); `result[i]` answers query i. With term order independent of
/// arena history (RegexManager::canonLess), verdicts and witnesses are
/// byte-identical to the worker-process path.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_PORTFOLIO_BATCHSOLVER_H
#define SBD_PORTFOLIO_BATCHSOLVER_H

#include "solver/SolverResult.h"
#include "support/Metrics.h"

#include <cstddef>
#include <string>
#include <vector>

namespace sbd {

/// One independent satisfiability query.
struct BatchQuery {
  /// Extended regex in the surface syntax accepted by RegexParser.
  std::string Pattern;
  /// Per-query budget (deadline, state cap, search strategy).
  SolveOptions Opts;
};

/// Result for one query, at the query's input position.
struct BatchResult {
  /// False when the pattern failed to parse; `ParseError` explains why and
  /// `Result.Status` is Unsupported.
  bool ParseOk = false;
  std::string ParseError;
  SolveResult Result;
};

/// Solves independent queries one after another, each on a fresh stack.
class BatchSolver {
public:
  BatchSolver() = default;

  /// Solves all queries; `result[i]` answers `Queries[i]`.
  std::vector<BatchResult> solveAll(const std::vector<BatchQuery> &Queries);

  /// Aggregated interning/memo counters of the last solveAll() call
  /// (regex arena + transition arena + engine memos, summed over queries).
  const CacheStats &stats() const { return Stats; }

private:
  CacheStats Stats;
};

} // namespace sbd

#endif // SBD_PORTFOLIO_BATCHSOLVER_H
