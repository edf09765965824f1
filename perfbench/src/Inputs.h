//===- perfbench/Inputs.h - Seeded workload inputs --------------------------===//
///
/// \file
/// Generates each workload's inputs from the benchmark seed. The solver
/// only ever sees the generated patterns and SMT-LIB text; the labels that
/// travel with them come from construction or from the comparator engines
/// (Reference.h), never from the solver under test.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Reference verdict of one query.
enum class Label : int8_t { Unknown = -1, Unsat = 0, Sat = 1 };

/// One regex satisfiability question in the library's surface syntax.
struct Query {
  std::string Pattern;
  std::string Family;
  Label Expected = Label::Unknown;
  /// Expected came from the generator's construction (else: comparators).
  bool LabelledByConstruction = false;
};

/// One SMT-LIB script of the session workload: its text, and for each
/// check-sat the index of the equivalent surface-syntax query (the
/// conjunction of the assertions in scope) in SessionInputs::Checks.
struct SessionScript {
  std::string Text;
  std::vector<uint32_t> CheckIds;
};

struct SessionInputs {
  std::vector<Query> Checks;          ///< distinct check-sat questions
  std::vector<SessionScript> Pool;    ///< distinct scripts
  std::vector<uint32_t> Stream;       ///< script indices, in replay order
  size_t CacheCapacity = 0;           ///< verdict-cache entries
  double RepeatShare = 0;             ///< check-sats repeating an earlier one
};

/// The workloads, in BENCHMARK.json order.
enum class Workload { CorpusBatch, HardBoolean, SessionReplay, CorpusDist };

bool parseWorkload(const std::string &Name, Workload &Out);
const char *workloadName(Workload W);

/// Fig. 4 corpus at scale 5: generated Kaluza/Slog/Norn/SyGuS/RegExLib-like
/// families plus the 89 handwritten instances.
std::vector<Query> corpusQueries(uint64_t Seed);

/// Expensive Boolean queries: the handwritten Date/Password/Boolean+Loops/
/// Blowup families plus seeded variants of the three k-way containment
/// families. The unsat length-window variants have family kLenWindowFamily.
std::vector<Query> hardQueries(uint64_t Seed);
inline constexpr const char *kLenWindowFamily = "scaling-lenwindow";

/// The session workload's script pool and replay stream.
SessionInputs sessionInputs(uint64_t Seed);

/// The queries a workload's labels are computed for (for the session
/// workload: its distinct check-sat questions).
std::vector<Query> labelledQueries(Workload W, uint64_t Seed,
                                   SessionInputs *Session = nullptr);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
