//===- perfbench/Reference.h - Independent verdict reference ----------------===//
///
/// \file
/// The correctness reference the benchmark checks the solver against. Labels
/// missing from construction are decided by the paper's comparator engines
/// (Brzozowski + global minterms, then the eager automata pipeline); Sat
/// witnesses are replayed through the classical Brzozowski matcher on a
/// fresh arena. Neither path runs the symbolic-derivative solver.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include "Inputs.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Fills every Unknown label it can decide with the comparator engines.
/// Returns the number of queries left Unknown.
size_t labelWithComparators(std::vector<Query> &Queries);

/// Labels as one character per query: 's', 'u' or '?'.
std::string encodeLabels(const std::vector<Query> &Queries);

/// Applies encodeLabels() output; false when the sizes differ or a
/// character is invalid.
bool decodeLabels(const std::string &Text, std::vector<Query> &Queries);

/// Is \p Word in L(Pattern)? Classical Brzozowski matching on a fresh arena.
bool witnessValid(const std::string &Pattern,
                  const std::vector<uint32_t> &Word);

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
