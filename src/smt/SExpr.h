//===- smt/SExpr.h - S-expression reader for the SMT-LIB fragment ----------===//
///
/// \file
/// A small reader for the SMT-LIB2 surface syntax used by the string/regex
/// benchmarks: symbols, numerals, string literals with `""` escaping, and
/// parenthesized lists. Comments (`;` to end of line) are skipped. Lists
/// nested deeper than SExprMaxDepth are a parse error, so hostile input
/// cannot overflow the recursive reader.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SMT_SEXPR_H
#define SBD_SMT_SEXPR_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sbd {

/// Deepest list nesting parseSExprs accepts.
inline constexpr size_t SExprMaxDepth = 1000;

/// One parsed s-expression node.
struct SExpr {
  enum class Kind : uint8_t { Symbol, String, Number, List };

  Kind K = Kind::List;
  std::string Text;         ///< Symbol name or decoded string literal
  int64_t Number = 0;       ///< Numeral value
  std::vector<SExpr> Kids;  ///< List elements

  bool isSymbol(const char *S) const {
    return K == Kind::Symbol && Text == S;
  }
  bool isList() const { return K == Kind::List; }
};

/// Result of reading a whole script (sequence of top-level forms).
struct SExprParseResult {
  bool Ok = false;
  std::vector<SExpr> Forms;
  std::string Error;
  size_t ErrorPos = 0;
};

/// Parses an SMT-LIB script into top-level forms.
SExprParseResult parseSExprs(const std::string &Input);

} // namespace sbd

#endif // SBD_SMT_SEXPR_H
