//===- charset/AlphabetCompressor.h - Mintermized alphabet compression ------===//
///
/// \file
/// Query-scoped alphabet compression (the "mintermization" of Section 3 and
/// of RE#): given the predicate set Ψ of a query's regexes, computes the
/// coarsest partition of the code-point domain such that every ψ ∈ Ψ — and
/// therefore every Boolean combination of members of Ψ, which is exactly the
/// set of guards the derivative closure can ever produce — is a union of
/// partition blocks. Each block (minterm) gets a dense id:
///
///   - `representative(id)` is a fixed witness character per block
///     (printable ASCII preferred, so witness strings stay readable).
///   - `classSet(id)` / `classSets()` recover the blocks as CharSets for
///     automata construction, DOT rendering and the minterm baseline.
///
/// This is the single place the partition sweep is implemented —
/// `computeMinterms`, the SFA/SAFA constructions and the Brzozowski minterm
/// baseline all route through it.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_CHARSET_ALPHABETCOMPRESSOR_H
#define SBD_CHARSET_ALPHABETCOMPRESSOR_H

#include "charset/CharSet.h"

#include <cstdint>
#include <vector>

namespace sbd {

/// The minterm partition of a predicate set, with dense class ids.
class AlphabetCompressor {
public:
  /// Trivial compressor: no predicates, one class covering the whole domain.
  AlphabetCompressor() : AlphabetCompressor(std::vector<CharSet>{}) {}

  /// Builds the partition induced by \p Preds. Duplicate and empty
  /// predicates are harmless (they do not refine the partition). The number
  /// of classes is at most 2^|Preds| but in practice linear in the number of
  /// distinct interval boundaries; it always fits in uint16_t because a
  /// boundary sweep over interval predicates yields at most one class per
  /// elementary segment and segments are merged by signature.
  explicit AlphabetCompressor(const std::vector<CharSet> &Preds);

  /// Number of classes (>= 1; the partition covers the whole domain).
  uint32_t numClasses() const { return static_cast<uint32_t>(Reps.size()); }

  /// A fixed representative code point of class \p Cls (printable ASCII
  /// preferred).
  uint32_t representative(uint16_t Cls) const { return Reps[Cls]; }

  /// The full block of class \p Cls as a canonical CharSet. Materialized on
  /// demand from the segment table.
  CharSet classSet(uint16_t Cls) const;

  /// All blocks, in class-id order. Pairwise disjoint, nonempty, union =
  /// full domain — the Minterms(S) of Section 3.
  std::vector<CharSet> classSets() const;

private:
  /// Elementary segments [SegmentStarts[i], SegmentStarts[i+1]) in ascending
  /// order; the last segment ends at MaxCodePoint. SegmentClasses[i] is the
  /// class of segment i.
  std::vector<uint32_t> SegmentStarts;
  std::vector<uint16_t> SegmentClasses;
  /// Per-class representative code point.
  std::vector<uint32_t> Reps;
};

} // namespace sbd

#endif // SBD_CHARSET_ALPHABETCOMPRESSOR_H
