//===- core/TransitionRegex.h - Transition regexes (Section 4) -------------===//
///
/// \file
/// Transition regexes TR — the paper's key device for making derivatives of
/// *symbolic* extended regexes well defined. A transition regex denotes a
/// function Σ → ERE; the grammar is
///
///   TR ::= ERE | if(φ, TR, TR) | TR "|" TR | TR "&" TR | ~TR
///
/// We represent TR in negation normal form by construction: the negation
/// constructor immediately applies the dual (Lemma 4.2: ~τ ≡ τ̄), pushing
/// complement into the ERE leaves. Consequently interned nodes have only
/// four kinds (Leaf, Ite, Union, Inter) and the DNF transformation only has
/// to eliminate Inter.
///
/// The *disjunctive normal form* used by the solver (δdnf in Section 5) is
/// the shape with conditionals and unions outermost and all `&`/`~` pushed
/// into ERE leaves; `TrManager::dnf` computes it with the lift rules of
/// Section 4.1, pruning branches whose accumulated path condition is
/// unsatisfiable ("clean" transition regexes).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_CORE_TRANSITIONREGEX_H
#define SBD_CORE_TRANSITIONREGEX_H

#include "re/Regex.h"

#include <string>
#include <vector>

namespace sbd {

/// Node kinds of (NNF) transition regexes.
enum class TrKind : uint8_t {
  Leaf,  ///< an ERE (constant function)
  Ite,   ///< if(φ, then, else)
  Union, ///< t1 | ... | tk, k >= 2
  Inter, ///< t1 & ... & tk, k >= 2
};

/// An interned transition-regex handle (valid with its TrManager). Like
/// `Re`, handles have no ordering; TrManager::canonLess orders terms.
struct Tr {
  uint32_t Id = 0;

  friend bool operator==(Tr A, Tr B) { return A.Id == B.Id; }
  friend bool operator!=(Tr A, Tr B) { return A.Id != B.Id; }
};

/// Interned storage for one transition-regex node.
struct TrNode {
  TrKind Kind;
  Re LeafRe{};          ///< Leaf only
  CharSet Cond;         ///< Ite only
  std::vector<Tr> Kids; ///< Ite: {then, else}; Union/Inter: n-ary
  /// Structural hash (interning key): kind, the leaf's regex hash, the
  /// guard's content and the children's hashes — never an id.
  uint64_t Hash = 0;
};

/// One edge of a DNF transition regex: reading a character in [[Guard]] can
/// move to Target. Guards of arcs from different union branches may overlap
/// (the structure is alternating/nondeterministic); guards along one
/// conditional path are disjoint by construction.
struct TrArc {
  CharSet Guard;
  Re Target;
};

/// Arena + algebra for transition regexes.
class TrManager {
public:
  explicit TrManager(RegexManager &M);

  RegexManager &regexManager() { return M; }
  const RegexManager &regexManager() const { return M; }
  const TrNode &node(Tr T) const { return Nodes[T.Id]; }
  TrKind kind(Tr T) const { return Nodes[T.Id].Kind; }
  size_t numNodes() const { return Nodes.size(); }

  /// The canonical order on transition regexes, used for the operands of
  /// every Union/Inter node: stored structural hash first, then a full
  /// structural comparison on a collision (RegexManager::canonLess for
  /// leaves). Independent of arena history.
  bool canonLess(Tr A, Tr B) const {
    uint64_t HA = Nodes[A.Id].Hash, HB = Nodes[B.Id].Hash;
    return HA != HB ? HA < HB : A != B && structLess(A, B);
  }

  /// Pre-sizes the node arena and interning table.
  void reserve(size_t NumNodes);
  /// Drops the negate/DNF memo slots (the interned nodes stay — handles
  /// remain valid). Lets long-running processes bound memo growth.
  void clearCaches();
  /// Interning/memo counters.
  const CacheStats &stats() const { return Stats; }
  void resetStats() { Stats.reset(); }

  /// Test-only backdoor for the audit negative tests (tests/AuditTest.cpp):
  /// mutable access to interned storage so a test can corrupt an invariant
  /// and prove sbd::audit detects it. Never call outside audit tests.
  TrNode &mutableNodeForAudit(Tr T) { return Nodes[T.Id]; }

  /// --- Constructors (normalizing) ------------------------------------------

  /// Embeds an ERE as a constant transition regex.
  Tr leaf(Re R);
  /// The constant ⊥ function (unit of |, absorbing for &).
  Tr bot() const { return BotTr; }
  /// The constant .* function (absorbing for |, unit of &).
  Tr topLeaf() const { return TopTr; }

  /// if(Cond, T, F); simplifies trivial/equal branches and collapses
  /// directly nested conditionals on the same predicate.
  Tr ite(const CharSet &Cond, Tr T, Tr F);

  /// τ1 | ... | τk. Flattens, drops ⊥, absorbs .*, merges all ERE leaves
  /// into a single leaf through the regex algebra.
  Tr union_(std::vector<Tr> Ts);
  Tr union2(Tr A, Tr B) { return union_({A, B}); }

  /// τ1 & ... & τk (dual of union_).
  Tr inter(std::vector<Tr> Ts);
  Tr inter2(Tr A, Tr B) { return inter({A, B}); }

  /// ~τ via the negation dual τ̄ (Lemma 4.2); the result is again in NNF.
  Tr negate(Tr T);

  /// τ · R — concatenation of a regex on the right (Section 4). Invokes the
  /// lift rules when τ contains `&` above a conditional.
  Tr concatRe(Tr T, Re R);

  /// --- Semantics ------------------------------------------------------------

  /// τ(a): instantiates the function at a concrete character.
  Re apply(Tr T, uint32_t Ch) const;

  /// --- Normal form ----------------------------------------------------------

  /// Computes the solver's normal form: conditionals/unions outermost, no
  /// Inter nodes, unsatisfiable branches pruned (lift rules, Section 4.1).
  Tr dnf(Tr T);

  /// True when T contains no Inter node (i.e. the ite/or/ere propagation
  /// rules of Fig. 3a can consume it directly).
  bool isDnf(Tr T) const;

  /// --- Structure queries ------------------------------------------------------

  /// Appends the distinct ERE leaves of T to \p Out. When \p IncludeTrivial
  /// is false, skips the trivial states ⊥ and .* (this is Q(τ) of Section 7).
  void collectLeaves(Tr T, std::vector<Re> &Out,
                     bool IncludeTrivial = false) const;

  /// Enumerates the arcs of a DNF transition regex: all (guard, target)
  /// pairs with satisfiable guards and non-⊥ targets. Arcs with the same
  /// target are merged by guard union.
  std::vector<TrArc> arcs(Tr T) const;

  /// Appends the distinct conditional guards occurring in T (the set
  /// Guards(∆(q)) used for local mintermization in Section 8.3).
  void collectGuards(Tr T, std::vector<CharSet> &Out) const;

  /// Renders T in the paper's notation, e.g. `if(φ, R2&~(1.*), R2)`.
  std::string toString(Tr T) const;

private:
  Tr intern(TrNode Node);
  /// canonLess for two distinct terms with equal hashes.
  bool structLess(Tr A, Tr B) const;
  /// Sorts \p Kids into canonical order and drops duplicates.
  void sortCanonical(std::vector<Tr> &Kids) const;

  /// DNF worker: rewrites T under the (satisfiable) path condition \p Path.
  Tr dnfUnder(Tr T, const CharSet &Path);
  /// Distributes an ERE leaf conjunct over a DNF transition regex.
  Tr leafInterDnf(Re A, Tr B);
  /// Computes DNF(A & B) where A is already DNF, under \p Path.
  Tr interDnf(Tr A, Tr B, const CharSet &Path);

  void collectArcs(Tr T, const CharSet &Guard,
                   std::vector<TrArc> &Out) const;

  /// Tombstone for the dense id-indexed memo slots.
  static constexpr uint32_t MissingId = 0xFFFFFFFFu;

  RegexManager &M;
  std::vector<TrNode> Nodes;
  InternTable ConsTable;
  /// Inline memo slots indexed by Tr id; ids are dense, so a flat vector
  /// with a tombstone beats a hash map on every lookup.
  std::vector<uint32_t> NegateMemo;
  std::vector<uint32_t> DnfMemo;
  CacheStats Stats;
  Tr BotTr, TopTr;
};

} // namespace sbd

#endif // SBD_CORE_TRANSITIONREGEX_H
