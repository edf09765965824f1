//===- solver/DerivativeGraph.h - The solver's regex graph G ----------------===//
///
/// \file
/// The graph G = (V, E, F, C) of Section 5. Vertices are regexes seen so
/// far; edges (v, w) record that w ∈ Q(δdnf(v)); F marks nullable (final)
/// vertices; C marks closed vertices (all outgoing edges added). From these
/// the derived sets are maintained:
///
///   Alive = { v : E*(v) ∩ F ≠ ∅ }          (can reach a final vertex)
///   Dead  = { v : E*(v) ⊆ C \ Alive }      (fully explored, never final)
///
/// Alive is propagated eagerly backwards over reverse edges whenever a final
/// vertex or an edge into an alive vertex appears. For Dead two detection
/// modes are provided:
///
///  - `IncrementalScc` (default, the paper's implementation strategy): a
///    Union-Find SCC condensation with incremental cycle detection; adding
///    a batch of edges merges the components it cyclizes, and deadness is
///    propagated recursively over the condensation (see SccIndex).
///  - `LazyReverse` (reference implementation): v is *not* dead iff some
///    vertex in E*(v) is open or alive, so Dead is the complement of
///    reverse reachability from the open-or-alive set, recomputed lazily
///    when the graph changed. Tests cross-check the two modes.
///
/// G is deliberately independent of any logical scope: deadness of a regex
/// does not depend on side constraints, so one graph can serve every query
/// of a session (and does, in RegexSolver).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SOLVER_DERIVATIVEGRAPH_H
#define SBD_SOLVER_DERIVATIVEGRAPH_H

#include "re/Regex.h"
#include "solver/SccIndex.h"
#include "support/InternTable.h"

#include <cstdint>
#include <vector>

namespace sbd {

/// Strategy for maintaining the Dead set.
enum class DeadDetection : uint8_t {
  IncrementalScc, ///< union-find SCCs + incremental propagation (paper)
  LazyReverse,    ///< lazy reverse-reachability recomputation (reference)
};

/// The persistent reachability graph over derivative regexes.
class DerivativeGraph {
public:
  explicit DerivativeGraph(RegexManager &Mgr,
                           DeadDetection Detect = DeadDetection::IncrementalScc)
      : M(Mgr), Mode(Detect) {}

  /// Interns \p R as a vertex (no-op if present); returns its index.
  uint32_t addVertex(Re R);

  /// True if R is already a vertex.
  bool hasVertex(Re R) const { return Index.find(R.Id) != nullptr; }

  /// The Upd rule (Fig. 3b): records all derivative targets of \p R and
  /// marks it closed. No effect if R is already closed.
  void close(Re R, const std::vector<Re> &Targets);

  /// Is the vertex closed (fully expanded)?
  bool isClosed(Re R) const;
  /// ν(R) — final vertex?
  bool isFinal(Re R) const;
  /// Can R reach a final vertex through recorded edges?
  bool isAlive(Re R);
  /// Is R a proven dead end (bot rule precondition)?
  bool isDead(Re R);

  /// Successor regexes of a closed/partially closed vertex.
  std::vector<Re> successors(Re R) const;

  size_t numVertices() const { return Verts.size(); }
  size_t numEdges() const { return NumEdges; }
  DeadDetection mode() const { return Mode; }

  /// Drops every vertex, edge, and SCC record, returning the graph to
  /// its freshly constructed state (same manager, same mode). Deterministic
  /// re-entry point for the differential oracle: solving the same regex
  /// after clear() explores exactly the states a fresh solver would.
  void clear();

private:
  struct Vertex {
    Re R;
    bool Final = false;
    bool Closed = false;
    bool Alive = false;
    bool DeadLazy = false;
    std::vector<uint32_t> Succ;
    std::vector<uint32_t> Pred;
  };

  void markAlive(uint32_t V);
  void recomputeDeadLazy();

  RegexManager &M;
  DeadDetection Mode;
  std::vector<Vertex> Verts;
  FlatMap64 Index; // Re.Id -> vertex index
  SccIndex Scc;
  size_t NumEdges = 0;
  bool DeadDirty = false;
};

} // namespace sbd

#endif // SBD_SOLVER_DERIVATIVEGRAPH_H
