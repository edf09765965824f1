//===- solver/DerivativeGraph.cpp - The solver's regex graph G --------------===//

#include "solver/DerivativeGraph.h"

#include <algorithm>
#include <cassert>

using namespace sbd;

void DerivativeGraph::clear() {
  Verts.clear();
  Index.clear();
  Scc = SccIndex();
  NumEdges = 0;
  DeadDirty = false;
}

uint32_t DerivativeGraph::addVertex(Re R) {
  if (const uint32_t *Hit = Index.find(R.Id))
    return *Hit;
  uint32_t V = static_cast<uint32_t>(Verts.size());
  Vertex Vx;
  Vx.R = R;
  Vx.Final = M.nullable(R);
  Verts.push_back(std::move(Vx));
  Index.insert(R.Id, V);
  Scc.addVertex(V);
  if (Verts[V].Final)
    markAlive(V);
  // A new open vertex can resurrect paths that looked dead (lazy mode).
  DeadDirty = true;
  return V;
}

void DerivativeGraph::close(Re R, const std::vector<Re> &Targets) {
  uint32_t V = addVertex(R);
  if (Verts[V].Closed)
    return; // upd has no effect on closed vertices
  for (Re Target : Targets) {
    uint32_t W = addVertex(Target);
    // Dedup parallel edges.
    if (std::find(Verts[V].Succ.begin(), Verts[V].Succ.end(), W) !=
        Verts[V].Succ.end())
      continue;
    Verts[V].Succ.push_back(W);
    Verts[W].Pred.push_back(V);
    ++NumEdges;
    Scc.addEdge(V, W);
    if (Verts[W].Alive)
      markAlive(V);
  }
  Verts[V].Closed = true;
  Scc.closeVertex(V);
  DeadDirty = true;
}

bool DerivativeGraph::isClosed(Re R) const {
  const uint32_t *Hit = Index.find(R.Id);
  return Hit && Verts[*Hit].Closed;
}

bool DerivativeGraph::isFinal(Re R) const {
  const uint32_t *Hit = Index.find(R.Id);
  return Hit && Verts[*Hit].Final;
}

bool DerivativeGraph::isAlive(Re R) {
  const uint32_t *Hit = Index.find(R.Id);
  return Hit && Verts[*Hit].Alive;
}

bool DerivativeGraph::isDead(Re R) {
  const uint32_t *Hit = Index.find(R.Id);
  if (!Hit)
    return false;
  if (Mode == DeadDetection::IncrementalScc)
    return Scc.isDead(*Hit);
  if (DeadDirty)
    recomputeDeadLazy();
  return Verts[*Hit].DeadLazy;
}

std::vector<Re> DerivativeGraph::successors(Re R) const {
  std::vector<Re> Out;
  const uint32_t *Hit = Index.find(R.Id);
  if (!Hit)
    return Out;
  for (uint32_t W : Verts[*Hit].Succ)
    Out.push_back(Verts[W].R);
  return Out;
}

void DerivativeGraph::markAlive(uint32_t V) {
  if (Verts[V].Alive)
    return;
  // Alive propagates backwards: every predecessor of an alive vertex can
  // reach F through it.
  std::vector<uint32_t> Stack = {V};
  Verts[V].Alive = true;
  Scc.markAlive(V);
  while (!Stack.empty()) {
    uint32_t Cur = Stack.back();
    Stack.pop_back();
    for (uint32_t P : Verts[Cur].Pred) {
      if (Verts[P].Alive)
        continue;
      Verts[P].Alive = true;
      Scc.markAlive(P);
      Stack.push_back(P);
    }
  }
}

void DerivativeGraph::recomputeDeadLazy() {
  DeadDirty = false;
  // v is not dead iff it can reach an open or alive vertex; compute the
  // not-dead set by reverse reachability from { open ∨ alive }.
  std::vector<uint32_t> Stack;
  std::vector<bool> NotDead(Verts.size(), false);
  for (uint32_t V = 0; V != Verts.size(); ++V) {
    if (!Verts[V].Closed || Verts[V].Alive) {
      NotDead[V] = true;
      Stack.push_back(V);
    }
  }
  while (!Stack.empty()) {
    uint32_t Cur = Stack.back();
    Stack.pop_back();
    for (uint32_t P : Verts[Cur].Pred) {
      if (NotDead[P])
        continue;
      NotDead[P] = true;
      Stack.push_back(P);
    }
  }
  for (uint32_t V = 0; V != Verts.size(); ++V) {
    assert((!Verts[V].DeadLazy || !NotDead[V]) && "dead vertices stay dead");
    Verts[V].DeadLazy = !NotDead[V];
  }
}
