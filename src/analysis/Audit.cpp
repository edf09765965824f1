//===- analysis/Audit.cpp - Term-DAG invariant auditor ----------------------===//

#include "analysis/Audit.h"

#include <unordered_map>
#include <vector>

using namespace sbd;
using namespace sbd::audit;

namespace {

/// Groups node ids by recomputed structural hash and reports structurally
/// equal pairs. \p Eq decides structural equality of two ids; collisions on
/// the 64-bit hash are resolved by the callback, so the scan is exact.
template <typename HashFn, typename EqFn>
void scanDuplicates(size_t NumNodes, ViolationKind Kind, HashFn &&Hash,
                    EqFn &&Eq, Report &Out) {
  std::unordered_map<uint64_t, std::vector<uint32_t>> Buckets;
  Buckets.reserve(NumNodes);
  for (uint32_t Id = 0; Id != NumNodes; ++Id) {
    std::vector<uint32_t> &B = Buckets[Hash(Id)];
    for (uint32_t Prev : B)
      if (Eq(Prev, Id))
        Out.add(Kind, Id,
                "structurally equal to node " + std::to_string(Prev) +
                    " (hash-consing must merge them)");
    B.push_back(Id);
  }
}

/// True when every child id precedes \p Id. Recomputing a hash reads the
/// children's nodes, which a corrupted forward reference must not reach;
/// such nodes share hash bucket 0 (checkReNode/checkTrNode report them).
template <typename Handle>
bool childrenPrecede(const std::vector<Handle> &Kids, uint32_t Id) {
  for (Handle K : Kids)
    if (K.Id >= Id)
      return false;
  return true;
}

} // namespace

Report audit::checkRegexArena(const RegexManager &M) {
  Report Out;
  const uint32_t NumNodes = static_cast<uint32_t>(M.numNodes());
  for (uint32_t Id = 0; Id != NumNodes; ++Id)
    checkReNode(M, Re{Id}, Out);
  scanDuplicates(
      NumNodes, ViolationKind::ReDuplicateNode,
      [&](uint32_t Id) -> uint64_t {
        return childrenPrecede(M.node(Re{Id}).Kids, Id)
                   ? detail::recomputeReHash(M, Re{Id})
                   : 0;
      },
      [&](uint32_t A, uint32_t B) {
        const RegexNode &NA = M.node(Re{A}), &NB = M.node(Re{B});
        return NA.Kind == NB.Kind && NA.PredIdx == NB.PredIdx &&
               NA.LoopMin == NB.LoopMin && NA.LoopMax == NB.LoopMax &&
               NA.Kids == NB.Kids;
      },
      Out);
  return Out;
}

Report audit::checkTrArena(const TrManager &T) {
  Report Out;
  const uint32_t NumNodes = static_cast<uint32_t>(T.numNodes());
  for (uint32_t Id = 0; Id != NumNodes; ++Id)
    checkTrNode(T, Tr{Id}, Out);
  scanDuplicates(
      NumNodes, ViolationKind::TrDuplicateNode,
      [&](uint32_t Id) -> uint64_t {
        return childrenPrecede(T.node(Tr{Id}).Kids, Id)
                   ? detail::recomputeTrHash(T, Tr{Id})
                   : 0;
      },
      [&](uint32_t A, uint32_t B) {
        const TrNode &NA = T.node(Tr{A}), &NB = T.node(Tr{B});
        return NA.Kind == NB.Kind && NA.LeafRe == NB.LeafRe &&
               NA.Cond == NB.Cond && NA.Kids == NB.Kids;
      },
      Out);
  return Out;
}

Report audit::checkAll(const RegexManager &M) { return checkRegexArena(M); }

Report audit::checkAll(const TrManager &T) {
  Report Out = checkRegexArena(T.regexManager());
  Out += checkTrArena(T);
  return Out;
}

void audit::hookCheckSatExit(const RegexManager &M, const TrManager &T) {
  Report Out = checkRegexArena(M);
  Out += checkTrArena(T);
  publish(Out, "checkSat exit");
}
