//===- re/Regex.cpp - Symbolic extended regular expressions ----------------===//
// sbd-lint: hot-path

#include "re/Regex.h"

#include "analysis/AuditHooks.h"
#include "support/Debug.h"
#include "support/Hashing.h"

#include <algorithm>
#include <set>

using namespace sbd;

RegexManager::RegexManager() {
  // Intern the distinguished terms once, in a fixed order, so their ids are
  // stable across runs.
  RegexNode EmptyNode;
  EmptyNode.Kind = RegexKind::Empty;
  EmptyNode.Nullable = false;
  EmptyNode.Size = 1;
  EmptyNode.NumPreds = 0;
  EmptyNode.StarHeight = 0;
  EmptyRe = intern(std::move(EmptyNode));

  RegexNode EpsNode;
  EpsNode.Kind = RegexKind::Epsilon;
  EpsNode.Nullable = true;
  EpsNode.Size = 1;
  EpsNode.NumPreds = 0;
  EpsNode.StarHeight = 0;
  EpsilonRe = intern(std::move(EpsNode));

  AnyCharRe = pred(CharSet::full());
  TopRe = star(AnyCharRe);
}

uint32_t RegexManager::internSet(const CharSet &Set) {
  uint64_t H = Set.hash();
  return SetTable.findOrInsert(
      H, [&](uint32_t Idx) { return Sets[Idx] == Set; },
      [&] {
        uint32_t Idx = static_cast<uint32_t>(Sets.size());
        Sets.push_back(Set);
        SetHashes.push_back(H);
        return Idx;
      },
      Stats);
}

uint64_t RegexManager::hashNode(const RegexNode &Node) const {
  uint64_t H = hashMix(static_cast<uint64_t>(Node.Kind));
  H = hashCombine(H, Node.Kind == RegexKind::Pred ? SetHashes[Node.PredIdx]
                                                  : 0);
  H = hashCombine(H, Node.LoopMin);
  H = hashCombine(H, Node.LoopMax);
  for (Re Kid : Node.Kids)
    H = hashCombine(H, Nodes[Kid.Id].Hash);
  return H;
}

bool RegexManager::nodeEquals(const RegexNode &A, const RegexNode &B) const {
  return A.Kind == B.Kind && A.PredIdx == B.PredIdx &&
         A.LoopMin == B.LoopMin && A.LoopMax == B.LoopMax && A.Kids == B.Kids;
}

bool RegexManager::structLess(Re A, Re B) const {
  const RegexNode &NA = node(A), &NB = node(B);
  if (NA.Kind != NB.Kind)
    return NA.Kind < NB.Kind;
  if (NA.Kind == RegexKind::Pred)
    return Sets[NA.PredIdx] < Sets[NB.PredIdx];
  if (NA.LoopMin != NB.LoopMin)
    return NA.LoopMin < NB.LoopMin;
  if (NA.LoopMax != NB.LoopMax)
    return NA.LoopMax < NB.LoopMax;
  if (NA.Kids.size() != NB.Kids.size())
    return NA.Kids.size() < NB.Kids.size();
  for (size_t I = 0; I != NA.Kids.size(); ++I)
    if (NA.Kids[I] != NB.Kids[I])
      return canonLess(NA.Kids[I], NB.Kids[I]);
  return false; // structurally equal: the same interned node
}

Re RegexManager::intern(RegexNode Node) {
  uint64_t H = hashNode(Node);
  Node.Hash = H;
#if SBD_AUDIT
  const size_t SizeBefore = Nodes.size();
#endif
  uint32_t Id = ConsTable.findOrInsert(
      H, [&](uint32_t Cand) { return nodeEquals(Nodes[Cand], Node); },
      [&] {
        uint32_t NewId = static_cast<uint32_t>(Nodes.size());
        Nodes.push_back(std::move(Node));
        return NewId;
      },
      Stats);
#if SBD_AUDIT
  if (Nodes.size() != SizeBefore)
    SBD_AUDIT_RE_NODE(*this, Re{Id});
#endif
  return Re{Id};
}

void RegexManager::reserve(size_t NumNodes) {
  Nodes.reserve(NumNodes);
  ConsTable.reserve(NumNodes);
}

const CharSet &RegexManager::predSet(Re R) const {
  const RegexNode &N = node(R);
  assert(N.Kind == RegexKind::Pred && "predSet on non-predicate node");
  return Sets[N.PredIdx];
}

Re RegexManager::pred(const CharSet &Set) {
  if (Set.isEmpty())
    return EmptyRe;
  RegexNode N;
  N.Kind = RegexKind::Pred;
  N.Nullable = false;
  N.PredIdx = internSet(Set);
  N.Size = 1;
  N.NumPreds = 1;
  N.StarHeight = 0;
  return intern(std::move(N));
}

Re RegexManager::word(const std::vector<uint32_t> &Cps) {
  Re Result = EpsilonRe;
  for (auto It = Cps.rbegin(); It != Cps.rend(); ++It)
    Result = concat(chr(*It), Result);
  return Result;
}

Re RegexManager::literal(const std::string &Ascii) {
  std::vector<uint32_t> Cps(Ascii.begin(), Ascii.end());
  return word(Cps);
}

Re RegexManager::concat(Re A, Re B) {
  if (A == EmptyRe || B == EmptyRe)
    return EmptyRe;
  if (A == EpsilonRe)
    return B;
  if (B == EpsilonRe)
    return A;
  // Right-associate: peel the left spine of A iteratively (A may be a long
  // chain; recursion would be O(|A|) deep).
  std::vector<Re> Spine;
  Re Cursor = A;
  while (kind(Cursor) == RegexKind::Concat) {
    Spine.push_back(node(Cursor).Kids[0]);
    Cursor = node(Cursor).Kids[1];
  }
  Spine.push_back(Cursor);
  Re Result = B;
  for (auto It = Spine.rbegin(); It != Spine.rend(); ++It) {
    Re Left = *It;
    assert(kind(Left) != RegexKind::Concat && "left spine not flat");
    RegexNode N;
    N.Kind = RegexKind::Concat;
    N.Kids = {Left, Result};
    N.Nullable = nullable(Left) && nullable(Result);
    N.Size = 1 + node(Left).Size + node(Result).Size;
    N.NumPreds = node(Left).NumPreds + node(Result).NumPreds;
    N.StarHeight = std::max(node(Left).StarHeight, node(Result).StarHeight);
    Result = intern(std::move(N));
  }
  return Result;
}

Re RegexManager::concatList(const std::vector<Re> &Rs) {
  Re Result = EpsilonRe;
  for (auto It = Rs.rbegin(); It != Rs.rend(); ++It)
    Result = concat(*It, Result);
  return Result;
}

Re RegexManager::star(Re R) {
  if (R == EpsilonRe || R == EmptyRe)
    return EpsilonRe;
  if (kind(R) == RegexKind::Star)
    return R; // (R*)* = R*
  // (R{m,n})* = R* when m <= 1: the generators include R itself.
  if (kind(R) == RegexKind::Loop && node(R).LoopMin <= 1)
    return star(node(R).Kids[0]);
  RegexNode N;
  N.Kind = RegexKind::Star;
  N.Kids = {R};
  N.Nullable = true;
  N.Size = 1 + node(R).Size;
  N.NumPreds = node(R).NumPreds;
  N.StarHeight = 1 + node(R).StarHeight;
  return intern(std::move(N));
}

Re RegexManager::loop(Re R, uint32_t Min, uint32_t Max) {
  assert(Min <= Max && "inverted loop bounds");
  // For nullable bodies the powers form an increasing chain, so
  // R{m,n} = R{0,n} (Section 3 semantics).
  if (nullable(R))
    Min = 0;
  if (Max == 0)
    return EpsilonRe;
  if (R == EpsilonRe)
    return EpsilonRe;
  if (R == EmptyRe)
    return Min == 0 ? EpsilonRe : EmptyRe;
  if (Min == 1 && Max == 1)
    return R;
  if (Min == 0 && Max == LoopInf)
    return star(R);
  // (S*){0,n} = S* — Min is already 0 here because Star is nullable.
  if (kind(R) == RegexKind::Star)
    return R;
  RegexNode N;
  N.Kind = RegexKind::Loop;
  N.Kids = {R};
  N.LoopMin = Min;
  N.LoopMax = Max;
  N.Nullable = Min == 0;
  N.Size = 1 + node(R).Size;
  N.NumPreds = node(R).NumPreds;
  N.StarHeight = node(R).StarHeight + (Max == LoopInf ? 1 : 0);
  return intern(std::move(N));
}

void RegexManager::flattenInto(RegexKind K, Re R, std::vector<Re> &Out) const {
  if (kind(R) != K) {
    Out.push_back(R);
    return;
  }
  for (Re Kid : node(R).Kids)
    Out.push_back(Kid); // children of an interned |/& node are already flat
}

Re RegexManager::makeBoolean(RegexKind K, std::vector<Re> Rs) {
  assert((K == RegexKind::Union || K == RegexKind::Inter) &&
         "makeBoolean is only for | and &");
  bool IsUnion = K == RegexKind::Union;
  Re Unit = IsUnion ? EmptyRe : TopRe;      // dropped
  Re Absorber = IsUnion ? TopRe : EmptyRe;  // dominates

  std::vector<Re> Flat;
  for (Re R : Rs)
    flattenInto(K, R, Flat);

  // Merge predicate leaves into the character algebra and filter units.
  CharSet MergedPred; // starts ⊥; for & we start ⊤ once we see a pred
  bool SawPred = false;
  std::vector<Re> Kids;
  for (Re R : Flat) {
    if (R == Absorber)
      return Absorber;
    if (R == Unit)
      continue;
    if (kind(R) == RegexKind::Pred) {
      const CharSet &S = predSet(R);
      if (!SawPred) {
        MergedPred = S;
        SawPred = true;
      } else {
        MergedPred =
            IsUnion ? MergedPred.unionWith(S) : MergedPred.intersectWith(S);
      }
      continue;
    }
    Kids.push_back(R);
  }
  if (SawPred) {
    Re Merged = pred(MergedPred); // ⊥ when the intersection is empty
    if (Merged == Absorber)
      return Absorber;
    if (Merged != Unit)
      Kids.push_back(Merged);
  }

  auto Less = [this](Re A, Re B) { return canonLess(A, B); };
  auto has = [&](Re R) {
    return std::binary_search(Kids.begin(), Kids.end(), R, Less);
  };
  std::sort(Kids.begin(), Kids.end(), Less);
  Kids.erase(std::unique(Kids.begin(), Kids.end()), Kids.end());

  // ε & X = ε if ν(X) else ⊥; ε | X = X when ν(X).
  if (has(EpsilonRe)) {
    if (!IsUnion) {
      for (Re R : Kids)
        if (!nullable(R))
          return EmptyRe;
      return EpsilonRe;
    }
    bool OtherNullable = false;
    for (Re R : Kids)
      if (R != EpsilonRe && nullable(R)) {
        OtherNullable = true;
        break;
      }
    if (OtherNullable)
      Kids.erase(std::find(Kids.begin(), Kids.end(), EpsilonRe));
  }

  // X op ~X collapses to the absorber (R | ~R = .*; R & ~R = ⊥). When the
  // complemented operand has this same Boolean kind its children were
  // flattened into Kids, so check for them instead.
  for (Re R : Kids) {
    if (kind(R) != RegexKind::Compl)
      continue;
    Re Op = node(R).Kids[0];
    if (has(Op))
      return Absorber;
    if (kind(Op) == K) {
      bool AllPresent = true;
      for (Re OpKid : node(Op).Kids)
        if (!has(OpKid)) {
          AllPresent = false;
          break;
        }
      if (AllPresent)
        return Absorber;
    }
  }

  // Absorption/subsumption: in a union, X&Y&Z is subsumed by X&Y (and by
  // the plain kid X); dually in an intersection, X|Y|Z is subsumed by X|Y.
  // A dual-kind kid A is dropped when the member set of some other kid B is
  // a subset of A's member set (members of a non-dual kid are just {kid}).
  RegexKind Dual = IsUnion ? RegexKind::Inter : RegexKind::Union;
  auto members = [&](Re R) -> std::vector<Re> {
    if (kind(R) == Dual)
      return node(R).Kids; // in canonical order by construction
    return {R};
  };
  std::vector<bool> Drop(Kids.size(), false);
  bool AnyDropped = false;
  for (size_t I = 0; I != Kids.size(); ++I) {
    if (kind(Kids[I]) != Dual)
      continue;
    std::vector<Re> Mine = members(Kids[I]);
    for (size_t J = 0; J != Kids.size() && !Drop[I]; ++J) {
      if (I == J || Drop[J])
        continue;
      std::vector<Re> Other = members(Kids[J]);
      if (Other.size() < Mine.size() &&
          std::includes(Mine.begin(), Mine.end(), Other.begin(), Other.end(),
                        Less)) {
        Drop[I] = true;
        AnyDropped = true;
      }
    }
  }
  if (AnyDropped) {
    std::vector<Re> Kept;
    Kept.reserve(Kids.size());
    for (size_t I = 0; I != Kids.size(); ++I)
      if (!Drop[I])
        Kept.push_back(Kids[I]);
    Kids = std::move(Kept);
  }

  if (Kids.empty())
    return Unit;
  if (Kids.size() == 1)
    return Kids[0];

  RegexNode N;
  N.Kind = K;
  N.Kids = std::move(Kids);
  N.Size = 1;
  N.NumPreds = 0;
  N.StarHeight = 0;
  N.Nullable = !IsUnion;
  for (Re R : N.Kids) {
    N.Size += node(R).Size;
    N.NumPreds += node(R).NumPreds;
    N.StarHeight = std::max(N.StarHeight, node(R).StarHeight);
    if (IsUnion)
      N.Nullable = N.Nullable || nullable(R);
    else
      N.Nullable = N.Nullable && nullable(R);
  }
  return intern(std::move(N));
}

Re RegexManager::union_(Re A, Re B) {
  return makeBoolean(RegexKind::Union, {A, B});
}

Re RegexManager::unionList(std::vector<Re> Rs) {
  return makeBoolean(RegexKind::Union, std::move(Rs));
}

Re RegexManager::inter(Re A, Re B) {
  return makeBoolean(RegexKind::Inter, {A, B});
}

Re RegexManager::interList(std::vector<Re> Rs) {
  return makeBoolean(RegexKind::Inter, std::move(Rs));
}

Re RegexManager::complement(Re R) {
  if (kind(R) == RegexKind::Compl)
    return node(R).Kids[0]; // ~~R = R
  if (R == EmptyRe)
    return TopRe; // ~⊥ = .*
  if (R == TopRe)
    return EmptyRe; // ~.* = ⊥
  RegexNode N;
  N.Kind = RegexKind::Compl;
  N.Kids = {R};
  N.Nullable = !nullable(R);
  N.Size = 1 + node(R).Size;
  N.NumPreds = node(R).NumPreds;
  N.StarHeight = node(R).StarHeight;
  return intern(std::move(N));
}

bool RegexManager::isClean(Re R) const {
  if (R == EmptyRe)
    return false;
  for (Re Kid : node(R).Kids)
    if (!isClean(Kid))
      return false;
  return true;
}

bool RegexManager::isNormalized(Re R) const {
  const RegexNode &N = node(R);
  if (N.Kind == RegexKind::Concat &&
      kind(N.Kids[0]) == RegexKind::Concat)
    return false;
  for (Re Kid : N.Kids)
    if (!isNormalized(Kid))
      return false;
  return true;
}

bool RegexManager::isPlainRe(Re R) const {
  const RegexNode &N = node(R);
  if (N.Kind == RegexKind::Compl || N.Kind == RegexKind::Inter)
    return false;
  for (Re Kid : N.Kids)
    if (!isPlainRe(Kid))
      return false;
  return true;
}

bool RegexManager::isBooleanOverRe(Re R) const {
  const RegexNode &N = node(R);
  switch (N.Kind) {
  case RegexKind::Compl:
  case RegexKind::Union:
  case RegexKind::Inter: {
    for (Re Kid : N.Kids)
      if (!isBooleanOverRe(Kid))
        return false;
    return true;
  }
  default:
    return isPlainRe(R);
  }
}

bool RegexManager::isLoopFree(Re R) const {
  const RegexNode &N = node(R);
  if (N.Kind == RegexKind::Loop)
    return false;
  for (Re Kid : N.Kids)
    if (!isLoopFree(Kid))
      return false;
  return true;
}

std::vector<CharSet> RegexManager::collectPredicates(Re R) const {
  std::set<CharSet> Seen;
  std::vector<CharSet> Out;
  std::vector<Re> Stack = {R};
  std::set<uint32_t> Visited;
  while (!Stack.empty()) {
    Re Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur.Id).second)
      continue;
    const RegexNode &N = node(Cur);
    if (N.Kind == RegexKind::Pred && Seen.insert(Sets[N.PredIdx]).second)
      Out.push_back(Sets[N.PredIdx]);
    for (Re Kid : N.Kids)
      Stack.push_back(Kid);
  }
  return Out;
}

/// Printing precedence: Union(0) < Inter(1) < Concat(2) < Compl(3) <
/// Postfix(4) < Atom(5).
static int nodePrec(RegexKind K) {
  switch (K) {
  case RegexKind::Union:
    return 0;
  case RegexKind::Inter:
    return 1;
  case RegexKind::Concat:
    return 2;
  case RegexKind::Compl:
    return 3;
  case RegexKind::Star:
  case RegexKind::Loop:
    return 4;
  case RegexKind::Empty:
  case RegexKind::Epsilon:
  case RegexKind::Pred:
    return 5;
  }
  sbd_unreachable("covered switch");
}

void RegexManager::printPrec(Re R, int ParentPrec, std::string &Out) const {
  const RegexNode &N = node(R);
  int Prec = nodePrec(N.Kind);
  bool Paren = Prec < ParentPrec;
  if (Paren)
    Out += '(';
  switch (N.Kind) {
  case RegexKind::Empty:
    Out += "[]";
    break;
  case RegexKind::Epsilon:
    Out += "()";
    break;
  case RegexKind::Pred:
    Out += Sets[N.PredIdx].str();
    break;
  case RegexKind::Concat:
    printPrec(N.Kids[0], 3, Out);
    printPrec(N.Kids[1], 2, Out);
    break;
  case RegexKind::Star:
    printPrec(N.Kids[0], 5, Out);
    Out += '*';
    break;
  case RegexKind::Loop: {
    printPrec(N.Kids[0], 5, Out);
    Out += '{';
    Out += std::to_string(N.LoopMin);
    if (N.LoopMax == LoopInf) {
      Out += ",}";
    } else if (N.LoopMax != N.LoopMin) {
      Out += ',';
      Out += std::to_string(N.LoopMax);
      Out += '}';
    } else {
      Out += '}';
    }
    break;
  }
  case RegexKind::Union:
    for (size_t I = 0; I != N.Kids.size(); ++I) {
      if (I)
        Out += '|';
      printPrec(N.Kids[I], 1, Out);
    }
    break;
  case RegexKind::Inter:
    for (size_t I = 0; I != N.Kids.size(); ++I) {
      if (I)
        Out += '&';
      printPrec(N.Kids[I], 2, Out);
    }
    break;
  case RegexKind::Compl:
    Out += '~';
    printPrec(N.Kids[0], 4, Out);
    break;
  }
  if (Paren)
    Out += ')';
}

std::string RegexManager::toString(Re R) const {
  std::string Out;
  printPrec(R, 0, Out);
  return Out;
}
