//===- core/CachedMatcher.cpp - Lazy bounded DFA over minterm ids -----------===//
// sbd-lint: hot-path

#include "core/CachedMatcher.h"

#include "analysis/AuditHooks.h"
#include "support/Histogram.h"
#include "support/Stopwatch.h"
#include "support/Unicode.h"

#include <algorithm>

using namespace sbd;

CachedMatcher::CachedMatcher(DerivativeEngine &Eng, Re Pattern, Options Opts)
    : Engine(Eng), M(Eng.regexManager()), T(Eng.trManager()),
      Compressor(Eng.regexManager().collectPredicates(Pattern)),
      NumClasses(Compressor.numClasses()),
      MaxStates(Opts.MaxStates ? Opts.MaxStates : 1) {
  // The cache starts empty, so the initial state always gets a slot.
  InitialState = internState(Pattern, DeadState, DeadState);
}

uint32_t CachedMatcher::internState(Re R, uint32_t Pin0, uint32_t Pin1) {
  if (const uint32_t *Hit = StateIndex.find(R.Id)) {
    touch(*Hit);
    return *Hit;
  }
  if (FreeSlots.empty() && States.size() >= MaxStates)
    if (!evict(Pin0, Pin1))
      return NoSlot;
  uint32_t Slot;
  if (!FreeSlots.empty()) {
    Slot = FreeSlots.back();
    FreeSlots.pop_back();
    std::fill_n(Rows.begin() +
                    static_cast<ptrdiff_t>(Slot * NumClasses),
                static_cast<ptrdiff_t>(NumClasses), DeadState);
  } else {
    Slot = static_cast<uint32_t>(States.size());
    States.push_back(State{});
    Rows.resize(States.size() * NumClasses, DeadState);
  }
  State &S = States[Slot];
  S.Regex = R;
  S.Accepting = M.nullable(R);
  S.Expanded = false;
  S.Live = true;
  StateIndex.insert(R.Id, Slot);
  touch(Slot);
  return Slot;
}

bool CachedMatcher::evict(uint32_t Pin0, uint32_t Pin1) {
  // Batch LRU-ish eviction: drop the least-recently-touched half of the
  // unpinned live states (amortizes the index rebuild over many frees, the
  // RE2 cache-flush argument). Pinned slots — the state being expanded, the
  // match loop's current state, and the initial state — always survive.
  std::vector<uint32_t> Cands;
  Cands.reserve(States.size());
  for (uint32_t I = 0; I != States.size(); ++I)
    if (States[I].Live && I != Pin0 && I != Pin1 && I != InitialState)
      Cands.push_back(I);
  if (Cands.empty())
    return false;
  size_t NumVictims = (Cands.size() + 1) / 2;
  std::nth_element(Cands.begin(),
                   Cands.begin() + static_cast<ptrdiff_t>(NumVictims - 1),
                   Cands.end(), [&](uint32_t A, uint32_t B) {
                     return States[A].LastTouch < States[B].LastTouch;
                   });
  Cands.resize(NumVictims);

  std::vector<char> IsVictim(States.size(), 0);
  for (uint32_t V : Cands) {
    States[V].Live = false;
    States[V].Expanded = false;
    IsVictim[V] = 1;
    FreeSlots.push_back(V);
  }
  Evicted += NumVictims;
  SBD_OBS_ADD(DfaEvictions, NumVictims);
  ++EvictEpoch;

  // FlatMap64 has no erase; rebuild the Re.Id -> slot index from survivors.
  StateIndex.clear();
  for (uint32_t I = 0; I != States.size(); ++I)
    if (States[I].Live)
      StateIndex.insert(States[I].Regex.Id, I);

  // A survivor row that references a victim would silently point at the
  // slot's future occupant; un-expand those rows so they refill on demand.
  for (uint32_t I = 0; I != States.size(); ++I) {
    if (!States[I].Live || !States[I].Expanded)
      continue;
    const uint32_t *Row = &Rows[I * NumClasses];
    for (size_t C = 0; C != NumClasses; ++C)
      if (Row[C] != DeadState && IsVictim[Row[C]]) {
        States[I].Expanded = false;
        break;
      }
  }
  return true;
}

bool CachedMatcher::expand(uint32_t Slot) {
  // One probe of the class representative decides the whole class: guards
  // in δdnf(R) are Boolean combinations of the pattern's predicates, for
  // which the compressor's minterms are uniform by construction.
  Re R = States[Slot].Regex;
  std::vector<TrArc> Arcs = T.arcs(Engine.derivativeDnf(R));
  std::vector<Re> Targets(NumClasses, M.empty());
  for (size_t C = 0; C != NumClasses; ++C) {
    uint32_t Rep = Compressor.representative(static_cast<uint16_t>(C));
    std::vector<Re> Parts;
    for (const TrArc &A : Arcs)
      if (A.Guard.contains(Rep))
        Parts.push_back(A.Target);
    if (!Parts.empty())
      Targets[C] = M.unionList(std::move(Parts));
  }

  // Interning a target can trigger an eviction that reclaims a target
  // interned earlier in this same row; the epoch check detects that and
  // retries (every target was just touched, so the second pass almost
  // always sticks). If the cap cannot hold the row at all, give up and let
  // the caller fall back to uncached stepping.
  uint32_t *Row = &Rows[Slot * NumClasses];
  for (int Attempt = 0; Attempt != 3; ++Attempt) {
    uint64_t Epoch = EvictEpoch;
    bool Stable = true;
    for (size_t C = 0; C != NumClasses; ++C) {
      uint32_t Tgt = DeadState;
      if (!(Targets[C] == M.empty())) {
        Tgt = internState(Targets[C], Slot, InitialState);
        if (Tgt == NoSlot)
          return false;
        // Eviction may have moved Rows' storage? No — Rows never grows
        // during eviction, only in internState's fresh-slot path.
        Row = &Rows[Slot * NumClasses];
      }
      Row[C] = Tgt;
      if (EvictEpoch != Epoch) {
        Stable = false;
        break;
      }
    }
    if (Stable) {
      States[Slot].Expanded = true;
      SBD_OBS_INC(DfaStatesBuilt);
#if SBD_AUDIT
      auditRowHook(Slot);
#endif
      return true;
    }
  }
  return false;
}

uint32_t CachedMatcher::step(uint32_t Slot, uint16_t Cls) {
  if (!States[Slot].Expanded && !expand(Slot))
    return NoSlot;
  return Rows[Slot * NumClasses + Cls];
}

bool CachedMatcher::feed(uint32_t &Slot, Re &Cur, uint32_t Cp) {
  if (Slot != NoSlot) {
    uint32_t Next = step(Slot, Compressor.classOf(Cp));
    if (Next == DeadState)
      return false;
    if (Next != NoSlot) {
      Slot = Next;
      return true;
    }
    // Cap pressure: continue from this state's regex on the uncached path.
    Cur = States[Slot].Regex;
    Slot = NoSlot;
  }
  ++FallbackSteps;
  Cur = T.apply(Engine.derivativeDnf(Cur), Cp);
  if (Cur == M.empty())
    return false;
  // Re-enter the cache when the derivative lands on a state that is still
  // resident (lookup only — interning here would just churn the cap).
  if (const uint32_t *Hit = StateIndex.find(Cur.Id)) {
    Slot = *Hit;
    touch(Slot);
  }
  return true;
}

bool CachedMatcher::accepted(uint32_t Slot, Re Cur) {
  if (Slot != NoSlot) {
    touch(Slot);
    return States[Slot].Accepting;
  }
  return M.nullable(Cur);
}

bool CachedMatcher::matches(const std::vector<uint32_t> &Word) {
#if SBD_OBS
  Stopwatch ScanTimer;
#endif
  uint32_t Slot = InitialState;
  Re Cur = States[InitialState].Regex;
  touch(Slot);
  bool Ok = true;
  for (uint32_t Cp : Word)
    if (!feed(Slot, Cur, Cp)) {
      Ok = false;
      break;
    }
  if (Ok)
    Ok = accepted(Slot, Cur);
  SBD_OBS_HIST(LazyScanUs, ScanTimer.elapsedUs());
  SBD_OBS_ADD(ScanTimeUs, ScanTimer.elapsedUs());
  return Ok;
}

bool CachedMatcher::matches(const std::string &Utf8) {
#if SBD_OBS
  Stopwatch ScanTimer;
#endif
  // Streaming decode: no intermediate code-point buffer.
  uint32_t Slot = InitialState;
  Re Cur = States[InitialState].Regex;
  touch(Slot);
  bool Ok = true;
  for (size_t I = 0; I < Utf8.size();) {
    uint32_t Cp = static_cast<uint8_t>(Utf8[I]);
    if (Cp < 0x80)
      ++I; // ASCII fast path: byte == code point
    else
      Cp = decodeUtf8At(Utf8, I);
    if (!feed(Slot, Cur, Cp)) {
      Ok = false;
      break;
    }
  }
  if (Ok)
    Ok = accepted(Slot, Cur);
  SBD_OBS_HIST(LazyScanUs, ScanTimer.elapsedUs());
  SBD_OBS_ADD(ScanTimeUs, ScanTimer.elapsedUs());
  return Ok;
}

size_t CachedMatcher::cachedArcs() const {
  size_t N = 0;
  for (uint32_t I = 0; I != States.size(); ++I) {
    if (!States[I].Live || !States[I].Expanded)
      continue;
    const uint32_t *Row = &Rows[I * NumClasses];
    for (size_t C = 0; C != NumClasses; ++C)
      N += Row[C] != DeadState;
  }
  return N;
}

size_t CachedMatcher::auditRow(uint32_t Slot) {
  if (!States[Slot].Live || !States[Slot].Expanded)
    return 0;
  // Independent route: evaluate the conditional transition regex directly
  // on each class representative (TrManager::apply), bypassing the arc
  // enumeration + per-class union that built the row. Both routes intern
  // through the same smart constructors, so a healthy row matches node-for-
  // node; any divergence (stale row after eviction, compressor/partition
  // bug, corrupted entry) shows up as a mismatch.
  Tr Dnf = Engine.derivativeDnf(States[Slot].Regex);
  size_t Bad = 0;
  const uint32_t *Row = &Rows[Slot * NumClasses];
  for (size_t C = 0; C != NumClasses; ++C) {
    Re Expect = T.apply(Dnf, Compressor.representative(static_cast<uint16_t>(C)));
    uint32_t Got = Row[C];
    if (Expect == M.empty()) {
      Bad += Got != DeadState;
      continue;
    }
    Bad += Got == DeadState || Got >= States.size() || !States[Got].Live ||
           States[Got].Regex != Expect;
  }
  return Bad;
}

size_t CachedMatcher::auditRows() {
  size_t Bad = 0;
  for (uint32_t I = 0; I != States.size(); ++I)
    Bad += auditRow(I);
  return Bad;
}

void CachedMatcher::corruptRowForTest(size_t Slot, uint16_t Cls,
                                      uint32_t Value) {
  if (Slot < States.size() && States[Slot].Expanded && Cls < NumClasses)
    Rows[Slot * NumClasses + Cls] = Value;
}

#if SBD_AUDIT
void CachedMatcher::auditRowHook(uint32_t Slot) {
  size_t Bad = auditRow(Slot);
  audit::Report Out;
  Out.noteChecked(NumClasses);
  for (size_t I = 0; I != Bad; ++I)
    Out.add(audit::ViolationKind::DfaRowMismatch, States[Slot].Regex.Id,
            "dense row entry disagrees with uncompressed δdnf");
  audit::publish(Out, "dense row");
}
#endif
