//===- charset/AlphabetCompressor.cpp - Mintermized alphabet compression ----===//

#include "charset/AlphabetCompressor.h"

#include "support/Metrics.h"

#include <algorithm>
#include <map>

using namespace sbd;

AlphabetCompressor::AlphabetCompressor(const std::vector<CharSet> &Preds) {
  // Event sweep over interval boundaries. Every range contributes a
  // "predicate turns on" event at Lo and a "turns off" event at Hi+1; the
  // membership signature is maintained incrementally, so the sweep is
  // O(B log B + B * words) in the number of boundaries B rather than the
  // O(B * |Preds| * log ranges) of a per-segment containment probe.
  struct Event {
    uint32_t Pos;
    uint32_t Pred;
    bool Start;
  };
  std::vector<Event> Events;
  std::vector<uint32_t> Bounds;
  Events.reserve(Preds.size() * 2);
  Bounds.reserve(Preds.size() * 2 + 1);
  Bounds.push_back(0);
  for (size_t P = 0; P != Preds.size(); ++P) {
    for (const CharRange &R : Preds[P].ranges()) {
      Bounds.push_back(R.Lo);
      Events.push_back({R.Lo, static_cast<uint32_t>(P), true});
      if (R.Hi < MaxCodePoint) {
        Bounds.push_back(R.Hi + 1);
        Events.push_back({R.Hi + 1, static_cast<uint32_t>(P), false});
      }
    }
  }
  std::sort(Bounds.begin(), Bounds.end());
  Bounds.erase(std::unique(Bounds.begin(), Bounds.end()), Bounds.end());
  std::sort(Events.begin(), Events.end(),
            [](const Event &A, const Event &B) { return A.Pos < B.Pos; });

  // Group segments by signature; class ids are assigned in order of first
  // appearance, i.e. ascending by the class's minimum element (class 0
  // always contains code point 0). The map is touched once per segment.
  size_t NumWords = (Preds.size() + 63) / 64;
  std::vector<uint64_t> Sig(NumWords, 0);
  std::map<std::vector<uint64_t>, uint16_t> ClassOfSig;
  SegmentStarts.reserve(Bounds.size());
  SegmentClasses.reserve(Bounds.size());

  size_t NextEvent = 0;
  for (uint32_t Start : Bounds) {
    for (; NextEvent != Events.size() && Events[NextEvent].Pos == Start;
         ++NextEvent) {
      const Event &E = Events[NextEvent];
      Sig[E.Pred / 64] ^= (1ULL << (E.Pred % 64));
    }
    auto [It, Fresh] = ClassOfSig.try_emplace(
        Sig, static_cast<uint16_t>(ClassOfSig.size()));
    if (Fresh)
      Reps.push_back(Start);
    SegmentStarts.push_back(Start);
    SegmentClasses.push_back(It->second);
  }

  // Upgrade representatives to printable ASCII where the class allows it
  // (witness strings read better). One extra pass over the segments.
  for (size_t I = 0; I != SegmentStarts.size(); ++I) {
    uint32_t Lo = SegmentStarts[I];
    uint32_t Hi =
        (I + 1 != SegmentStarts.size()) ? SegmentStarts[I + 1] - 1
                                        : MaxCodePoint;
    uint16_t Cls = SegmentClasses[I];
    uint32_t &Rep = Reps[Cls];
    bool RepPrintable = Rep >= 0x21 && Rep <= 0x7E;
    if (!RepPrintable && Lo <= 0x7E && Hi >= 0x21)
      Rep = std::max<uint32_t>(Lo, 0x21);
  }

  SBD_OBS_ADD(AlphabetMinterms, numClasses());
}

CharSet AlphabetCompressor::classSet(uint16_t Cls) const {
  std::vector<CharRange> Rs;
  for (size_t I = 0; I != SegmentStarts.size(); ++I) {
    if (SegmentClasses[I] != Cls)
      continue;
    uint32_t Hi = (I + 1 != SegmentStarts.size()) ? SegmentStarts[I + 1] - 1
                                                  : MaxCodePoint;
    Rs.push_back({SegmentStarts[I], Hi});
  }
  return CharSet::fromRanges(std::move(Rs));
}

std::vector<CharSet> AlphabetCompressor::classSets() const {
  // One pass: bucket segment ranges by class, then canonicalize each.
  std::vector<std::vector<CharRange>> Buckets(numClasses());
  for (size_t I = 0; I != SegmentStarts.size(); ++I) {
    uint32_t Hi = (I + 1 != SegmentStarts.size()) ? SegmentStarts[I + 1] - 1
                                                  : MaxCodePoint;
    Buckets[SegmentClasses[I]].push_back({SegmentStarts[I], Hi});
  }
  std::vector<CharSet> Out;
  Out.reserve(Buckets.size());
  for (std::vector<CharRange> &Rs : Buckets)
    Out.push_back(CharSet::fromRanges(std::move(Rs)));
  return Out;
}
