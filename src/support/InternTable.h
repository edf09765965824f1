//===- support/InternTable.h - Flat open-addressing hash tables -------------===//
// sbd-lint: hot-path
///
/// \file
/// The two flat hash containers the hot path runs on, replacing the earlier
/// `std::unordered_map<uint64_t, std::vector<uint32_t>>` bucket chains:
///
///   - `InternTable`: a find-or-insert index for hash-consing arenas. Slots
///     are (hash, id) pairs in one contiguous power-of-two array with linear
///     probing; the node payload itself lives in the arena's dense
///     `std::vector`, so the table never owns data and rehashing moves 12
///     bytes per entry with no recomputation. Entries are never erased
///     (arenas only grow), which keeps probing tombstone-free.
///
///   - `FlatMap64`: a uint64 -> uint32 open-addressing map for sparse memo
///     caches keyed by packed ids (e.g. the classical-derivative memo keyed
///     by (regex id, character)).
///
/// Both count probe lengths into a `CacheStats` when one is attached, and
/// both are single-threaded by design: one solving thread per process, and
/// scale-out is worker processes with arenas of their own (DESIGN.md §7).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_INTERNTABLE_H
#define SBD_SUPPORT_INTERNTABLE_H

#include "support/Metrics.h"

#include <cstdint>
#include <vector>

namespace sbd {

/// Open-addressing find-or-insert index over ids assigned by the caller.
/// The caller supplies the equality check (against its arena) and the id
/// allocation, so one table type serves regex nodes, transition-regex nodes
/// and CharSet pools alike.
class InternTable {
  static constexpr uint32_t EmptyId = 0xFFFFFFFFu;

  struct Slot {
    uint64_t Hash;
    uint32_t Id = EmptyId;
  };

public:
  InternTable() { Slots.resize(InitialSlots); }

  size_t size() const { return Count; }

  /// Pre-sizes the table for \p N entries (rounds up to keep the load
  /// factor below ~0.7).
  void reserve(size_t N) {
    size_t Needed = nextPow2(N + N / 2 + 1);
    if (Needed > Slots.size())
      rehash(Needed);
  }

  /// Drops all entries but keeps the allocation.
  void clear() {
    for (Slot &S : Slots)
      S.Id = EmptyId;
    Count = 0;
  }

  /// Looks up \p Hash; \p Eq(id) must decide whether the candidate id is the
  /// sought entry (hash collisions are possible). When absent, \p Make() is
  /// invoked to append the node to the arena and its id is recorded.
  /// `Make` must not touch this table (arenas never re-enter interning of
  /// the same table from a node constructor).
  template <typename EqFn, typename MakeFn>
  uint32_t findOrInsert(uint64_t Hash, EqFn &&Eq, MakeFn &&Make,
                        CacheStats &Stats) {
    if ((Count + 1) * 10 >= Slots.size() * 7)
      rehash(Slots.size() * 2);
    size_t Mask = Slots.size() - 1;
    size_t Idx = static_cast<size_t>(Hash) & Mask;
    SBD_STATS_INC(Stats, Lookups);
    SBD_STATS_INC(Stats, ProbeSteps);
    while (Slots[Idx].Id != EmptyId) {
      if (Slots[Idx].Hash == Hash && Eq(Slots[Idx].Id)) {
        SBD_STATS_INC(Stats, InternHits);
        return Slots[Idx].Id;
      }
      Idx = (Idx + 1) & Mask;
      SBD_STATS_INC(Stats, ProbeSteps);
    }
    uint32_t Id = Make();
    Slots[Idx] = {Hash, Id};
    ++Count;
    SBD_STATS_INC(Stats, InternMisses);
    return Id;
  }

private:
  static constexpr size_t InitialSlots = 64;

  static size_t nextPow2(size_t N) {
    size_t P = InitialSlots;
    while (P < N)
      P <<= 1;
    return P;
  }

  void rehash(size_t NewSize) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewSize, Slot{});
    size_t Mask = NewSize - 1;
    for (const Slot &S : Old) {
      if (S.Id == EmptyId)
        continue;
      size_t Idx = static_cast<size_t>(S.Hash) & Mask;
      while (Slots[Idx].Id != EmptyId)
        Idx = (Idx + 1) & Mask;
      Slots[Idx] = S;
    }
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

/// Open-addressing uint64 -> uint32 map for sparse memo caches. Keys are
/// caller-packed (the all-ones key is reserved as the empty marker); values
/// are ids. No erase — memo caches are dropped wholesale via clear().
class FlatMap64 {
  static constexpr uint64_t EmptyKey = ~0ULL;

  struct Slot {
    uint64_t Key = EmptyKey;
    uint32_t Value = 0;
  };

public:
  FlatMap64() { Slots.resize(InitialSlots); }

  size_t size() const { return Count; }

  void clear() {
    for (Slot &S : Slots)
      S.Key = EmptyKey;
    Count = 0;
  }

  /// Returns a pointer to the stored value, or nullptr when absent.
  const uint32_t *find(uint64_t Key) const {
    size_t Mask = Slots.size() - 1;
    size_t Idx = static_cast<size_t>(hashMix64(Key)) & Mask;
    while (Slots[Idx].Key != EmptyKey) {
      if (Slots[Idx].Key == Key)
        return &Slots[Idx].Value;
      Idx = (Idx + 1) & Mask;
    }
    return nullptr;
  }

  /// Inserts or overwrites.
  void insert(uint64_t Key, uint32_t Value) {
    if ((Count + 1) * 10 >= Slots.size() * 7)
      rehash(Slots.size() * 2);
    size_t Mask = Slots.size() - 1;
    size_t Idx = static_cast<size_t>(hashMix64(Key)) & Mask;
    while (Slots[Idx].Key != EmptyKey) {
      if (Slots[Idx].Key == Key) {
        Slots[Idx].Value = Value;
        return;
      }
      Idx = (Idx + 1) & Mask;
    }
    Slots[Idx] = {Key, Value};
    ++Count;
  }

private:
  static constexpr size_t InitialSlots = 64;

  void rehash(size_t NewSize) {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewSize, Slot{});
    size_t Mask = NewSize - 1;
    for (const Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      size_t Idx = static_cast<size_t>(hashMix64(S.Key)) & Mask;
      while (Slots[Idx].Key != EmptyKey)
        Idx = (Idx + 1) & Mask;
      Slots[Idx] = S;
    }
  }

  static uint64_t hashMix64(uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace sbd

#endif // SBD_SUPPORT_INTERNTABLE_H
