//===- support/Hashing.h - Hash combinators --------------------------------===//
///
/// \file
/// Hash combinators used by the hash-consing arenas. Structural node hashes
/// are built by folding the children's stored structural hashes (never
/// their ids) with `hashCombine`, so a term hashes the same in every arena.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_HASHING_H
#define SBD_SUPPORT_HASHING_H

#include <cstddef>
#include <cstdint>

namespace sbd {

/// Mixes a 64-bit value (splitmix64 finalizer); good avalanche behaviour.
inline uint64_t hashMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Folds \p Value into the running hash \p Seed.
inline uint64_t hashCombine(uint64_t Seed, uint64_t Value) {
  return hashMix(Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                         (Seed >> 2)));
}

/// Hashes a contiguous range of 32-bit values.
inline uint64_t hashRange32(const uint32_t *Data, size_t N, uint64_t Seed) {
  uint64_t H = Seed;
  for (size_t I = 0; I != N; ++I)
    H = hashCombine(H, Data[I]);
  return H;
}

} // namespace sbd

#endif // SBD_SUPPORT_HASHING_H
