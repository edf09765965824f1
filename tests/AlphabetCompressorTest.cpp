//===- tests/AlphabetCompressorTest.cpp - Minterm compression tests ---------===//

#include "charset/AlphabetCompressor.h"

#include "support/Metrics.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <set>

using namespace sbd;

namespace {

/// The id of the block of \p Blocks that holds \p Cp (the blocks partition
/// the domain, so exactly one does).
uint16_t blockOf(const std::vector<CharSet> &Blocks, uint32_t Cp) {
  for (size_t I = 0; I != Blocks.size(); ++I)
    if (Blocks[I].contains(Cp))
      return static_cast<uint16_t>(I);
  ADD_FAILURE() << "no block holds U+" << Cp;
  return 0;
}

/// Which predicates hold \p Cp.
std::vector<bool> signatureOf(const std::vector<CharSet> &Preds, uint32_t Cp) {
  std::vector<bool> Sig;
  Sig.reserve(Preds.size());
  for (const CharSet &P : Preds)
    Sig.push_back(P.contains(Cp));
  return Sig;
}

/// Full partition validation: the blocks are disjoint and cover the domain,
/// every predicate is a union of blocks, no two blocks share a predicate
/// signature (the partition is the coarsest one), and every representative
/// lies in its own block, in printable ASCII whenever the block reaches it.
void expectValidPartition(const std::vector<CharSet> &Preds) {
  AlphabetCompressor C(Preds);
  ASSERT_GT(C.numClasses(), 0u);

  std::vector<CharSet> Blocks = C.classSets();
  ASSERT_EQ(Blocks.size(), C.numClasses());
  const CharSet Printable = CharSet::range(0x21, 0x7E);
  CharSet Union;
  uint64_t Total = 0;
  for (uint16_t Cls = 0; Cls != Blocks.size(); ++Cls) {
    const CharSet &B = Blocks[Cls];
    EXPECT_FALSE(B.isEmpty());
    EXPECT_TRUE(Union.intersectWith(B).isEmpty()) << "blocks overlap";
    Union = Union.unionWith(B);
    Total += B.count();
    EXPECT_EQ(C.classSet(Cls), B) << "classSet disagrees with classSets";

    uint32_t Rep = C.representative(Cls);
    EXPECT_TRUE(B.contains(Rep))
        << "representative U+" << Rep << " not in its own block " << Cls;
    if (!B.intersectWith(Printable).isEmpty()) {
      EXPECT_TRUE(Printable.contains(Rep))
          << "block " << Cls << " reaches printable ASCII but its "
          << "representative is U+" << Rep;
    }

    for (const CharSet &P : Preds) {
      CharSet In = B.intersectWith(P);
      EXPECT_TRUE(In.isEmpty() || In == B)
          << "a predicate splits block " << Cls;
    }
  }
  EXPECT_TRUE(Union.isFull());
  EXPECT_EQ(Total, uint64_t(MaxCodePoint) + 1);

  std::set<std::vector<bool>> Signatures;
  for (uint16_t Cls = 0; Cls != Blocks.size(); ++Cls)
    EXPECT_TRUE(
        Signatures.insert(signatureOf(Preds, C.representative(Cls))).second)
        << "block " << Cls << " repeats another block's signature";
}

TEST(AlphabetCompressor, EmptyPredicateSet) {
  AlphabetCompressor C{std::vector<CharSet>{}};
  // No predicates ⇒ one class: the whole alphabet.
  EXPECT_EQ(C.numClasses(), 1u);
  EXPECT_TRUE(C.classSet(0).isFull());
  expectValidPartition({});
}

TEST(AlphabetCompressor, DefaultConstructedIsTrivial) {
  AlphabetCompressor C;
  EXPECT_EQ(C.numClasses(), 1u);
  EXPECT_TRUE(C.classSet(0).isFull());
  EXPECT_TRUE(CharSet::range(0x21, 0x7E).contains(C.representative(0)));
}

TEST(AlphabetCompressor, AdjacentAndTouchingIntervals) {
  // [a-m] and [n-z] touch at m|n; [0-4] and [5-9] touch inside the digit
  // block; the partition must keep all four sides distinct from each other
  // and from the complement.
  std::vector<CharSet> Preds = {CharSet::range('a', 'm'),
                                CharSet::range('n', 'z'),
                                CharSet::range('0', '4'),
                                CharSet::range('5', '9')};
  AlphabetCompressor C(Preds);
  EXPECT_EQ(C.numClasses(), 5u); // four blocks + everything else
  std::vector<CharSet> Blocks = C.classSets();
  EXPECT_NE(blockOf(Blocks, 'm'), blockOf(Blocks, 'n'));
  EXPECT_NE(blockOf(Blocks, '4'), blockOf(Blocks, '5'));
  EXPECT_EQ(blockOf(Blocks, 'a'), blockOf(Blocks, 'm'));
  EXPECT_EQ(blockOf(Blocks, 'n'), blockOf(Blocks, 'z'));
  expectValidPartition(Preds);
}

TEST(AlphabetCompressor, OverlappingPredicates) {
  // Overlaps induce strictly finer classes than either predicate alone.
  std::vector<CharSet> Preds = {CharSet::range('a', 'p'),
                                CharSet::range('h', 'z')};
  AlphabetCompressor C(Preds);
  EXPECT_EQ(C.numClasses(), 4u); // [a-g], [h-p], [q-z], rest
  std::vector<CharSet> Blocks = C.classSets();
  EXPECT_NE(blockOf(Blocks, 'a'), blockOf(Blocks, 'h'));
  EXPECT_NE(blockOf(Blocks, 'h'), blockOf(Blocks, 'q'));
  EXPECT_NE(blockOf(Blocks, 'a'), blockOf(Blocks, 'q'));
  expectValidPartition(Preds);
}

TEST(AlphabetCompressor, MaxCodePointBoundary) {
  // A predicate ending exactly at U+10FFFF must not emit an off event past
  // the domain, and the last class must include the boundary point.
  std::vector<CharSet> Preds = {CharSet::range(0x10FF00, MaxCodePoint),
                                CharSet::singleton(MaxCodePoint)};
  AlphabetCompressor C(Preds);
  std::vector<CharSet> Blocks = C.classSets();
  EXPECT_TRUE(
      Preds[0].contains(C.representative(blockOf(Blocks, 0x10FF42))));
  EXPECT_NE(blockOf(Blocks, 0x10FF42), blockOf(Blocks, MaxCodePoint));
  EXPECT_NE(blockOf(Blocks, 0x10FEFF), blockOf(Blocks, 0x10FF00));
  expectValidPartition(Preds);
}

TEST(AlphabetCompressor, MoreThan64Predicates) {
  // Over 64 predicates the signature bitvector spans multiple words; 70
  // disjoint singletons must each get their own class.
  std::vector<CharSet> Preds;
  for (uint32_t I = 0; I != 70; ++I)
    Preds.push_back(CharSet::singleton(0x1000 + 2 * I));
  AlphabetCompressor C(Preds);
  EXPECT_EQ(C.numClasses(), 71u); // 70 singletons + everything else
  std::vector<CharSet> Blocks = C.classSets();
  std::set<uint16_t> Classes;
  for (uint32_t I = 0; I != 70; ++I)
    Classes.insert(blockOf(Blocks, 0x1000 + 2 * I));
  EXPECT_EQ(Classes.size(), 70u);
  expectValidPartition(Preds);
}

#if SBD_OBS
TEST(AlphabetCompressor, CountsItsClasses) {
  const obs::MetricShard Before = obs::tlsShard();
  AlphabetCompressor C({CharSet::range('a', 'p'), CharSet::range('h', 'z')});
  const obs::MetricShard Diff = obs::tlsShard().since(Before);
  EXPECT_EQ(Diff.get(obs::Counter::AlphabetMinterms), C.numClasses());
}
#endif // SBD_OBS

TEST(AlphabetCompressor, RandomizedCrossCheck) {
  Rng Rand(42);
  for (int Round = 0; Round != 20; ++Round) {
    std::vector<CharSet> Preds;
    size_t N = 1 + Rand.below(8);
    for (size_t I = 0; I != N; ++I) {
      std::vector<CharRange> Rs;
      size_t K = 1 + Rand.below(4);
      for (size_t J = 0; J != K; ++J) {
        uint32_t Lo = static_cast<uint32_t>(Rand.below(MaxCodePoint));
        uint32_t Hi =
            std::min<uint32_t>(MaxCodePoint,
                               Lo + static_cast<uint32_t>(Rand.below(0x200)));
        Rs.push_back({Lo, Hi});
      }
      Preds.push_back(CharSet::fromRanges(std::move(Rs)));
    }
    expectValidPartition(Preds);
  }
}

} // namespace
