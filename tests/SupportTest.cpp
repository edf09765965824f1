//===- tests/SupportTest.cpp - Support utility tests -------------------------===//

#include "support/Hashing.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/Stopwatch.h"
#include "support/Unicode.h"

#include <gtest/gtest.h>

#include <set>

using namespace sbd;

namespace {

TEST(Unicode, Utf8RoundTripAscii) {
  std::vector<uint32_t> Word = {'h', 'e', 'l', 'l', 'o'};
  EXPECT_EQ(toUtf8(Word), "hello");
  EXPECT_EQ(fromUtf8("hello"), Word);
}

TEST(Unicode, Utf8RoundTripAllWidths) {
  // One char per encoding width: 1, 2, 3, 4 bytes.
  std::vector<uint32_t> Word = {0x41, 0x3B1, 0x4E2D, 0x1F600};
  std::string Bytes = toUtf8(Word);
  EXPECT_EQ(Bytes.size(), 1u + 2 + 3 + 4);
  EXPECT_EQ(fromUtf8(Bytes), Word);
}

TEST(Unicode, Utf8RoundTripExhaustiveBoundaries) {
  // Boundary code points of each width class.
  for (uint32_t Cp : {0u, 0x7Fu, 0x80u, 0x7FFu, 0x800u, 0xFFFFu, 0x10000u,
                      0x10FFFFu}) {
    std::string Bytes;
    appendUtf8(Cp, Bytes);
    std::vector<uint32_t> Back = fromUtf8(Bytes);
    ASSERT_EQ(Back.size(), 1u) << Cp;
    EXPECT_EQ(Back[0], Cp);
  }
}

TEST(Unicode, InvalidBytesDecodeLossily) {
  // A lone continuation byte and a truncated sequence must not crash and
  // decode to U+FFFD.
  std::vector<uint32_t> Out = fromUtf8(std::string("\x80"));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], 0xFFFDu);
  Out = fromUtf8(std::string("\xE4\xB8")); // truncated 3-byte seq
  EXPECT_FALSE(Out.empty());
}

TEST(Unicode, Escaping) {
  EXPECT_EQ(escapeCodePoint('a'), "a");
  EXPECT_EQ(escapeCodePoint('\\'), "\\\\");
  EXPECT_EQ(escapeCodePoint(0x07), "\\u0007");
  EXPECT_EQ(escapeCodePoint(0x1F600), "\\U{01F600}");
  EXPECT_EQ(escapeWord({'a', 0x07}), "a\\u0007");
}

TEST(Json, Values) {
  auto R = parseJson(R"({"a": [1, -2.5, "x\ny", true, null], "b": {}})");
  ASSERT_TRUE(R.Ok) << R.Error;
  const JsonValue &V = R.Value;
  ASSERT_TRUE(V.isObject());
  const JsonValue *A = V.get("a");
  ASSERT_TRUE(A && A->isArray());
  EXPECT_EQ(A->asArray().size(), 5u);
  EXPECT_EQ(A->asArray()[0].asNumber(), 1);
  EXPECT_EQ(A->asArray()[1].asNumber(), -2.5);
  EXPECT_EQ(A->asArray()[2].asString(), "x\ny");
  EXPECT_TRUE(A->asArray()[3].asBool());
  EXPECT_TRUE(A->asArray()[4].isNull());
  EXPECT_TRUE(V.get("b")->isObject());
  EXPECT_EQ(V.get("missing"), nullptr);
}

TEST(Json, UnicodeEscapes) {
  auto R = parseJson(R"(["A中"])");
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Value.asArray()[0].asString(), "A\xE4\xB8\xAD");
}

TEST(Json, Errors) {
  EXPECT_FALSE(parseJson("{").Ok);
  EXPECT_FALSE(parseJson("[1,]").Ok);
  EXPECT_FALSE(parseJson("\"unterminated").Ok);
  EXPECT_FALSE(parseJson("{} trailing").Ok);
  EXPECT_FALSE(parseJson("{1: 2}").Ok);
}

TEST(Json, NestingBeyondTheLimitIsAParseError) {
  // 200,000 open brackets used to overflow the stack of the recursive
  // parser; past JsonMaxDepth the document is rejected instead.
  std::string Deep(200000, '[');
  Deep += std::string(200000, ']');
  JsonParseResult R = parseJson(Deep);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("nesting deeper than"), std::string::npos);
  EXPECT_EQ(R.ErrorPos, JsonMaxDepth);

  std::string Objects;
  for (size_t I = 0; I != 100000; ++I)
    Objects += "{\"k\": ";
  EXPECT_FALSE(parseJson(Objects + "1" + std::string(100000, '}')).Ok);

  // Exactly at the limit still parses.
  std::string AtLimit(JsonMaxDepth, '[');
  AtLimit += std::string(JsonMaxDepth, ']');
  EXPECT_TRUE(parseJson(AtLimit).Ok);
}

TEST(Json, WriterRoundTripsEveryByte) {
  std::string All;
  for (int C = 1; C != 256; ++C)
    All += static_cast<char>(C);
  std::string Doc;
  appendJsonString(Doc, All);
  JsonParseResult R = parseJson(Doc);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.asString(), All);

  std::string Short;
  appendJsonString(Short, "a\"b\\c\nd\te\rf\x01\x1f");
  EXPECT_EQ(Short, R"("a\"b\\c\nd\te\rf\u0001\u001f")");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, BelowStaysInRange) {
  Rng R(7);
  for (int I = 0; I != 1000; ++I) {
    EXPECT_LT(R.below(10), 10u);
    uint64_t V = R.range(5, 9);
    EXPECT_GE(V, 5u);
    EXPECT_LE(V, 9u);
  }
}

TEST(Rng, RoughUniformity) {
  Rng R(99);
  size_t Buckets[8] = {};
  for (int I = 0; I != 8000; ++I)
    ++Buckets[R.below(8)];
  for (size_t B : Buckets) {
    EXPECT_GT(B, 800u); // each bucket within ±20% of expectation
    EXPECT_LT(B, 1200u);
  }
}

TEST(Hashing, MixSpreadsBits) {
  // Adjacent inputs must produce well-separated hashes.
  std::set<uint64_t> Seen;
  for (uint64_t I = 0; I != 1000; ++I)
    Seen.insert(hashMix(I));
  EXPECT_EQ(Seen.size(), 1000u);
  EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1)); // order sensitive
}

TEST(Stopwatch, MeasuresForwardTime) {
  Stopwatch W;
  volatile uint64_t Sink = 0;
  for (int I = 0; I != 100000; ++I)
    Sink += static_cast<uint64_t>(I);
  EXPECT_GE(W.elapsedUs(), 0);
  int64_t First = W.elapsedUs();
  for (int I = 0; I != 100000; ++I)
    Sink += static_cast<uint64_t>(I);
  EXPECT_GE(W.elapsedUs(), First);
  W.reset();
  EXPECT_LE(W.elapsedUs(), First + 1000000);
}

} // namespace
