//===- tests/HostileNestingTest.cpp - Hostile-shape front-end regressions ---===//
///
/// \file
/// Each shape here is deep enough to overflow the stack of a recursive
/// parser. The regex parser and the s-expression reader stop at a fixed
/// nesting depth (RegexMaxDepth, SExprMaxDepth) and report a parse error;
/// these tests drive the real binaries so the error reaches the user as
/// one, and `sbd-server` keeps serving. A wide flat union must parse in
/// time linear in its width.
///
//===----------------------------------------------------------------------===//

#include "re/RegexParser.h"
#include "smt/SExpr.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>

using namespace sbd;

namespace {

/// Runs \p Cmd (stderr folded into stdout); returns the output and sets
/// \p Exit to the exit code, or 128 + signal when the process was killed.
std::string run(const std::string &Cmd, int &Exit) {
  std::FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P) {
    Exit = -1;
    return "";
  }
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = pclose(P);
  Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
  return Out;
}

std::string writeInput(const std::string &Name, const std::string &Text) {
  std::string Path = ::testing::TempDir() + "/" + Name;
  std::ofstream Out(Path, std::ios::trunc);
  Out << Text;
  return Path;
}

std::string repeat(const std::string &S, size_t N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (size_t I = 0; I != N; ++I)
    Out += S;
  return Out;
}

const std::string DepthError =
    "nesting deeper than " + std::to_string(RegexMaxDepth);

TEST(HostileNesting, AnalyzeRejects200kNestedGroups) {
  std::string Path = writeInput(
      "nested_groups.txt", repeat("(", 200000) + "a" + repeat(")", 200000) +
                               "\n");
  int Exit = 0;
  std::string Out =
      run(std::string(SBD_ANALYZE_PATH) + " --file " + Path, Exit);
  EXPECT_EQ(Exit, 2) << Out; // input error, not a signal
  EXPECT_NE(Out.find(DepthError), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(HostileNesting, AnalyzeRejects200001Complements) {
  std::string Path =
      writeInput("complements.txt", repeat("~", 200001) + "a\n");
  int Exit = 0;
  std::string Out =
      run(std::string(SBD_ANALYZE_PATH) + " --file " + Path, Exit);
  EXPECT_EQ(Exit, 2) << Out;
  EXPECT_NE(Out.find(DepthError), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(HostileNesting, AnalyzeSolveRejects20kDeepStarNest) {
  std::string Pattern = "a";
  for (int I = 0; I != 20000; ++I)
    Pattern = "(" + Pattern + ")*";
  std::string Path = writeInput("star_nest.txt", Pattern + "\n");
  int Exit = 0;
  std::string Out = run(
      std::string(SBD_ANALYZE_PATH) + " --solve --file " + Path, Exit);
  EXPECT_EQ(Exit, 2) << Out;
  EXPECT_NE(Out.find(DepthError), std::string::npos) << Out;
  std::remove(Path.c_str());
}

TEST(HostileNesting, ServerRepliesErrorToA100kDeepUnionAndKeepsServing) {
  std::string Script =
      "(declare-const s String)\n"
      "(assert (str.in_re s " +
      repeat("(re.union (str.to_re \"a\") ", 100000) + "(str.to_re \"b\")" +
      repeat(")", 100000) + "))\n(check-sat)\n";
  std::string Path = writeInput("deep_union.smt2", Script);
  int Exit = 0;
  std::string Out = run(std::string(SBD_SERVER_PATH) + " < " + Path, Exit);
  EXPECT_EQ(Exit, 0) << Out;
  // One error reply for the deep assert, then the next command is served
  // (nothing was asserted, so the check is sat).
  EXPECT_EQ(Out, "(error \"parse error: nesting deeper than " +
                     std::to_string(SExprMaxDepth) + "\")\nsat\n");
  std::remove(Path.c_str());
}

TEST(HostileNesting, AnalyzeParses30kAlternativesUnderOneSecond) {
  std::string Pattern = "a0";
  for (int I = 1; I != 30000; ++I)
    Pattern += "|a" + std::to_string(I);
  std::string Path = writeInput("wide_union.txt", Pattern + "\n");
  int Exit = 0;
  auto Start = std::chrono::steady_clock::now();
  std::string Out =
      run(std::string(SBD_ANALYZE_PATH) + " --file " + Path, Exit);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_LT(Seconds, 1.0);
  std::remove(Path.c_str());
}

// The parsers themselves, at the boundary: the limit is accepted, one more
// level is a parse error.

TEST(HostileNesting, RegexParserAcceptsExactlyTheMaxDepth) {
  RegexManager M;
  std::string AtLimit = repeat("(", RegexMaxDepth - 1) + "~a" +
                        repeat(")", RegexMaxDepth - 1);
  RegexParseResult Ok = parseRegex(M, AtLimit);
  EXPECT_TRUE(Ok.Ok) << Ok.Error;
  RegexParseResult Deep = parseRegex(M, "(" + AtLimit + ")");
  EXPECT_FALSE(Deep.Ok);
  EXPECT_EQ(Deep.Error, DepthError);
}

TEST(HostileNesting, SExprReaderAcceptsExactlyTheMaxDepth) {
  std::string AtLimit =
      repeat("(f ", SExprMaxDepth) + "x" + repeat(")", SExprMaxDepth);
  SExprParseResult Ok = parseSExprs(AtLimit);
  EXPECT_TRUE(Ok.Ok) << Ok.Error;
  SExprParseResult Deep = parseSExprs("(" + AtLimit + ")");
  EXPECT_FALSE(Deep.Ok);
  EXPECT_EQ(Deep.Error,
            "nesting deeper than " + std::to_string(SExprMaxDepth));
}

} // namespace
