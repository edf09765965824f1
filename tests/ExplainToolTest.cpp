//===- tests/ExplainToolTest.cpp - sbd-explain end-to-end tests --------------===//
///
/// \file
/// Runs the sbd-explain binary on hand-built slow-query artifacts: the
/// `--json` report must stay valid JSON whatever bytes the artifact's
/// string fields hold, and a record nested past the JSON depth limit must
/// be skipped as malformed rather than crash the tool.
///
//===----------------------------------------------------------------------===//

#include "solver/SlowQueryLog.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>

using namespace sbd;

namespace {

/// Runs sbd-explain with \p Args (stderr discarded); returns its stdout and
/// sets \p Exit to the exit code, or 128 + signal when it was killed.
std::string runExplain(const std::string &Args, int &Exit) {
  std::string Cmd = std::string(SBD_EXPLAIN_PATH) + " " + Args + " 2>/dev/null";
  std::FILE *P = popen(Cmd.c_str(), "r");
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

obs::SlowQueryArtifact artifact(const std::string &Status) {
  obs::SlowQueryArtifact A;
  A.Pattern = "(str.to_re \"a\")";
  A.Script = "(declare-const s String)\n"
             "(assert (str.in_re s (str.to_re \"a\")))\n(check-sat)\n";
  A.Strategy = "bfs";
  A.MaxStates = 1000;
  A.Status = Status;
  A.StopReason = "stop\\reason\t\x01";
  A.TotalUs = 42;
  return A;
}

TEST(ExplainTool, JsonReportEscapesArtifactStrings) {
  std::string Path = ::testing::TempDir() + "/explain_escapes.jsonl";
  const std::string Hostile = "sa\"t\n";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << artifact(Hostile).json() << "\n";
  }
  int Exit = 0;
  std::string Report = runExplain("--json " + Path, Exit);
  ASSERT_EQ(Exit, 0);
  JsonParseResult R = parseJson(Report);
  ASSERT_TRUE(R.Ok) << R.Error << " in: " << Report;
  ASSERT_TRUE(R.Value.get("status") && R.Value.get("status")->isString());
  EXPECT_EQ(R.Value.get("status")->asString(), Hostile);
  EXPECT_EQ(R.Value.get("stop_reason")->asString(), "stop\\reason\t\x01");
  EXPECT_EQ(R.Value.get("replay_status")->asString(), "sat");
  std::remove(Path.c_str());
}

TEST(ExplainTool, ListSkipsARecordNestedPastTheDepthLimit) {
  std::string Path = ::testing::TempDir() + "/explain_deep.jsonl";
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << artifact("sat").json() << "\n";
    Out << std::string(200000, '[') << std::string(200000, ']') << "\n";
  }
  int Exit = 0;
  std::string Listing = runExplain("--list " + Path, Exit);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Listing.find("[0] status=sat"), std::string::npos) << Listing;
  EXPECT_EQ(Listing.find("[1]"), std::string::npos) << Listing;
  std::remove(Path.c_str());
}

} // namespace
