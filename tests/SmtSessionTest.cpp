//===- tests/SmtSessionTest.cpp - Incremental SMT session tests --------------===//
///
/// \file
/// Tests for the incremental SMT-LIB session (DESIGN.md §15): per-command
/// protocol replies, push/pop assertion scoping, persistent compiled state
/// across checks, (reset) keeping the arena warm, verdict-cache hits
/// across repeated checks, and multi-check `solveScript` producing one
/// `SmtCheck` per check-sat.
///
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include "cache/VerdictCache.h"
#include "core/Derivatives.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace sbd;

namespace {

class SmtSessionTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSession Session{Solver};

  /// Executes every form of \p Text and returns the non-empty reply texts.
  std::vector<std::string> run(const std::string &Text) {
    std::vector<std::string> Out;
    for (const SmtSession::Reply &R : Session.executeAll(Text))
      if (!R.Text.empty())
        Out.push_back(R.Text);
    return Out;
  }

  /// Executes \p Text, expecting exactly one reply.
  std::string runOne(const std::string &Text) {
    std::vector<std::string> Out = run(Text);
    if (Out.size() != 1) {
      ADD_FAILURE() << "expected 1 reply for \"" << Text << "\", got "
                    << Out.size();
      return "";
    }
    return Out[0];
  }
};

TEST_F(SmtSessionTest, CheckSatRepliesWithVerdicts) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.+ (re.range "a" "b")))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  run(R"((assert (not (str.in_re s re.all))))"); // contradiction
  EXPECT_EQ(runOne("(check-sat)"), "unsat");
  EXPECT_EQ(Session.checksRun(), 2u);
}

TEST_F(SmtSessionTest, PrintSuccessTogglesSuccessReplies) {
  EXPECT_TRUE(run("(declare-const s String)").empty());
  run("(set-option :print-success true)");
  EXPECT_EQ(runOne("(assert (str.in_re s (str.to_re \"a\")))"), "success");
  run("(set-option :print-success false)");
  EXPECT_TRUE(run("(assert (str.in_re s (str.to_re \"a\")))").empty());
}

TEST_F(SmtSessionTest, ErrorsArePerCommandAndTheSessionContinues) {
  std::string Err = runOne("(pop)");
  EXPECT_NE(Err.find("(error "), std::string::npos);
  EXPECT_NE(Err.find("pop without matching push"), std::string::npos);
  // The session is still healthy (continued-execution behavior).
  run("(declare-const s String)");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, UnknownCommandsAreErrorsInSessionMode) {
  std::string Err = runOne("(frobnicate)");
  EXPECT_NE(Err.find("unsupported command: frobnicate"), std::string::npos);
}

TEST_F(SmtSessionTest, PushPopScopesAssertions) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.* (str.to_re "ab")))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  EXPECT_EQ(Session.pushDepth(), 0u);

  run(R"(
    (push 1)
    (assert (str.in_re s re.none)))");
  EXPECT_EQ(Session.pushDepth(), 1u);
  EXPECT_EQ(Session.numAssertions(), 2u);
  EXPECT_EQ(runOne("(check-sat)"), "unsat");

  run("(pop 1)");
  EXPECT_EQ(Session.pushDepth(), 0u);
  EXPECT_EQ(Session.numAssertions(), 1u);
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, GetModelRendersDefineFunsOnlyAfterSat) {
  std::string Err = runOne("(get-model)");
  EXPECT_NE(Err.find("model is not available"), std::string::npos);

  run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "ab"))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  std::string Model = runOne("(get-model)");
  EXPECT_NE(Model.find("define-fun s () String"), std::string::npos);
  EXPECT_NE(Model.find("\"ab\""), std::string::npos);
}

TEST_F(SmtSessionTest, CheckSatAssumingScopesTheAssumptionToOneCheck) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.* (str.to_re "a")))))");
  EXPECT_EQ(runOne("(check-sat-assuming ((str.in_re s re.none)))"), "unsat");
  // The assumption did not leak into the persistent assertion set.
  EXPECT_EQ(Session.numAssertions(), 1u);
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, EchoAndGetInfoSpeakTheProtocol) {
  EXPECT_EQ(runOne("(echo \"hi there\")"), "\"hi there\"");
  EXPECT_EQ(runOne("(get-info :name)"), "(:name \"sbd\")");
  EXPECT_EQ(runOne("(get-info :error-behavior)"),
            "(:error-behavior continued-execution)");
}

TEST_F(SmtSessionTest, StatisticsIncludeSessionAndCacheCounters) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "a"))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  std::string Stats = runOne("(get-info :statistics)");
  EXPECT_NE(Stats.find(":checks-run"), std::string::npos);
  EXPECT_NE(Stats.find(":verdict-cache-hits"), std::string::npos);
}

TEST_F(SmtSessionTest, ResetDropsDeclarationsButArenaStaysWarm) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "ab"))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  size_t NodesBefore = M.numNodes();
  run("(reset)");
  // Undeclared after reset → per-command error.
  std::string Err = runOne("(assert (str.in_re s (str.to_re \"a\")))");
  EXPECT_NE(Err.find("(error "), std::string::npos);
  // The arena kept its interned terms (warmth survives reset).
  EXPECT_GE(M.numNodes(), NodesBefore);
  run("(declare-const s String)");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, ExitSetsExitRequested) {
  std::vector<SmtSession::Reply> Replies = Session.executeAll("(exit)");
  ASSERT_EQ(Replies.size(), 1u);
  EXPECT_TRUE(Replies[0].ExitRequested);
}

TEST_F(SmtSessionTest, ParseErrorsYieldOneErrorReply) {
  std::vector<SmtSession::Reply> Replies = Session.executeAll("(assert");
  ASSERT_EQ(Replies.size(), 1u);
  EXPECT_TRUE(Replies[0].IsError);
}

/// The warm-session law the resident server relies on: with a verdict
/// cache attached, the second identical check is answered from the cache
/// with the identical verdict.
TEST_F(SmtSessionTest, RepeatedChecksHitTheVerdictCache) {
  cache::VerdictCache Cache;
  Session.setVerdictCache(&Cache);
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.++ (str.to_re "ab") (re.* (re.range "c" "d"))))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  cache::VerdictCacheCounters Cold = Cache.counters();
  EXPECT_GE(Cold.Inserts, 1u);
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  cache::VerdictCacheCounters Warm = Cache.counters();
  EXPECT_GT(Warm.Hits, Cold.Hits);

  SmtResult Last = Session.lastResult();
  EXPECT_EQ(Last.Status, SolveStatus::Sat);
}

TEST_F(SmtSessionTest, LastResultTracksTheMostRecentCheck) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "ab"))))");
  runOne("(check-sat)");
  EXPECT_EQ(Session.lastResult().Status, SolveStatus::Sat);
  run("(assert (str.in_re s re.none))");
  runOne("(check-sat)");
  EXPECT_EQ(Session.lastResult().Status, SolveStatus::Unsat);
}

/// Multi-check scripts through the one-shot driver: every check-sat lands
/// in SmtResult::Checks in order, and the top-level verdict is the last's.
TEST(SmtScriptChecksTest, SolveScriptRecordsEveryCheck) {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSolver Smt{Solver};

  SmtResult R = Smt.solveScript(R"(
    (declare-const s String)
    (assert (str.in_re s (re.* (str.to_re "ab"))))
    (check-sat)
    (push 1)
    (assert (str.in_re s re.none))
    (check-sat)
    (pop 1)
    (check-sat))");
  ASSERT_EQ(R.Checks.size(), 3u);
  EXPECT_EQ(R.Checks[0].Status, SolveStatus::Sat);
  EXPECT_EQ(R.Checks[1].Status, SolveStatus::Unsat);
  EXPECT_EQ(R.Checks[2].Status, SolveStatus::Sat);
  // Top-level fields mirror the last check.
  EXPECT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_FALSE(R.Model.empty());
}

TEST(SmtScriptChecksTest, ScriptWithoutChecksStillRunsImplicitFinalCheck) {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSolver Smt{Solver};

  SmtResult R = Smt.solveScript(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "a"))))");
  EXPECT_EQ(R.Status, SolveStatus::Sat);
  ASSERT_EQ(R.Checks.size(), 1u); // the implicit final check is recorded
  EXPECT_EQ(R.Checks[0].Status, SolveStatus::Sat);
}

/// One command table: a script and a session over the same forms give the
/// same verdict at every check-sat. Where a state-changing command fails,
/// the script stops as Unsupported while the session carries on, so the
/// script's checks are then a prefix of the session's.
TEST(SmtScriptChecksTest, ScriptAndSessionAgreeAtEveryCheck) {
  struct Case {
    const char *Name;
    const char *Script;
    std::vector<std::string> Verdicts; ///< the session's check-sat replies
    const char *StopNote;              ///< the script's Note when it stops
  };
  const Case Cases[] = {
      {"reset drops the earlier assertion",
       R"((declare-const x String)
          (assert (str.in_re x (str.to_re "a")))
          (reset)
          (declare-const x String)
          (assert (str.in_re x (str.to_re "b")))
          (check-sat))",
       {"sat"},
       nullptr},
      {"forms after exit are not run",
       R"((declare-const s String)
          (assert (str.in_re s (str.to_re "a")))
          (check-sat)
          (exit)
          (assert (str.in_re s re.none))
          (check-sat))",
       {"sat"},
       nullptr},
      {"push and pop scope assertions",
       R"((declare-const s String)
          (assert (str.in_re s (re.* (str.to_re "ab"))))
          (check-sat)
          (push 1)
          (assert (str.in_re s re.none))
          (check-sat)
          (pop 1)
          (check-sat))",
       {"sat", "unsat", "sat"},
       nullptr},
      {"assumptions last one check",
       R"((declare-const s String)
          (assert (str.in_re s (re.* (str.to_re "a"))))
          (check-sat-assuming ((str.in_re s re.none)))
          (check-sat))",
       {"unsat", "sat"},
       nullptr},
      {"reset-assertions keeps declarations",
       R"((declare-const s String)
          (assert (str.in_re s re.none))
          (check-sat)
          (reset-assertions)
          (assert (str.in_re s (str.to_re "z")))
          (check-sat))",
       {"unsat", "sat"},
       nullptr},
      {"failed queries change no verdict",
       R"((set-logic QF_S)
          (set-option :print-success true)
          (set-info :status sat)
          (get-model)
          (declare-const s String)
          (get-value (s))
          (get-info :no-such-flag)
          (echo 5)
          (assert (str.in_re s (str.to_re "q")))
          (check-sat)
          (get-model)
          (get-info :statistics)
          (check-sat))",
       {"sat", "sat"},
       nullptr},
      {"an unknown command stops the script",
       R"((declare-const s String)
          (check-sat)
          (frobnicate)
          (assert (str.in_re s re.none))
          (check-sat))",
       {"sat", "unsat"},
       "unsupported command: frobnicate"},
      {"a failed pop stops the script",
       R"((declare-const s String)
          (assert (str.in_re s re.none))
          (check-sat)
          (pop 1)
          (check-sat))",
       {"unsat", "unsat"},
       "pop without matching push"},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    RegexManager M;
    TrManager T{M};
    DerivativeEngine E{M, T};
    RegexSolver Solver{E};

    SmtSession Session{Solver};
    std::vector<SmtSession::Reply> Replies = Session.executeAll(C.Script);
    std::vector<SExpr> Forms = parseSExprs(C.Script).Forms;
    std::vector<std::string> SessionVerdicts;
    for (size_t I = 0; I != Replies.size(); ++I)
      if (Forms[I].Kids[0].Text.rfind("check-sat", 0) == 0)
        SessionVerdicts.push_back(Replies[I].Text);
    EXPECT_EQ(SessionVerdicts, C.Verdicts);

    SmtSolver Smt{Solver};
    SmtResult R = Smt.solveScript(C.Script);
    std::vector<std::string> ScriptVerdicts;
    for (const SmtCheck &Check : R.Checks)
      ScriptVerdicts.push_back(statusName(Check.Status));
    if (!C.StopNote) {
      EXPECT_EQ(ScriptVerdicts, C.Verdicts);
      EXPECT_EQ(statusName(R.Status), C.Verdicts.back());
      continue;
    }
    EXPECT_EQ(R.Status, SolveStatus::Unsupported);
    EXPECT_EQ(R.Stop, StopReason::UnsupportedFragment);
    EXPECT_EQ(R.Note, C.StopNote);
    ASSERT_LE(ScriptVerdicts.size(), C.Verdicts.size());
    EXPECT_TRUE(std::equal(ScriptVerdicts.begin(), ScriptVerdicts.end(),
                           C.Verdicts.begin()));
  }
}

/// A failed query leaves the script's verdict alone, and the last
/// (get-info :statistics) answer is kept.
TEST(SmtScriptChecksTest, ScriptKeepsTheLastStatisticsReply) {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSolver Smt{Solver};

  SmtResult R = Smt.solveScript(R"(
    (declare-const s String)
    (get-info :statistics)
    (assert (str.in_re s (str.to_re "ab")))
    (check-sat)
    (get-info :statistics)
    (get-value (s)))");
  EXPECT_EQ(R.Status, SolveStatus::Sat);
  ASSERT_EQ(R.Checks.size(), 1u);
  EXPECT_NE(R.Statistics.find(":checks-run 1"), std::string::npos);
}

} // namespace
