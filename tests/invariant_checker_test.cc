// Forged-event tests for the runtime invariant checker: each test drives
// CheckObserver with a hand-crafted protocol-violating event sequence and
// asserts the named invariant trips (docs/CHECKS.md).
#include "check/invariant_checker.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/config.h"
#include "engine/session_table.h"
#include "storage/versioned_store.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

CheckObserver Recorder(const VersionedStore* store = nullptr) {
  CheckObserver::Options options;
  options.abort_on_violation = false;
  options.store = store;
  return CheckObserver(options);
}

bool Tripped(const CheckObserver& checker, const std::string& invariant) {
  // One snapshot: violations() returns by value, so begin()/end() must
  // come from the same call.
  const std::vector<CheckViolation> violations = checker.violations();
  return std::any_of(violations.begin(), violations.end(),
                     [&](const CheckViolation& v) {
                       return v.invariant == invariant;
                     });
}

TEST(InvariantCheckerTest, CommitBeforeQuorumTrips) {
  CheckObserver checker = Recorder();
  checker.OnLoopCreated(1, 0, 0, /*processor=*/0);
  checker.OnPrepare(1, 0, /*producer=*/5, /*fanout=*/2);
  checker.OnAck(1, 0, /*consumer=*/6, /*producer=*/5, 3);
  // Second ack never arrives; the commit is premature.
  checker.OnCommit(1, 0, 5, /*iteration=*/3, /*tau=*/0, /*horizon=*/4);
  ASSERT_TRUE(Tripped(checker, "INV-QUORUM"));
  EXPECT_EQ(checker.violations()[0].vertex, 5u);
}

TEST(InvariantCheckerTest, FullQuorumIsClean) {
  CheckObserver checker = Recorder();
  checker.OnPrepare(1, 0, 5, 2);
  checker.OnAck(1, 0, 6, 5, 3);
  checker.OnAck(1, 0, 7, 5, 3);
  checker.OnCommit(1, 0, 5, 3, 0, 4);
  EXPECT_TRUE(checker.violations().empty());
  EXPECT_EQ(checker.commits_checked(), 1u);
}

TEST(InvariantCheckerTest, NonMonotoneCommitTrips) {
  CheckObserver checker = Recorder();
  checker.OnCommit(1, 0, 5, 3, 0, 8);
  checker.OnCommit(1, 0, 5, 3, 0, 8);  // iteration did not advance
  EXPECT_TRUE(Tripped(checker, "INV-MONO-COMMIT"));
}

TEST(InvariantCheckerTest, CommitOutsideWindowTrips) {
  CheckObserver checker = Recorder();
  checker.OnCommit(1, 0, 5, /*iteration=*/9, /*tau=*/2, /*horizon=*/6);
  EXPECT_TRUE(Tripped(checker, "INV-WINDOW"));
}

TEST(InvariantCheckerTest, RegressingTerminationWatermarkTrips) {
  CheckObserver checker = Recorder();
  checker.OnTerminated(1, 0, /*processor=*/0, /*new_tau=*/7);
  checker.OnTerminated(1, 0, 0, 5);  // watermark moved backwards
  EXPECT_TRUE(Tripped(checker, "INV-MONO-TAU"));
}

TEST(InvariantCheckerTest, CommitBelowMergeFloorTrips) {
  CheckObserver checker = Recorder();
  checker.OnMergeAdopted(0, 0, /*vertex=*/5, /*merge_iteration=*/10);
  checker.OnCommit(0, 0, 5, /*iteration=*/8, /*tau=*/0, /*horizon=*/12);
  EXPECT_TRUE(Tripped(checker, "INV-MERGE-FLOOR"));
}

TEST(InvariantCheckerTest, CommitAboveMergeFloorIsClean) {
  CheckObserver checker = Recorder();
  checker.OnMergeAdopted(0, 0, 5, 10);
  checker.OnCommit(0, 0, 5, 11, 0, 12);
  EXPECT_TRUE(checker.violations().empty());
}

TEST(InvariantCheckerTest, StoreMissingCommitVersionTrips) {
  VersionedStore store;
  CheckObserver checker = Recorder(&store);
  store.Put(1, 5, /*iteration=*/3, {1, 2, 3});
  checker.OnCommit(1, 0, 5, 3, 0, 8);  // present: clean
  EXPECT_TRUE(checker.violations().empty());
  checker.OnCommit(1, 0, 5, 4, 0, 8);  // never persisted
  EXPECT_TRUE(Tripped(checker, "INV-STORE"));
}

TEST(InvariantCheckerTest, SupersededEpochEventsAreIgnored) {
  CheckObserver checker = Recorder();
  checker.OnPrepare(1, /*epoch=*/0, 5, 2);
  // Rollback: the loop restarts under epoch 1; the old prepare is void.
  checker.OnLoopCreated(1, 1, 0, 0);
  checker.OnCommit(1, 1, 5, 1, 0, 4);         // fresh epoch: clean
  checker.OnCommit(1, /*epoch=*/0, 5, 9, 0, 0);  // stale epoch: ignored
  EXPECT_TRUE(checker.violations().empty());
}

TEST(InvariantCheckerTest, EngineResetClearsExpectations) {
  CheckObserver checker = Recorder();
  checker.OnPrepare(1, 0, 5, 2);
  checker.OnEngineReset(/*processor=*/0);
  // After a restart the vertex may legitimately commit with no round open.
  checker.OnCommit(1, 0, 5, 1, 0, 4);
  EXPECT_TRUE(checker.violations().empty());
}

TEST(InvariantCheckerTest, DeepCheckCatchesCorruptedSessionState) {
  JobConfig config;
  VersionedStore store;
  SessionTable sessions(&config, &store);
  LoopState& ls = sessions.Create(1, 0, 0);

  ls.blocked_count = 3;  // nothing buffered: counter is corrupt
  ls.stalled.insert(42);  // no session for vertex 42

  VertexSession& waiting = ls.vertices[7];
  waiting.id = 7;
  waiting.waiting_list.insert(8);  // waiting but not preparing

  VertexSession& retired = ls.vertices[9];
  retired.id = 9;
  retired.AddTarget(4);
  retired.RemoveTarget(4);  // retiring set left undrained while quiescent

  CheckObserver checker = Recorder();
  checker.DeepCheck(sessions);
  EXPECT_TRUE(Tripped(checker, "INV-BLOCKED-COUNT"));
  EXPECT_TRUE(Tripped(checker, "INV-QUIESCENT"));
  EXPECT_TRUE(Tripped(checker, "INV-RETIRE-DRAIN"));
  EXPECT_FALSE(Tripped(checker, "INV-ACTIVE-SET"));
}

TEST(InvariantCheckerTest, DeepCheckCatchesDirtySessionOffTheActiveList) {
  JobConfig config;
  VersionedStore store;
  SessionTable sessions(&config, &store);
  LoopState& ls = sessions.Create(1, 0, 3);
  for (VertexId v : {10, 11}) {
    VertexSession& s = ls.vertices[v];
    s.id = v;
    s.iter = v - 6;  // 4 and 5: both beyond tau
    ls.MarkDirty(s);
  }

  CheckObserver clean = Recorder();
  clean.DeepCheck(sessions);
  EXPECT_TRUE(clean.violations().empty());

  // Drop vertex 10, the one holding the minimum, from the list: a report
  // would now claim min_work_iter 5 while work at iteration 4 is pending.
  ls.active.erase(ls.active.begin());
  CheckObserver checker = Recorder();
  checker.DeepCheck(sessions);
  const std::vector<CheckViolation> violations = checker.violations();
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].invariant, "INV-ACTIVE-SET");
  EXPECT_EQ(violations[0].vertex, 10u);
  EXPECT_EQ(violations[1].invariant, "INV-ACTIVE-SET");
  EXPECT_NE(violations[1].detail.find("!= full scan 4"), std::string::npos)
      << violations[1].detail;
}

TEST(InvariantCheckerDeathTest, AbortModeDumpsTheInvariantName) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        CheckObserver checker;  // default: abort_on_violation = true
        checker.OnPrepare(1, 0, 5, 2);
        checker.OnCommit(1, 0, 5, 3, 0, 4);
      },
      "invariant: INV-QUORUM");
}

}  // namespace
}  // namespace tornado
