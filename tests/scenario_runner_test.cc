// End-to-end tests for the ScenarioRunner: a healthy scenario completes
// with invariants held and a fixed point; the chaos fixture's scripted
// protocol sabotage trips the invariant gate; timeline actions land at
// their scripted virtual times; and same-seed runs are byte-identical.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "scenario/runner.h"
#include "scenario/scenario.h"
#include "tests/test_util.h"

namespace tornado {
namespace scenario {
namespace {

Scenario LoadFixture(const std::string& name) {
  Scenario scenario;
  std::vector<std::string> errors;
  const std::string path =
      std::string(TORNADO_SCENARIO_FIXTURES) + "/" + name;
  EXPECT_TRUE(LoadScenarioFile(path, &scenario, &errors));
  for (const std::string& e : errors) ADD_FAILURE() << e;
  return scenario;
}

TEST(ScenarioRunnerTest, HealthyScenarioHoldsInvariants) {
  ScenarioRunner runner(LoadFixture("mini_sssp.json"));
  const ScenarioVerdict verdict = runner.Run();
  EXPECT_TRUE(verdict.completed) << verdict.Summary();
  EXPECT_TRUE(verdict.invariants_held) << verdict.Summary();
  EXPECT_TRUE(verdict.fixed_point_reached) << verdict.Summary();
  EXPECT_GT(verdict.query_latency, 0.0);
  EXPECT_EQ(verdict.updates_per_bucket.size(), 10u);
  EXPECT_GT(verdict.counters.at(metric::kUpdatesCommitted), 0);
}

TEST(ScenarioRunnerTest, ChaosCommitRegressionTripsTheGate) {
  ScenarioRunner runner(LoadFixture("chaos_commit_regression.json"));
  const ScenarioVerdict verdict = runner.Run();
  EXPECT_TRUE(verdict.completed) << verdict.Summary();
  ASSERT_FALSE(verdict.invariants_held) << verdict.Summary();
  ASSERT_EQ(verdict.violations.size(), 1u);
  EXPECT_EQ(verdict.violations[0].invariant, "INV-MONO-COMMIT");
}

TEST(ScenarioRunnerTest, SameSeedRunsAreByteIdentical) {
  const Scenario scenario = LoadFixture("mini_sssp.json");
  ScenarioRunner a(scenario);
  ScenarioRunner b(scenario);
  const ScenarioVerdict va = a.Run();
  const ScenarioVerdict vb = b.Run();
  EXPECT_EQ(va.updates_per_bucket, vb.updates_per_bucket);
  EXPECT_EQ(va.counters, vb.counters);
  EXPECT_DOUBLE_EQ(va.query_latency, vb.query_latency);
  EXPECT_DOUBLE_EQ(va.virtual_seconds, vb.virtual_seconds);
}

TEST(ScenarioRunnerTest, CrashRestartActionKillsAndRecovers) {
  Scenario scenario = LoadFixture("mini_sssp.json");
  scenario.drive.wait_for_query = false;
  scenario.drive.sample_count = 30;
  TimelineAction crash;
  crash.kind = TimelineAction::Kind::kCrashRestart;
  crash.at = 0.05;
  crash.node.kind = NodeRef::Kind::kProcessor;
  crash.node.index = 1;
  crash.downtime = 0.2;
  scenario.timeline.push_back(crash);

  ScenarioRunner runner(std::move(scenario));
  const ScenarioVerdict verdict = runner.Run();
  EXPECT_TRUE(verdict.completed) << verdict.Summary();
  EXPECT_TRUE(verdict.invariants_held) << verdict.Summary();
  // The kill fired: the transport saw the node down and retransmitted
  // into it; recovery restarted it within the sampled window.
  EXPECT_TRUE(runner.cluster()->transport().IsAlive(
      runner.cluster()->processor_node(1)));
}

TEST(ScenarioRunnerTest, RateOverrideRestoresConfiguredRateExactly) {
  // set_rate then restore_rate: the run must end back at the JobConfig
  // pacing — verified by comparing against a run that never overrode.
  Scenario base = LoadFixture("mini_sssp.json");
  base.drive.wait_for_query = false;
  base.drive.pause_ingest = false;

  Scenario bursty = base;
  TimelineAction up;
  up.kind = TimelineAction::Kind::kSetRate;
  up.at = 0.03;
  up.rate = 40000.0;
  TimelineAction down;
  down.kind = TimelineAction::Kind::kRestoreRate;
  down.at = 0.03;
  bursty.timeline.push_back(up);
  bursty.timeline.push_back(down);

  ScenarioRunner a(base);
  ScenarioRunner b(std::move(bursty));
  const ScenarioVerdict va = a.Run();
  const ScenarioVerdict vb = b.Run();
  // Override immediately undone at the same boundary: identical runs.
  EXPECT_EQ(va.updates_per_bucket, vb.updates_per_bucket);
  EXPECT_EQ(va.counters, vb.counters);
}

TEST(ScenarioRunnerTest, SsspBranchBoundsCorpusReproducesTable2) {
  // Table 2's B = 1 row, as bench_sssp_branch_bounds prints it from the
  // same corpus file.
  Scenario scenario;
  std::vector<std::string> errors;
  ASSERT_TRUE(LoadScenarioFile(
      std::string(TORNADO_SCENARIO_CORPUS) + "/sssp_branch_bounds.json",
      &scenario, &errors));
  ASSERT_EQ(scenario.consistency.delay_bound, 1u);
  ScenarioRunner runner(std::move(scenario));
  const ScenarioVerdict verdict = runner.Run();
  ASSERT_TRUE(verdict.fixed_point_reached) << verdict.Summary();
  EXPECT_TRUE(verdict.invariants_held) << verdict.Summary();

  TornadoCluster& cluster = *runner.cluster();
  const QueryRecord& query = cluster.master().queries().front();
  const LoopId branch = cluster.BranchOf(query.query_id);
  EXPECT_EQ(query.converged_iteration + 1, 14u);
  EXPECT_EQ(cluster.master().TotalCommitted(branch), 17724u);
  EXPECT_EQ(cluster.master().TotalPrepares(branch), 0u);
  EXPECT_NEAR(verdict.query_latency, 0.238, 5e-4);
}

}  // namespace
}  // namespace scenario
}  // namespace tornado
