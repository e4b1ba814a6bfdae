// End-to-end PageRank on the Tornado engine, validated against the exact
// solver (baselines/solvers.h) of the same unnormalized,
// no-dangling-redistribution fixed-point equations on the final graph.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algos/pagerank.h"
#include "baselines/solvers.h"
#include "core/cluster.h"
#include "graph/dynamic_graph.h"
#include "stream/graph_stream.h"
#include "stream/vector_stream.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

constexpr double kDamping = 0.85;

TEST(PageRankEngineTest, BranchLoopApproximatesExactSolver) {
  GraphStreamOptions graph_options;
  graph_options.num_vertices = 150;
  graph_options.num_tuples = 1200;
  graph_options.deletion_ratio = 0.03;
  graph_options.seed = 11;

  JobConfig config;
  config.program = std::make_shared<PageRankProgram>(kDamping, 1e-4);
  config.delay_bound = 64;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.seed = 3;
  config.ingest_rate = 100000.0;

  TornadoCluster cluster(config, std::make_unique<GraphStream>(graph_options));
  CheckObserver checker(CheckObserver::Options{
      /*abort_on_violation=*/true, &cluster.store()});
  AttachChecker(cluster, checker);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(graph_options.num_tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(3.0);

  const uint64_t query = cluster.ingester().SubmitQuery();
  ASSERT_TRUE(cluster.RunUntilQueryDone(query, 600.0));
  const LoopId branch = cluster.BranchOf(query);
  DeepCheckAll(cluster, checker);
  EXPECT_GT(checker.commits_checked(), 0u);

  GraphStream replay(graph_options);
  DynamicGraph graph;
  while (auto tuple = replay.Next()) {
    graph.Apply(std::get<EdgeDelta>(tuple->delta));
  }
  const auto expected = SolvePageRank(graph, kDamping, 1e-12, {}, 2000).rank;

  // The emission tolerance bounds how far the asynchronous fixed point can
  // drift from the exact one: each in-neighbor may withhold up to
  // `tolerance` of contribution change, amplified by damping.
  double max_err = 0.0;
  size_t checked = 0;
  for (VertexId v : graph.Vertices()) {
    auto state = cluster.ReadVertexState(branch, v);
    if (state == nullptr) continue;  // never touched: no in/out edges
    const double got = static_cast<const PageRankState&>(*state).rank;
    const double want = expected.at(v);
    max_err = std::max(max_err, std::fabs(got - want) / want);
    ++checked;
  }
  EXPECT_GT(checked, graph.NumVertices() / 2);
  EXPECT_LT(max_err, 0.05) << "async PageRank drifted too far";
}

TEST(PageRankEngineTest, ScriptedChainAndRetraction) {
  // Chain 1 -> 2 -> 3: rank(3) > rank(2) > rank(isolated). Then retract
  // 2 -> 3; rank(3) must fall back to the baseline (1 - d).
  std::vector<Delta> deltas = {
      EdgeDelta{1, 2, 1.0, true},
      EdgeDelta{2, 3, 1.0, true},
  };

  JobConfig config;
  config.program = std::make_shared<PageRankProgram>(kDamping, 1e-7);
  config.delay_bound = 16;
  config.num_processors = 2;
  config.num_hosts = 1;

  TornadoCluster cluster(config, std::make_unique<VectorStream>(deltas));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(2, 60.0));
  cluster.RunFor(2.0);

  const uint64_t q1 = cluster.ingester().SubmitQuery();
  ASSERT_TRUE(cluster.RunUntilQueryDone(q1, 300.0));
  const LoopId b1 = cluster.BranchOf(q1);

  auto rank_of = [&](LoopId loop, VertexId v) {
    auto state = cluster.ReadVertexState(loop, v);
    EXPECT_NE(state, nullptr) << "vertex " << v;
    return state == nullptr
               ? -1.0
               : static_cast<const PageRankState&>(*state).rank;
  };

  const double base = 1.0 - kDamping;
  const double r1 = rank_of(b1, 1);
  const double r2 = rank_of(b1, 2);
  const double r3 = rank_of(b1, 3);
  EXPECT_NEAR(r1, base, 1e-6);
  EXPECT_NEAR(r2, base + kDamping * r1, 1e-4);
  EXPECT_NEAR(r3, base + kDamping * r2, 1e-4);
}

}  // namespace
}  // namespace tornado
