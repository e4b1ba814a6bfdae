// End-to-end tests: SSSP on the full Tornado engine (main loop ingestion,
// branch-loop queries, snapshot consistency) validated against a Dijkstra
// reference on the same evolving graph.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algos/sssp.h"
#include "baselines/solvers.h"
#include "core/cluster.h"
#include "graph/dynamic_graph.h"
#include "stream/graph_stream.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

constexpr VertexId kSource = 0;

/// Replays the same generated stream into a DynamicGraph to build the
/// reference answer at a given prefix length.
DynamicGraph GraphAtPrefix(const GraphStreamOptions& options, size_t prefix) {
  GraphStream stream(options);
  DynamicGraph graph;
  for (size_t i = 0; i < prefix; ++i) {
    auto tuple = stream.Next();
    if (!tuple.has_value()) break;
    graph.Apply(std::get<EdgeDelta>(tuple->delta));
  }
  return graph;
}

JobConfig MakeConfig(uint64_t delay_bound, uint32_t processors = 4) {
  JobConfig config;
  config.program = std::make_shared<SsspProgram>(kSource);
  config.delay_bound = delay_bound;
  config.num_processors = processors;
  config.num_hosts = 2;
  config.convergence.quiescence = true;
  config.ingest_rate = 100000.0;
  config.ingest_batch = 10;
  config.seed = 17;
  return config;
}

GraphStreamOptions SmallGraph() {
  GraphStreamOptions options;
  options.num_vertices = 200;
  options.num_tuples = 1500;
  options.deletion_ratio = 0.05;
  options.seed = 7;
  return options;
}

void ExpectMatchesDijkstra(const TornadoCluster& cluster, LoopId branch,
                           const DynamicGraph& reference) {
  const auto expected = SolveSssp(reference, kSource).dist;
  size_t checked = 0;
  for (VertexId v : reference.Vertices()) {
    auto state_ptr = cluster.ReadVertexState(branch, v);
    const auto it = expected.find(v);
    const double want =
        it == expected.end() ? kSsspInfinity : it->second;
    double got = kSsspInfinity;
    if (state_ptr != nullptr) {
      got = static_cast<const SsspState&>(*state_ptr).length;
    }
    if (want == kSsspInfinity) {
      EXPECT_EQ(got, kSsspInfinity) << "vertex " << v;
    } else {
      ASSERT_NE(state_ptr, nullptr) << "vertex " << v << " missing";
      EXPECT_NEAR(got, want, 1e-9) << "vertex " << v;
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

class SsspEngineTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SsspEngineTest, BranchLoopMatchesDijkstraAfterFullStream) {
  const GraphStreamOptions graph_options = SmallGraph();
  JobConfig config = MakeConfig(/*delay_bound=*/GetParam());
  TornadoCluster cluster(config, std::make_unique<GraphStream>(graph_options));
  CheckObserver checker(CheckObserver::Options{
      /*abort_on_violation=*/true, &cluster.store()});
  AttachChecker(cluster, checker);
  cluster.Start();

  ASSERT_TRUE(cluster.RunUntilEmitted(graph_options.num_tuples, 600.0));
  // Let the main loop's incremental approximation settle, then query.
  cluster.RunFor(2.0);
  cluster.ingester().Pause();
  cluster.RunFor(1.0);

  const uint64_t query = cluster.ingester().SubmitQuery();
  ASSERT_TRUE(cluster.RunUntilQueryDone(query, 600.0))
      << "branch loop did not converge";

  const LoopId branch = cluster.BranchOf(query);
  ASSERT_NE(branch, 0u);
  DeepCheckAll(cluster, checker);
  EXPECT_GT(checker.commits_checked(), 0u);
  ExpectMatchesDijkstra(cluster, branch,
                        GraphAtPrefix(graph_options, graph_options.num_tuples));
}

TEST_P(SsspEngineTest, MidStreamQueryMatchesPrefixSnapshot) {
  const GraphStreamOptions graph_options = SmallGraph();
  JobConfig config = MakeConfig(/*delay_bound=*/GetParam());
  TornadoCluster cluster(config, std::make_unique<GraphStream>(graph_options));
  cluster.Start();

  const size_t prefix = graph_options.num_tuples / 2;
  ASSERT_TRUE(cluster.RunUntilEmitted(prefix, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(2.0);

  const uint64_t query = cluster.ingester().SubmitQuery();
  ASSERT_TRUE(cluster.RunUntilQueryDone(query, 600.0));
  const LoopId branch = cluster.BranchOf(query);

  // The ingester may have raced a few more tuples out before Pause took
  // effect; the reference uses exactly what was emitted.
  const size_t emitted = cluster.ingester().emitted();
  ExpectMatchesDijkstra(cluster, branch, GraphAtPrefix(graph_options, emitted));

  // Resume and finish the stream; a second query must reflect the suffix.
  cluster.ingester().Resume();
  ASSERT_TRUE(cluster.RunUntilEmitted(graph_options.num_tuples, 600.0));
  cluster.ingester().Pause();
  cluster.RunFor(2.0);
  const uint64_t query2 = cluster.ingester().SubmitQuery();
  ASSERT_TRUE(cluster.RunUntilQueryDone(query2, 600.0));
  ExpectMatchesDijkstra(cluster, cluster.BranchOf(query2),
                        GraphAtPrefix(graph_options, graph_options.num_tuples));
}

INSTANTIATE_TEST_SUITE_P(DelayBounds, SsspEngineTest,
                         ::testing::Values(1, 4, 256, 65536),
                         [](const auto& info) {
                           return "B" + std::to_string(info.param);
                         });

TEST(SsspEngineDetailTest, QueryLatencyIsRecorded) {
  const GraphStreamOptions graph_options = SmallGraph();
  JobConfig config = MakeConfig(64);
  TornadoCluster cluster(config, std::make_unique<GraphStream>(graph_options));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(graph_options.num_tuples, 600.0));
  cluster.RunFor(1.0);
  const uint64_t query = cluster.ingester().SubmitQuery();
  ASSERT_TRUE(cluster.RunUntilQueryDone(query, 600.0));
  EXPECT_GT(cluster.QueryLatency(query), 0.0);
  EXPECT_EQ(cluster.ingester().completed_queries().size(), 1u);
}

TEST(SsspEngineDetailTest, SynchronousBoundUsesNoPrepares) {
  const GraphStreamOptions graph_options = SmallGraph();
  JobConfig config = MakeConfig(/*delay_bound=*/1);
  TornadoCluster cluster(config, std::make_unique<GraphStream>(graph_options));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(graph_options.num_tuples, 600.0));
  cluster.RunFor(2.0);
  const uint64_t query = cluster.ingester().SubmitQuery();
  ASSERT_TRUE(cluster.RunUntilQueryDone(query, 600.0));
  // Section 4.4 / Table 2: with B = 1 the execution is synchronous and no
  // PREPARE messages are needed.
  EXPECT_EQ(cluster.metrics().Get(metric::kPreparesSent), 0);
}

TEST(SsspEngineDetailTest, AsyncLoopUsesPrepares) {
  const GraphStreamOptions graph_options = SmallGraph();
  JobConfig config = MakeConfig(/*delay_bound=*/65536);
  TornadoCluster cluster(config, std::make_unique<GraphStream>(graph_options));
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilEmitted(graph_options.num_tuples, 600.0));
  cluster.RunFor(2.0);
  EXPECT_GT(cluster.metrics().Get(metric::kPreparesSent), 0);
}

}  // namespace
}  // namespace tornado
