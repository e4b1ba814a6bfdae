// Property-style end-to-end sweeps: for random seeds, delay bounds and
// query instants, Tornado's branch results must equal the Dijkstra
// reference on exactly the emitted prefix; the terminated watermark must
// be monotone; store garbage collection must keep version counts bounded.

#include <gtest/gtest.h>

#include <memory>

#include "algos/sssp.h"
#include "baselines/solvers.h"
#include "core/cluster.h"
#include "graph/dynamic_graph.h"
#include "stream/graph_stream.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

struct PropertyCase {
  uint64_t seed;
  uint64_t delay_bound;
};

class SsspPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(SsspPropertyTest, RandomisedRunMatchesReferenceAtEveryQuery) {
  const PropertyCase& param = GetParam();
  Rng driver_rng(param.seed * 7919);

  GraphStreamOptions options;
  options.num_vertices = 150 + driver_rng.NextUint64(150);
  options.num_tuples = 1200 + driver_rng.NextUint64(1200);
  options.deletion_ratio = driver_rng.NextDouble(0.0, 0.12);
  options.source_hub_weight = 8;
  options.seed = param.seed;

  JobConfig config;
  config.program = std::make_shared<SsspProgram>(0);
  config.delay_bound = param.delay_bound;
  config.num_processors = 2 + static_cast<uint32_t>(driver_rng.NextUint64(5));
  config.num_hosts = 2;
  config.ingest_rate = 30000.0 + driver_rng.NextDouble(0.0, 80000.0);
  config.seed = param.seed + 1;

  TornadoCluster cluster(config, std::make_unique<GraphStream>(options));
  cluster.Start();

  Iteration last_watermark = 0;
  const int queries = 3;
  for (int q = 0; q < queries; ++q) {
    const uint64_t target =
        options.num_tuples * (q + 1) / queries;
    ASSERT_TRUE(cluster.RunUntilEmitted(target, 600.0));
    cluster.ingester().Pause();
    cluster.RunFor(2.0);

    // Watermark monotonicity.
    const Iteration watermark = cluster.master().LastTerminated(kMainLoop);
    if (watermark != kNoIteration) {
      EXPECT_GE(watermark, last_watermark);
      last_watermark = watermark;
    }

    const uint64_t query = cluster.ingester().SubmitQuery();
    ASSERT_TRUE(cluster.RunUntilQueryDone(query, 600.0))
        << "query " << q << " stuck (seed " << param.seed << ")";
    const LoopId branch = cluster.BranchOf(query);

    // Reference on exactly the emitted prefix.
    GraphStream replay(options);
    DynamicGraph graph;
    for (uint64_t i = 0; i < cluster.ingester().emitted(); ++i) {
      auto tuple = replay.Next();
      if (!tuple.has_value()) break;
      graph.Apply(std::get<EdgeDelta>(tuple->delta));
    }
    const auto expected = SolveSssp(graph, 0).dist;
    for (VertexId v : graph.Vertices()) {
      auto state = cluster.ReadVertexState(branch, v);
      const double got =
          state == nullptr ? kSsspInfinity
                           : static_cast<const SsspState&>(*state).length;
      auto it = expected.find(v);
      const double want = it == expected.end() ? kSsspInfinity : it->second;
      if (want == kSsspInfinity) {
        ASSERT_EQ(got, kSsspInfinity)
            << "seed " << param.seed << " query " << q << " vertex " << v;
      } else {
        ASSERT_NEAR(got, want, 1e-9)
            << "seed " << param.seed << " query " << q << " vertex " << v;
      }
    }
    cluster.ingester().Resume();
  }

  // Store GC: history below the terminated watermark is pruned, so total
  // versions stay within a small multiple of the live state
  // (vertices x loops), not the full update history.
  const size_t versions = cluster.store().TotalVersions();
  const size_t vertices = cluster.store().VerticesOf(kMainLoop).size();
  EXPECT_LT(versions, (queries + 2) * (vertices + 16) * 4)
      << "version history is not being garbage-collected";
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SsspPropertyTest,
    ::testing::Values(PropertyCase{1, 1}, PropertyCase{2, 2},
                      PropertyCase{3, 8}, PropertyCase{4, 64},
                      PropertyCase{5, 1024}, PropertyCase{6, 65536},
                      PropertyCase{7, 3}, PropertyCase{8, 16}),
    [](const auto& info) {
      return "Seed" + std::to_string(info.param.seed) + "B" +
             std::to_string(info.param.delay_bound);
    });

}  // namespace
}  // namespace tornado
