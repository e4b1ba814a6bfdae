// Unit tests for the dynamic graph substrate and the partitioner,
// including property-style sweeps comparing the exact SSSP solver
// (Dijkstra, baselines/solvers.h) against brute-force Bellman-Ford on
// random graphs.

#include <gtest/gtest.h>

#include <unordered_map>

#include "baselines/solvers.h"
#include "common/rng.h"
#include "graph/dynamic_graph.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

TEST(DynamicGraphTest, InsertAndRemove) {
  DynamicGraph graph;
  EXPECT_TRUE(graph.Apply(EdgeDelta{1, 2, 5.0, true}));
  EXPECT_TRUE(graph.Apply(EdgeDelta{1, 2, 7.0, true}));  // parallel edge
  EXPECT_EQ(graph.NumEdges(), 2u);
  EXPECT_EQ(graph.OutEdges(1).size(), 2u);
  EXPECT_TRUE(graph.HasVertex(2));  // endpoint materialized

  EXPECT_TRUE(graph.Apply(EdgeDelta{1, 2, 5.0, false}));
  EXPECT_EQ(graph.NumEdges(), 1u);
  EXPECT_FALSE(graph.Apply(EdgeDelta{1, 9, 1.0, false}));  // unknown edge
}

TEST(DynamicGraphTest, SolveSsspTinyGraph) {
  DynamicGraph graph;
  graph.Apply(EdgeDelta{0, 1, 1.0, true});
  graph.Apply(EdgeDelta{1, 2, 1.0, true});
  graph.Apply(EdgeDelta{0, 2, 5.0, true});
  auto dist = SolveSssp(graph, 0).dist;
  EXPECT_DOUBLE_EQ(dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dist[2], 2.0);
  EXPECT_EQ(dist.count(99), 0u);
}

/// Brute-force Bellman-Ford used as the oracle.
std::unordered_map<VertexId, double> BellmanFord(const DynamicGraph& graph,
                                                 VertexId source) {
  std::unordered_map<VertexId, double> dist;
  dist[source] = 0.0;
  const auto vertices = graph.Vertices();
  for (size_t round = 0; round <= vertices.size(); ++round) {
    bool changed = false;
    for (VertexId u : vertices) {
      auto du = dist.find(u);
      if (du == dist.end()) continue;
      for (const auto& e : graph.OutEdges(u)) {
        const double nd = du->second + e.weight;
        auto [it, inserted] = dist.emplace(e.dst, nd);
        if (!inserted && nd < it->second) {
          it->second = nd;
          changed = true;
        } else if (inserted) {
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return dist;
}

class DijkstraPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DijkstraPropertyTest, MatchesBellmanFordOnRandomGraph) {
  Rng rng(GetParam());
  DynamicGraph graph;
  const int vertices = 30 + static_cast<int>(rng.NextUint64(40));
  const int edges = 50 + static_cast<int>(rng.NextUint64(200));
  for (int i = 0; i < edges; ++i) {
    graph.Apply(EdgeDelta{rng.NextUint64(vertices), rng.NextUint64(vertices),
                          rng.NextDouble(0.5, 10.0), true});
  }
  // Random deletions.
  for (int i = 0; i < edges / 4; ++i) {
    const VertexId u = rng.NextUint64(vertices);
    const auto& out = graph.OutEdges(u);
    if (out.empty()) continue;
    const auto& e = out[rng.NextUint64(out.size())];
    graph.Apply(EdgeDelta{u, e.dst, e.weight, false});
  }

  const auto expected = BellmanFord(graph, 0);
  const auto got = SolveSssp(graph, 0).dist;
  EXPECT_EQ(got.size(), expected.size());
  for (const auto& [v, d] : expected) {
    ASSERT_TRUE(got.count(v) > 0) << "vertex " << v;
    EXPECT_NEAR(got.at(v), d, 1e-9) << "vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

TEST(HashPartitionerTest, CoversAllPartitionsRoughlyEvenly) {
  HashPartitioner partitioner(8);
  std::vector<int> counts(8, 0);
  for (VertexId v = 0; v < 8000; ++v) {
    const uint32_t p = partitioner.PartitionOf(v);
    ASSERT_LT(p, 8u);
    counts[p]++;
  }
  for (int c : counts) {
    EXPECT_GT(c, 700);
    EXPECT_LT(c, 1300);
  }
}

TEST(HashPartitionerTest, Deterministic) {
  HashPartitioner a(16), b(16);
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(a.PartitionOf(v), b.PartitionOf(v));
  }
}

}  // namespace
}  // namespace tornado
