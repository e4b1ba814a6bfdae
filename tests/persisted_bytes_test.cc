// Pins the bytes the engine persists. Short seeded KMeans and PageRank jobs
// (the setups of engine_kmeans_test / engine_pagerank_test, scaled down)
// are hashed at several points of their run: every stored
// (loop, vertex, iteration, bytes) record, in sorted order, through 64-bit
// FNV-1a. The digest depends on the records only, never on the store's
// physical layout: it may change only when serialization, what a commit
// writes, or which versions pruning and truncation keep change.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "algos/kmeans.h"
#include "algos/pagerank.h"
#include "core/cluster.h"
#include "stream/graph_stream.h"
#include "stream/point_stream.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

// Branch loop ids are handed out sequentially after the main loop; a short
// job forks far fewer than this.
constexpr LoopId kMaxProbedLoop = 256;

class Fnv1a {
 public:
  void Add(const uint8_t* data, size_t size) {
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= data[i];
      hash_ *= 0x100000001b3ULL;
    }
  }
  void AddU64(uint64_t v) {
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(v >> (8 * i));
    Add(bytes, sizeof(bytes));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Folds every record of `store` into `fnv`: loops ascending, vertices
/// ascending, each chain oldest version first. Uses only the public read
/// API, so the walk does not depend on the store's physical layout.
void AddStore(const VersionedStore& store, Fnv1a* fnv) {
  for (LoopId loop = 0; loop < kMaxProbedLoop; ++loop) {
    for (VertexId vertex : store.VerticesOf(loop)) {
      std::vector<Iteration> iterations;
      Iteration at = store.GetVersionIteration(loop, vertex, kNoIteration - 1);
      while (at != kNoIteration) {
        iterations.push_back(at);
        at = at == 0 ? kNoIteration
                     : store.GetVersionIteration(loop, vertex, at - 1);
      }
      ASSERT_EQ(iterations.size(), store.VersionCount(loop, vertex));
      for (auto it = iterations.rbegin(); it != iterations.rend(); ++it) {
        const VersionView bytes = store.Get(loop, vertex, *it);
        ASSERT_TRUE(bytes);
        fnv->AddU64(loop);
        fnv->AddU64(vertex);
        fnv->AddU64(*it);
        fnv->AddU64(bytes.size());
        fnv->Add(bytes.data(), bytes.size());
      }
    }
  }
}

/// Runs the cluster through ingest, a quiet period and one branch query,
/// hashing the whole store after each quarter of the ingest and after each
/// later phase.
uint64_t RunAndDigest(TornadoCluster& cluster, uint64_t num_tuples) {
  CheckObserver checker(CheckObserver::Options{
      /*abort_on_violation=*/true, &cluster.store()});
  AttachChecker(cluster, checker);
  Fnv1a fnv;
  cluster.Start();
  for (uint64_t quarter = 1; quarter <= 4; ++quarter) {
    EXPECT_TRUE(cluster.RunUntilEmitted(num_tuples * quarter / 4, 600.0));
    AddStore(cluster.store(), &fnv);
  }
  cluster.ingester().Pause();
  cluster.RunFor(3.0);
  AddStore(cluster.store(), &fnv);
  const uint64_t query = cluster.ingester().SubmitQuery();
  EXPECT_TRUE(cluster.RunUntilQueryDone(query, 600.0));
  EXPECT_NE(cluster.BranchOf(query), kMainLoop);
  AddStore(cluster.store(), &fnv);
  DeepCheckAll(cluster, checker);
  EXPECT_GT(checker.commits_checked(), 0u);
  fnv.AddU64(cluster.store().TotalVersions());
  fnv.AddU64(cluster.store().TotalBytes());
  return fnv.value();
}

TEST(PersistedBytesTest, KMeansStoreDigestIsPinned) {
  PointStreamOptions stream_options;
  stream_options.dimensions = 5;
  stream_options.num_clusters = 4;
  stream_options.num_tuples = 1500;
  stream_options.cluster_spread = 1.5;
  stream_options.space_extent = 60.0;
  stream_options.seed = 21;

  KMeansOptions kmeans;
  kmeans.num_clusters = 4;
  kmeans.num_shards = 4;
  kmeans.dimensions = 5;
  kmeans.space_extent = 60.0;
  kmeans.move_tolerance = 1e-4;
  kmeans.seed = 3;

  JobConfig config;
  config.program = std::make_shared<KMeansProgram>(kmeans);
  config.router = KMeansProgram::MakeRouter(kmeans);
  config.delay_bound = 64;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.ingest_rate = 100000.0;

  TornadoCluster cluster(config, std::make_unique<PointStream>(stream_options));
  EXPECT_EQ(RunAndDigest(cluster, stream_options.num_tuples),
            0x30a9109e585715dfULL);
}

TEST(PersistedBytesTest, PageRankStoreDigestIsPinned) {
  GraphStreamOptions graph_options;
  graph_options.num_vertices = 150;
  graph_options.num_tuples = 600;
  graph_options.deletion_ratio = 0.03;
  graph_options.seed = 11;

  JobConfig config;
  config.program = std::make_shared<PageRankProgram>(0.85, 1e-4);
  config.delay_bound = 64;
  config.num_processors = 4;
  config.num_hosts = 2;
  config.seed = 3;
  config.ingest_rate = 100000.0;

  TornadoCluster cluster(config, std::make_unique<GraphStream>(graph_options));
  EXPECT_EQ(RunAndDigest(cluster, graph_options.num_tuples),
            0xf814411676c6788bULL);
}

}  // namespace
}  // namespace tornado
