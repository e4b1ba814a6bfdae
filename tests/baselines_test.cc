// Unit tests for the comparator engines: results must be exact; latency
// relationships must reflect the execution models (Section 6.5 shapes).

#include <gtest/gtest.h>

#include <memory>

#include "baselines/graph_baselines.h"
#include "baselines/ml_baselines.h"
#include "baselines/solvers.h"
#include "stream/graph_stream.h"
#include "stream/instance_stream.h"
#include "stream/point_stream.h"
#include "tests/test_util.h"

namespace tornado {
namespace {

GraphStreamOptions Graph(uint64_t tuples) {
  GraphStreamOptions options;
  options.num_vertices = 300;
  options.num_tuples = tuples;
  options.deletion_ratio = 0.05;
  options.seed = 9;
  return options;
}

template <typename Engine>
void Feed(Engine& engine, StreamSource& stream, size_t count) {
  for (size_t i = 0; i < count; ++i) {
    auto tuple = stream.Next();
    if (!tuple.has_value()) break;
    engine.Ingest(*tuple);
  }
}

TEST(SsspBaselineTest, AllModelsComputeTheExactFixedPoint) {
  const auto options = Graph(2000);
  DynamicGraph reference;
  {
    GraphStream replay(options);
    while (auto tuple = replay.Next()) {
      reference.Apply(std::get<EdgeDelta>(tuple->delta));
    }
  }
  const auto expected = SolveSssp(reference, 0).dist;

  for (ExecutionModel model :
       {ExecutionModel::kSparkLike, ExecutionModel::kGraphLabLike,
        ExecutionModel::kNaiadLike, ExecutionModel::kIncremental}) {
    SsspBaseline engine(model, 0, BaselineCostModel{});
    GraphStream stream(options);
    Feed(engine, stream, options.num_tuples);
    auto result = engine.Query();
    ASSERT_TRUE(result.ok);
    EXPECT_GT(result.latency, 0.0);
    EXPECT_EQ(engine.last_result().size(), expected.size());
    for (const auto& [v, d] : expected) {
      EXPECT_NEAR(engine.last_result().at(v), d, 1e-9);
    }
  }
}

TEST(SsspBaselineTest, IncrementalQueriesGetCheaperWithSmallerBatches) {
  const auto options = Graph(4000);
  SsspBaseline big(ExecutionModel::kIncremental, 0, BaselineCostModel{});
  SsspBaseline small(ExecutionModel::kIncremental, 0, BaselineCostModel{});

  // Engine `big` queries once after 4000 tuples (one huge batch after a
  // warm-up fixed point); `small` queries every 200 tuples.
  GraphStream sa(options), sb(options);
  Feed(big, sa, 2000);
  (void)big.Query();  // warm fixed point
  Feed(big, sa, 2000);
  const double big_latency = big.Query().latency;

  Feed(small, sb, 2000);
  (void)small.Query();
  double last_small = 0.0;
  for (int i = 0; i < 10; ++i) {
    Feed(small, sb, 200);
    last_small = small.Query().latency;
  }
  EXPECT_LT(last_small, big_latency)
      << "smaller batches should be cheaper to absorb";
}

TEST(SsspBaselineTest, SparkIsSlowerThanGraphLab) {
  const auto options = Graph(3000);
  SsspBaseline spark(ExecutionModel::kSparkLike, 0, BaselineCostModel{});
  SsspBaseline graphlab(ExecutionModel::kGraphLabLike, 0, BaselineCostModel{});
  GraphStream sa(options), sb(options);
  Feed(spark, sa, options.num_tuples);
  Feed(graphlab, sb, options.num_tuples);
  EXPECT_GT(spark.Query().latency, graphlab.Query().latency);
}

TEST(PageRankBaselineTest, WarmStartUsesFewerIterations) {
  const auto options = Graph(3000);
  PageRankBaseline incremental(ExecutionModel::kIncremental, 0.85, 1e-6,
                               BaselineCostModel{});
  GraphStream stream(options);
  Feed(incremental, stream, 2800);
  const auto cold = incremental.Query();
  Feed(incremental, stream, 200);
  const auto warm = incremental.Query();
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(PageRankBaselineTest, NaiadDegradesWithEpochs) {
  const auto options = Graph(5000);
  BaselineCostModel trace_heavy;
  trace_heavy.per_trace_unit = 2e-5;  // amplified so the asymptotic trend
                                      // is visible at unit-test scale
  PageRankBaseline naiad(ExecutionModel::kNaiadLike, 0.85, 1e-6, trace_heavy);
  GraphStream stream(options);
  Feed(naiad, stream, 1000);
  double last = 0.0;
  for (int i = 0; i < 8; ++i) {
    Feed(naiad, stream, 500);
    last = naiad.Query().latency;
  }

  // The paper's observation (Section 6.5): after enough epochs the
  // trace-combination cost makes incremental PageRank *slower than
  // recomputing from scratch* in the GraphLab-like engine.
  PageRankBaseline graphlab(ExecutionModel::kGraphLabLike, 0.85, 1e-6,
                            BaselineCostModel{});
  GraphStream replay(options);
  Feed(graphlab, replay, 1000 + 8 * 500);
  EXPECT_GT(last, graphlab.Query().latency)
      << "accumulated traces should eventually lose to from-scratch";
}

TEST(KMeansBaselineTest, ComputesLloydFixedPointAndNaiadRunsOutOfMemory) {
  PointStreamOptions options;
  options.num_tuples = 3000;
  options.num_clusters = 4;
  options.dimensions = 4;
  options.seed = 3;

  BaselineCostModel cost;
  cost.trace_memory_cap = 10000;  // small budget: OOM after a few epochs
  KMeansBaseline naiad(ExecutionModel::kNaiadLike, 4, 4, 1e-4, cost);
  KMeansBaseline incremental(ExecutionModel::kIncremental, 4, 4, 1e-4,
                             BaselineCostModel{});
  PointStream sa(options), sb(options);
  Feed(naiad, sa, 1500);
  Feed(incremental, sb, 1500);

  bool oomed = false;
  for (int i = 0; i < 6 && !oomed; ++i) {
    Feed(naiad, sa, 200);
    auto result = naiad.Query();
    oomed = !result.ok;
  }
  EXPECT_TRUE(oomed) << "Naiad-like KMeans should exceed its memory budget";

  auto result = incremental.Query();
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(incremental.last_centroids().size(), 4u);
}

TEST(SgdBaselineTest, SolvesToLowObjectiveAndWarmStartHelps) {
  InstanceStreamOptions options;
  options.num_tuples = 2000;
  options.dimensions = 8;
  options.label_noise = 0.0;
  options.seed = 41;

  SgdBaseline spark(ExecutionModel::kSparkLike, SgdLoss::kSvmHinge, 8, 1.0,
                    1e-4, BaselineCostModel{});
  SgdBaseline incremental(ExecutionModel::kIncremental, SgdLoss::kSvmHinge, 8,
                          1.0, 1e-4, BaselineCostModel{});
  InstanceStream sa(options), sb(options);
  Feed(spark, sa, 1800);
  Feed(incremental, sb, 1800);
  const auto cold = spark.Query();
  (void)incremental.Query();
  Feed(spark, sa, 200);
  Feed(incremental, sb, 200);
  const auto spark_again = spark.Query();
  const auto warm = incremental.Query();

  ASSERT_TRUE(warm.ok);
  EXPECT_LT(warm.iterations, spark_again.iterations)
      << "warm start should need fewer GD iterations than from-scratch";
  EXPECT_GT(cold.iterations, 1u);
  // The learned separator classifies the training stream well.
  const auto& w = incremental.last_weights();
  InstanceStream check(options);
  size_t correct = 0, total = 0;
  while (auto tuple = check.Next()) {
    const auto& inst = std::get<InstanceDelta>(tuple->delta);
    double dot = 0.0;
    for (const auto& [idx, value] : inst.features) dot += w[idx] * value;
    if ((dot >= 0.0 ? 1.0 : -1.0) == inst.label) ++correct;
    ++total;
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.9);
}

}  // namespace
}  // namespace tornado
