#include "algos/workloads.h"

#include <memory>

#include "algos/pagerank.h"
#include "algos/sssp.h"

namespace tornado {
namespace workloads {

GraphStreamOptions Graph(uint64_t tuples, uint64_t seed) {
  GraphStreamOptions options;
  options.num_vertices = tuples / 4;
  options.num_tuples = tuples;
  options.deletion_ratio = 0.04;
  options.source_hub_weight = 40;
  options.seed = seed;
  return options;
}

PointStreamOptions Points(uint64_t tuples, uint64_t seed) {
  PointStreamOptions options;
  options.dimensions = kPointDimensions;
  options.num_clusters = kPointClusters;
  options.num_tuples = tuples;
  options.seed = seed;
  return options;
}

InstanceStreamOptions Dense(uint64_t tuples, uint64_t seed) {
  InstanceStreamOptions options;
  options.dimensions = kDenseDimensions;
  options.num_tuples = tuples;
  options.concept_drift = 1e-4;
  options.seed = seed;
  return options;
}

InstanceStreamOptions Sparse(uint64_t tuples, uint64_t seed) {
  InstanceStreamOptions options = Dense(tuples, seed);
  options.dimensions = kSparseDimensions;
  options.sparse = true;
  return options;
}

KMeansOptions KMeans(uint32_t shards) {
  KMeansOptions kmeans;
  kmeans.num_clusters = kPointClusters;
  kmeans.num_shards = shards;
  kmeans.dimensions = kPointDimensions;
  kmeans.move_tolerance = 1e-2;
  return kmeans;
}

SgdOptions Sgd(SgdLoss loss, uint32_t shards) {
  SgdOptions sgd;
  sgd.loss = loss;
  sgd.num_shards = shards;
  sgd.dimensions =
      loss == SgdLoss::kSvmHinge ? kDenseDimensions : kSparseDimensions;
  sgd.reservoir_capacity = 1500;
  sgd.descent_rate = 0.05;
  return sgd;
}

void UseSssp(bool batch_mode, JobConfig* config) {
  config->program = std::make_shared<SsspProgram>(kSsspSource, batch_mode);
}

void UsePageRank(JobConfig* config) {
  config->program = std::make_shared<PageRankProgram>(0.85, 1e-3);
}

void UseKMeans(const KMeansOptions& options, JobConfig* config) {
  config->program = std::make_shared<KMeansProgram>(options);
  config->router = KMeansProgram::MakeRouter(options);
  config->convergence.epsilon = 1e-2;
  config->convergence.window = 2;
  config->convergence.max_iterations = 400;
}

void UseSgd(const SgdOptions& options, JobConfig* config) {
  config->program = std::make_shared<SgdProgram>(options);
  config->router = SgdProgram::MakeRouter(options);
  config->convergence.quiescence = true;
  config->convergence.epsilon = 1e-4;
  config->convergence.window = 4;
  config->convergence.max_iterations = 3000;
}

}  // namespace workloads
}  // namespace tornado
