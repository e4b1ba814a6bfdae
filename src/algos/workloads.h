#ifndef TORNADO_ALGOS_WORKLOADS_H_
#define TORNADO_ALGOS_WORKLOADS_H_

#include <cstdint>

#include "algos/kmeans.h"
#include "algos/sgd.h"
#include "core/config.h"
#include "stream/graph_stream.h"
#include "stream/instance_stream.h"
#include "stream/point_stream.h"

namespace tornado {
namespace workloads {

/// The workload catalogue: the stream shapes and the per-kind program,
/// router and convergence defaults that the figure benches, the scenario
/// runner and the repository benchmark all run. The streams are the
/// scaled-down stand-ins for the paper's datasets (Table 1); DESIGN.md
/// documents the substitution. Only the tuple count and the stream seed
/// vary per run: the generator shape is part of a workload's identity.
/// Option fields set nowhere here keep their struct defaults.

inline constexpr VertexId kSsspSource = 0;
inline constexpr uint32_t kPointDimensions = 20;
inline constexpr uint32_t kPointClusters = 10;
inline constexpr uint32_t kDenseDimensions = 28;    // HIGGS-like
inline constexpr uint32_t kSparseDimensions = 400;  // PubMed-like, scaled

/// Power-law edge stream whose hub is the SSSP source.
GraphStreamOptions Graph(uint64_t tuples, uint64_t seed);
/// 20D Gaussian-mixture point stream (KMeans).
PointStreamOptions Points(uint64_t tuples, uint64_t seed);
/// Dense labelled instances (SVM).
InstanceStreamOptions Dense(uint64_t tuples, uint64_t seed);
/// Sparse bag-of-words instances (logistic regression).
InstanceStreamOptions Sparse(uint64_t tuples, uint64_t seed);

/// Program options of the iterative-model kinds, one shard per processor
/// in the callers' clusters. SGD starts at descent rate 0.05.
KMeansOptions KMeans(uint32_t shards);
SgdOptions Sgd(SgdLoss loss, uint32_t shards);

/// Each installs its kind's program, router and convergence policy into
/// `config`, leaving the cluster shape and pacing alone.
void UseSssp(bool batch_mode, JobConfig* config);
void UsePageRank(JobConfig* config);
void UseKMeans(const KMeansOptions& options, JobConfig* config);
void UseSgd(const SgdOptions& options, JobConfig* config);

}  // namespace workloads
}  // namespace tornado

#endif  // TORNADO_ALGOS_WORKLOADS_H_
