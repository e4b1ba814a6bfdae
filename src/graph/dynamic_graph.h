#ifndef TORNADO_GRAPH_DYNAMIC_GRAPH_H_
#define TORNADO_GRAPH_DYNAMIC_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "stream/tuple.h"

namespace tornado {

/// A mutable directed multigraph assembled from an edge stream.
///
/// The Tornado engine maintains its dependency graph inside the vertices
/// themselves (addTarget/removeTarget); this standalone structure serves
/// the from-scratch baselines (Spark-like, GraphLab-like), the exact
/// solvers in baselines/solvers.h that tests validate fixed points
/// against, and the benches that replay a workload's stream.
class DynamicGraph {
 public:
  struct Edge {
    VertexId dst;
    double weight;
  };

  /// Applies an insertion or deletion. Deleting removes one edge matching
  /// (src, dst); returns false if no such edge existed.
  bool Apply(const EdgeDelta& delta);

  const std::vector<Edge>& OutEdges(VertexId v) const;
  std::vector<VertexId> Vertices() const;

  bool HasVertex(VertexId v) const { return adjacency_.count(v) > 0; }
  size_t NumVertices() const { return adjacency_.size(); }
  size_t NumEdges() const { return num_edges_; }

 private:
  std::unordered_map<VertexId, std::vector<Edge>> adjacency_;
  size_t num_edges_ = 0;
  static const std::vector<Edge> kEmpty;
};

/// Maps vertices onto processors. Tornado stores the partitioning scheme in
/// shared storage (Section 5.1); here it is a pure function, which keeps
/// the ingester and processors trivially consistent.
class HashPartitioner {
 public:
  explicit HashPartitioner(uint32_t num_partitions)
      : num_partitions_(num_partitions) {}

  uint32_t PartitionOf(VertexId v) const {
    // Fibonacci hashing: cheap and well-mixed for sequential ids.
    const uint64_t h = v * 0x9E3779B97F4A7C15ULL;
    return static_cast<uint32_t>((h >> 32) % num_partitions_);
  }

  uint32_t num_partitions() const { return num_partitions_; }

 private:
  uint32_t num_partitions_;
};

}  // namespace tornado

#endif  // TORNADO_GRAPH_DYNAMIC_GRAPH_H_
