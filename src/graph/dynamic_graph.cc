#include "graph/dynamic_graph.h"

#include <algorithm>

namespace tornado {

const std::vector<DynamicGraph::Edge> DynamicGraph::kEmpty = {};

bool DynamicGraph::Apply(const EdgeDelta& delta) {
  if (delta.insert) {
    adjacency_[delta.src].push_back(Edge{delta.dst, delta.weight});
    adjacency_.try_emplace(delta.dst);  // make the endpoint known
    ++num_edges_;
    return true;
  }
  auto it = adjacency_.find(delta.src);
  if (it == adjacency_.end()) return false;
  auto& edges = it->second;
  // Parallel edges are distinct: a retraction names the exact edge (the
  // generator replays recorded weights), so match dst AND weight.
  for (size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].dst == delta.dst && edges[i].weight == delta.weight) {
      edges[i] = edges.back();
      edges.pop_back();
      --num_edges_;
      return true;
    }
  }
  return false;
}

const std::vector<DynamicGraph::Edge>& DynamicGraph::OutEdges(
    VertexId v) const {
  auto it = adjacency_.find(v);
  return it == adjacency_.end() ? kEmpty : it->second;
}

std::vector<VertexId> DynamicGraph::Vertices() const {
  std::vector<VertexId> out;
  out.reserve(adjacency_.size());
  for (const auto& [v, edges] : adjacency_) out.push_back(v);
  std::sort(out.begin(), out.end());  // deterministic listing for callers
  return out;
}

}  // namespace tornado
