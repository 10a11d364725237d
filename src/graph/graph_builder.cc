#include "graph/graph_builder.h"

#include <algorithm>
#include <unordered_map>

namespace krcore {

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  KRCORE_CHECK(u < num_vertices_ && v < num_vertices_);
  if (u == v) return;  // drop self-loops
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
}

void GraphBuilder::AddEdges(
    const std::vector<std::pair<VertexId, VertexId>>& edges) {
  for (auto [u, v] : edges) AddEdge(u, v);
}

Graph GraphBuilder::Build() const {
  // Deduplicate.
  std::vector<std::pair<VertexId, VertexId>> edges = edges_;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  // Counting pass.
  std::vector<EdgeId> offsets(static_cast<size_t>(num_vertices_) + 1, 0);
  for (auto [u, v] : edges) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];

  // Fill pass.
  std::vector<VertexId> neighbors(offsets.back());
  std::vector<EdgeId> cursor(offsets.begin(), offsets.end() - 1);
  for (auto [u, v] : edges) {
    neighbors[cursor[u]++] = v;
    neighbors[cursor[v]++] = u;
  }
  for (VertexId u = 0; u < num_vertices_; ++u) {
    std::sort(neighbors.begin() + offsets[u],
              neighbors.begin() + offsets[u + 1]);
  }
  return Graph(std::move(offsets), std::move(neighbors));
}

Graph MakeGraph(VertexId num_vertices,
                const std::vector<std::pair<VertexId, VertexId>>& edges) {
  GraphBuilder b(num_vertices);
  b.AddEdges(edges);
  return b.Build();
}

InducedSubgraph BuildInducedSubgraph(const Graph& g,
                                     const std::vector<VertexId>& vertices) {
  std::unordered_map<VertexId, VertexId> to_local;
  to_local.reserve(vertices.size() * 2);
  for (VertexId i = 0; i < vertices.size(); ++i) {
    auto [it, inserted] = to_local.emplace(vertices[i], i);
    KRCORE_CHECK(inserted) << "duplicate vertex in induced-subgraph request";
    (void)it;
  }
  GraphBuilder b(static_cast<VertexId>(vertices.size()));
  for (VertexId i = 0; i < vertices.size(); ++i) {
    for (VertexId w : g.neighbors(vertices[i])) {
      auto it = to_local.find(w);
      if (it != to_local.end() && it->second > i) b.AddEdge(i, it->second);
    }
  }
  return InducedSubgraph{b.Build(), vertices};
}

}  // namespace krcore
