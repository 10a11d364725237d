#ifndef KRCORE_GRAPH_GRAPH_BUILDER_H_
#define KRCORE_GRAPH_GRAPH_BUILDER_H_

#include <utility>
#include <vector>

#include "graph/graph.h"

namespace krcore {

/// Accumulates undirected edges and produces a normalized CSR Graph:
/// self-loops dropped, parallel edges deduplicated, adjacency sorted.
class GraphBuilder {
 public:
  /// `num_vertices` fixes the vertex universe 0..n-1; edges touching
  /// out-of-range ids are rejected with KRCORE_CHECK.
  explicit GraphBuilder(VertexId num_vertices) : num_vertices_(num_vertices) {}

  void AddEdge(VertexId u, VertexId v);

  /// Bulk add.
  void AddEdges(const std::vector<std::pair<VertexId, VertexId>>& edges);

  size_t num_pending_edges() const { return edges_.size(); }
  VertexId num_vertices() const { return num_vertices_; }

  /// Finalizes into an immutable Graph. The builder may be reused afterwards
  /// (its edge list is left intact).
  Graph Build() const;

 private:
  VertexId num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

/// Convenience: build a graph directly from an edge list.
Graph MakeGraph(VertexId num_vertices,
                const std::vector<std::pair<VertexId, VertexId>>& edges);

/// Returns the subgraph of `g` induced by `vertices` plus the mapping from
/// new ids (dense 0..|vertices|-1, in the order given) to old ids.
/// `vertices` must not contain duplicates.
struct InducedSubgraph {
  Graph graph;
  std::vector<VertexId> to_parent;  // new id -> old id
};
InducedSubgraph BuildInducedSubgraph(const Graph& g,
                                     const std::vector<VertexId>& vertices);

}  // namespace krcore

#endif  // KRCORE_GRAPH_GRAPH_BUILDER_H_
