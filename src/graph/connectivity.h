#ifndef KRCORE_GRAPH_CONNECTIVITY_H_
#define KRCORE_GRAPH_CONNECTIVITY_H_

#include <vector>

#include "graph/graph.h"

namespace krcore {

/// Connected components restricted to `subset` (induced subgraph semantics):
/// returns one vector of vertex ids per component; ids are from the parent
/// graph. `in_subset` is scratch of size g.num_vertices(), all false on entry
/// and restored to all false on exit (allows reuse without reallocation).
std::vector<std::vector<VertexId>> ComponentsOfSubset(
    const Graph& g, const std::vector<VertexId>& subset,
    std::vector<char>& in_subset);

/// Convenience overload that allocates its own scratch.
std::vector<std::vector<VertexId>> ComponentsOfSubset(
    const Graph& g, const std::vector<VertexId>& subset);

/// True iff the subgraph induced by `subset` is connected (empty and
/// singleton subsets count as connected).
bool IsConnectedSubset(const Graph& g, const std::vector<VertexId>& subset);

}  // namespace krcore

#endif  // KRCORE_GRAPH_CONNECTIVITY_H_
