#ifndef KRCORE_KCORE_CORE_DECOMPOSITION_H_
#define KRCORE_KCORE_CORE_DECOMPOSITION_H_

#include <vector>

#include "graph/graph.h"

namespace krcore {

/// Core decomposition via the Batagelj–Zaversnik bucket algorithm [2],
/// O(n + m): returns the core number of every vertex (the largest k such
/// that the vertex belongs to the k-core).
std::vector<uint32_t> CoreDecomposition(const Graph& g);

/// The maximum core number over the whole graph (0 for the empty graph).
uint32_t Degeneracy(const Graph& g);

/// Vertices of the k-core of `g` (ascending ids). Linear-time peeling.
std::vector<VertexId> KCoreVertices(const Graph& g, uint32_t k);

/// A degeneracy ordering of g (vertices in the order removed by repeatedly
/// deleting a minimum-degree vertex). Used by the Bron–Kerbosch driver.
std::vector<VertexId> DegeneracyOrdering(const Graph& g);

}  // namespace krcore

#endif  // KRCORE_KCORE_CORE_DECOMPOSITION_H_
