#include "kcore/core_decomposition.h"

#include <algorithm>

#include "util/logging.h"

namespace krcore {

std::vector<uint32_t> CoreDecomposition(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> deg(n);
  uint32_t max_deg = 0;
  for (VertexId u = 0; u < n; ++u) {
    deg[u] = g.degree(u);
    max_deg = std::max(max_deg, deg[u]);
  }

  // Bucket sort vertices by degree.
  std::vector<VertexId> bin(max_deg + 2, 0);
  for (VertexId u = 0; u < n; ++u) ++bin[deg[u]];
  VertexId start = 0;
  for (uint32_t d = 0; d <= max_deg; ++d) {
    VertexId count = bin[d];
    bin[d] = start;
    start += count;
  }
  bin[max_deg + 1] = start;

  std::vector<VertexId> vert(n);   // vertices ordered by current degree
  std::vector<VertexId> pos(n);    // position of vertex in vert
  {
    std::vector<VertexId> cursor(bin.begin(), bin.end() - 1);
    for (VertexId u = 0; u < n; ++u) {
      pos[u] = cursor[deg[u]]++;
      vert[pos[u]] = u;
    }
  }

  // Peel in increasing degree order; when v loses a neighbor, swap it toward
  // the front of its bucket and shift the bucket boundary.
  std::vector<uint32_t> core(deg);
  for (VertexId i = 0; i < n; ++i) {
    VertexId u = vert[i];
    core[u] = deg[u];
    for (VertexId v : g.neighbors(u)) {
      if (deg[v] > deg[u]) {
        uint32_t dv = deg[v];
        VertexId pv = pos[v];
        VertexId pw = bin[dv];      // first position of bucket dv
        VertexId w = vert[pw];
        if (v != w) {
          std::swap(vert[pv], vert[pw]);
          pos[v] = pw;
          pos[w] = pv;
        }
        ++bin[dv];
        --deg[v];
      }
    }
  }
  return core;
}

uint32_t Degeneracy(const Graph& g) {
  if (g.num_vertices() == 0) return 0;
  auto core = CoreDecomposition(g);
  return *std::max_element(core.begin(), core.end());
}

std::vector<VertexId> KCoreVertices(const Graph& g, uint32_t k) {
  auto core = CoreDecomposition(g);
  std::vector<VertexId> result;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (core[u] >= k) result.push_back(u);
  }
  return result;
}

std::vector<VertexId> DegeneracyOrdering(const Graph& g) {
  const VertexId n = g.num_vertices();
  std::vector<uint32_t> deg(n);
  uint32_t max_deg = 0;
  for (VertexId u = 0; u < n; ++u) {
    deg[u] = g.degree(u);
    max_deg = std::max(max_deg, deg[u]);
  }
  std::vector<std::vector<VertexId>> buckets(max_deg + 1);
  for (VertexId u = 0; u < n; ++u) buckets[deg[u]].push_back(u);

  std::vector<char> removed(n, 0);
  std::vector<VertexId> order;
  order.reserve(n);
  uint32_t d = 0;
  while (order.size() < n) {
    while (d <= max_deg && buckets[d].empty()) ++d;
    if (d > max_deg) break;
    VertexId u = buckets[d].back();
    buckets[d].pop_back();
    if (removed[u] || deg[u] != d) continue;  // stale bucket entry
    removed[u] = 1;
    order.push_back(u);
    for (VertexId v : g.neighbors(u)) {
      if (!removed[v] && deg[v] > 0) {
        --deg[v];
        buckets[deg[v]].push_back(v);
        if (deg[v] < d) d = deg[v];
      }
    }
  }
  return order;
}

}  // namespace krcore
