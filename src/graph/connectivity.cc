#include "graph/connectivity.h"

#include <algorithm>

namespace krcore {

std::vector<std::vector<VertexId>> ComponentsOfSubset(
    const Graph& g, const std::vector<VertexId>& subset,
    std::vector<char>& in_subset) {
  KRCORE_DCHECK(in_subset.size() >= g.num_vertices());
  for (VertexId u : subset) in_subset[u] = 1;

  std::vector<std::vector<VertexId>> components;
  std::vector<VertexId> stack;
  for (VertexId s : subset) {
    if (!in_subset[s]) continue;
    components.emplace_back();
    auto& comp = components.back();
    in_subset[s] = 0;
    stack.push_back(s);
    while (!stack.empty()) {
      VertexId u = stack.back();
      stack.pop_back();
      comp.push_back(u);
      for (VertexId v : g.neighbors(u)) {
        if (in_subset[v]) {
          in_subset[v] = 0;
          stack.push_back(v);
        }
      }
    }
    std::sort(comp.begin(), comp.end());
  }
  return components;
}

std::vector<std::vector<VertexId>> ComponentsOfSubset(
    const Graph& g, const std::vector<VertexId>& subset) {
  std::vector<char> scratch(g.num_vertices(), 0);
  return ComponentsOfSubset(g, subset, scratch);
}

bool IsConnectedSubset(const Graph& g, const std::vector<VertexId>& subset) {
  if (subset.size() <= 1) return true;
  auto comps = ComponentsOfSubset(g, subset);
  return comps.size() == 1;
}

}  // namespace krcore
