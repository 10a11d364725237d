#ifndef KRCORE_TESTS_TEST_HELPERS_H_
#define KRCORE_TESTS_TEST_HELPERS_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/dissimilarity_index.h"
#include "core/pipeline.h"
#include "datasets/dataset.h"
#include "datasets/generators.h"
#include "graph/graph_builder.h"
#include "similarity/attributes.h"
#include "similarity/similarity_oracle.h"
#include "util/random.h"

namespace krcore {
namespace test {

/// Builds a DissimilarityIndex from an explicit unordered-pair list (the
/// hand-constructed component fixtures use this instead of the pipeline).
inline DissimilarityIndex MakeDissimilarity(
    VertexId n, const std::vector<std::pair<VertexId, VertexId>>& pairs) {
  DissimilarityIndex::Builder builder(n);
  for (auto [a, b] : pairs) builder.AddPair(a, b);
  return builder.Build();
}

/// An attributed test graph where similarity is *explicitly specified*: each
/// vertex gets a singleton keyword set; similar groups share the keyword.
/// More flexible form: provide explicit dissimilar pairs on top of a base
/// where everybody is similar (keyword 0), realized by giving clashing
/// vertices disjoint auxiliary keywords via geo points instead.
///
/// Implementation: vertices are 2-D points; vertices u, v are similar iff
/// |p_u - p_v| <= 1. Points are laid out so that the requested dissimilar
/// pairs (and only those) exceed distance 1. That is only possible for
/// "interval-graph-like" dissimilarity, so we use the simplest reliable
/// encoding instead: similarity *groups* on a line, where all members of a
/// group sit at the same point and groups are > 1 apart. Vertices in the
/// same group are mutually similar; across groups dissimilar.
struct GroupedSimilarity {
  Graph graph;
  AttributeTable attributes;

  SimilarityOracle MakeOracle() const {
    return SimilarityOracle(&attributes, Metric::kEuclideanDistance, 1.0);
  }
};

/// Builds the graph plus group-based similarity. `group_of[u]` assigns each
/// vertex to a similarity group.
inline GroupedSimilarity MakeGrouped(
    VertexId n, const std::vector<std::pair<VertexId, VertexId>>& edges,
    const std::vector<uint32_t>& group_of) {
  GroupedSimilarity out;
  out.graph = MakeGraph(n, edges);
  std::vector<GeoPoint> points(n);
  for (VertexId u = 0; u < n; ++u) {
    points[u] = {static_cast<double>(group_of[u]) * 10.0, 0.0};
  }
  out.attributes = AttributeTable::ForGeo(std::move(points));
  return out;
}

/// Random attributed dataset with tunable similarity density: vertices get
/// random 2-D points in [0,1]^2 and the oracle threshold is `radius`
/// (larger radius = more similar pairs).
inline Dataset MakeRandomGeo(uint32_t n, uint32_t m, uint64_t seed) {
  RandomAttributedConfig c;
  c.num_vertices = n;
  c.num_edges = m;
  c.geo = true;
  c.seed = seed;
  return MakeRandomAttributed(c);
}

/// Random attributed dataset with Jaccard keyword similarity.
inline Dataset MakeRandomKeyword(uint32_t n, uint32_t m, uint64_t seed,
                                 uint32_t universe = 12,
                                 uint32_t per_vertex = 4) {
  RandomAttributedConfig c;
  c.num_vertices = n;
  c.num_edges = m;
  c.geo = false;
  c.keyword_universe = universe;
  c.keywords_per_vertex = per_vertex;
  c.seed = seed;
  return MakeRandomAttributed(c);
}

/// Bit-identical workspace comparison: every identity field, every
/// component's parent map, structure CSR, and dissimilarity rows including
/// stored scores and the reserve segment. Returns "" when identical, else a
/// one-line description of the first difference — gtest-free so both the
/// rollback tests and the chaos harness can assert on it directly. This is
/// the lock for the transactional contracts: a rolled-back update and a
/// failed snapshot save must leave their workspace with an empty diff
/// against the pre-operation copy.
inline std::string DiffWorkspaces(const PreparedWorkspace& a,
                                  const PreparedWorkspace& b) {
  if (a.k != b.k) return "k differs";
  if (a.threshold != b.threshold) return "threshold differs";
  if (a.score_cover != b.score_cover) return "score_cover differs";
  if (a.scored != b.scored) return "scored flag differs";
  if (a.is_distance != b.is_distance) return "is_distance flag differs";
  if (a.version != b.version) {
    return "version differs (" + std::to_string(a.version) + " vs " +
           std::to_string(b.version) + ")";
  }
  if (a.components.size() != b.components.size()) {
    return "component count differs (" +
           std::to_string(a.components.size()) + " vs " +
           std::to_string(b.components.size()) + ")";
  }
  for (size_t c = 0; c < a.components.size(); ++c) {
    const ComponentContext& x = a.components[c];
    const ComponentContext& y = b.components[c];
    const std::string where = "component " + std::to_string(c);
    if (x.to_parent != y.to_parent) return where + ": to_parent differs";
    if (x.graph.num_edges() != y.graph.num_edges()) {
      return where + ": edge count differs";
    }
    if (x.dissimilar.num_pairs() != y.dissimilar.num_pairs()) {
      return where + ": dissimilar pair count differs";
    }
    if (x.dissimilar.num_reserve_pairs() != y.dissimilar.num_reserve_pairs()) {
      return where + ": reserve pair count differs";
    }
    for (VertexId u = 0; u < x.size(); ++u) {
      const std::string at = where + " vertex " + std::to_string(u);
      auto xn = x.graph.neighbors(u);
      auto yn = y.graph.neighbors(u);
      if (!std::equal(xn.begin(), xn.end(), yn.begin(), yn.end())) {
        return at + ": adjacency differs";
      }
      auto xd = x.dissimilar[u];
      auto yd = y.dissimilar[u];
      if (!std::equal(xd.begin(), xd.end(), yd.begin(), yd.end())) {
        return at + ": dissimilar row differs";
      }
      auto xs = x.dissimilar.row_scores(u);
      auto ys = y.dissimilar.row_scores(u);
      if (!std::equal(xs.begin(), xs.end(), ys.begin(), ys.end())) {
        return at + ": row scores differ";
      }
      auto xr = x.dissimilar.reserve_row(u);
      auto yr = y.dissimilar.reserve_row(u);
      if (!std::equal(xr.begin(), xr.end(), yr.begin(), yr.end())) {
        return at + ": reserve row differs";
      }
      auto xrs = x.dissimilar.reserve_scores(u);
      auto yrs = y.dissimilar.reserve_scores(u);
      if (!std::equal(xrs.begin(), xrs.end(), yrs.begin(), yrs.end())) {
        return at + ": reserve scores differ";
      }
    }
  }
  return "";
}

}  // namespace test
}  // namespace krcore

#endif  // KRCORE_TESTS_TEST_HELPERS_H_
