#include <gtest/gtest.h>

#include <algorithm>

#include "graph/graph_builder.h"
#include "kcore/core_decomposition.h"
#include "util/random.h"

namespace krcore {
namespace {

/// Reference implementation: repeatedly strip vertices with degree < k.
std::vector<VertexId> NaiveKCore(const Graph& g, uint32_t k) {
  std::vector<char> in(g.num_vertices(), 1);
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      if (!in[u]) continue;
      uint32_t d = 0;
      for (VertexId v : g.neighbors(u)) d += in[v];
      if (d < k) {
        in[u] = 0;
        changed = true;
      }
    }
  }
  std::vector<VertexId> out;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (in[u]) out.push_back(u);
  }
  return out;
}

Graph RandomGraph(uint32_t n, uint32_t m, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (uint32_t i = 0; i < m; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u != v) b.AddEdge(u, v);
  }
  return b.Build();
}

TEST(CoreDecomposition, TriangleIsTwoCore) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}, {0, 2}});
  auto core = CoreDecomposition(g);
  EXPECT_EQ(core, (std::vector<uint32_t>{2, 2, 2}));
}

TEST(CoreDecomposition, PathCoreNumbersAreOne) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  auto core = CoreDecomposition(g);
  EXPECT_EQ(core, (std::vector<uint32_t>{1, 1, 1, 1}));
}

TEST(CoreDecomposition, CliqueWithTail) {
  // K4 on {0..3} plus tail 3-4-5.
  Graph g = MakeGraph(
      6, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}});
  auto core = CoreDecomposition(g);
  EXPECT_EQ(core[0], 3u);
  EXPECT_EQ(core[3], 3u);
  EXPECT_EQ(core[4], 1u);
  EXPECT_EQ(core[5], 1u);
}

TEST(CoreDecomposition, IsolatedVertexIsZeroCore) {
  Graph g = MakeGraph(3, {{0, 1}});
  auto core = CoreDecomposition(g);
  EXPECT_EQ(core[2], 0u);
}

TEST(KCoreVertices, MatchesNaivePeeling) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = RandomGraph(60, 150, seed);
    for (uint32_t k = 1; k <= 5; ++k) {
      EXPECT_EQ(KCoreVertices(g, k), NaiveKCore(g, k))
          << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(KCoreVertices, CoreNumbersConsistentWithExtraction) {
  Graph g = RandomGraph(80, 250, 42);
  auto core = CoreDecomposition(g);
  for (uint32_t k = 0; k <= 6; ++k) {
    auto kcore = KCoreVertices(g, k);
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      bool in = std::binary_search(kcore.begin(), kcore.end(), u);
      EXPECT_EQ(in, core[u] >= k);
    }
  }
}

TEST(Degeneracy, CliqueAndEmpty) {
  Graph k5 = MakeGraph(5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3},
                           {1, 4}, {2, 3}, {2, 4}, {3, 4}});
  EXPECT_EQ(Degeneracy(k5), 4u);
  Graph empty;
  EXPECT_EQ(Degeneracy(empty), 0u);
}

TEST(DegeneracyOrdering, IsPermutationAndRespectsDegeneracy) {
  Graph g = RandomGraph(50, 120, 7);
  auto order = DegeneracyOrdering(g);
  ASSERT_EQ(order.size(), g.num_vertices());
  std::vector<char> seen(g.num_vertices(), 0);
  for (VertexId u : order) {
    ASSERT_LT(u, g.num_vertices());
    EXPECT_FALSE(seen[u]);
    seen[u] = 1;
  }
  // Check: each vertex has at most `degeneracy` later neighbors.
  uint32_t degeneracy = Degeneracy(g);
  std::vector<VertexId> rank(g.num_vertices());
  for (VertexId i = 0; i < order.size(); ++i) rank[order[i]] = i;
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    uint32_t later = 0;
    for (VertexId v : g.neighbors(u)) later += rank[v] > rank[u];
    EXPECT_LE(later, degeneracy);
  }
}

}  // namespace
}  // namespace krcore
