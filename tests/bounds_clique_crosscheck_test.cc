// Cross-substrate property check: the color / k-core / (k,k')-core size
// bounds all dominate the *exact* maximum clique of the component's
// similarity graph (computed independently with the Bron–Kerbosch
// enumerator), and the structure-free (k,k')-core bound equals the
// similarity graph's degeneracy + 1.

#include <gtest/gtest.h>

#include <algorithm>

#include "clique/bron_kerbosch.h"
#include "coloring/greedy_coloring.h"
#include "core/pipeline.h"
#include "core/search_context.h"
#include "core/size_bounds.h"
#include "graph/graph_builder.h"
#include "kcore/core_decomposition.h"
#include "test_helpers.h"

namespace krcore {
namespace {

/// Materializes the similarity graph of a component (complement of its
/// dissimilar lists).
Graph SimilarityGraphOf(const ComponentContext& comp) {
  GraphBuilder b(comp.size());
  for (VertexId u = 0; u < comp.size(); ++u) {
    for (VertexId v = u + 1; v < comp.size(); ++v) {
      if (!comp.dissimilar.Dissimilar(u, v)) b.AddEdge(u, v);
    }
  }
  return b.Build();
}

class BoundsCliqueCrossCheck : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundsCliqueCrossCheck, BoundsDominateSimilarityClique) {
  const uint32_t k = 2;
  auto dataset = test::MakeRandomGeo(26, 90, GetParam());
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  PipelineOptions popts;
  popts.k = k;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, popts, &comps).ok());

  for (const auto& comp : comps) {
    SearchContext ctx(comp, k, true);
    Graph sim = SimilarityGraphOf(comp);
    size_t max_clique = MaximumCliqueSize(sim);

    // A (k,r)-core inside M ∪ C is a clique of `sim`, so every bound that
    // is valid for the core size must also dominate any clique that could
    // be a core; conversely the similarity-only bounds dominate the max
    // clique itself.
    EXPECT_GE(ColorSizeBound(ctx), max_clique);
    EXPECT_GE(KcoreSizeBound(ctx), max_clique);

    // Structure-free (k,k')-core peel == similarity-graph degeneracy + 1.
    EXPECT_EQ(KkPrimeSizeBound(ctx, 0),
              static_cast<uint64_t>(Degeneracy(sim)) + 1);

    // Greedy coloring of the materialized graph agrees with the
    // complement-based coloring inside the bound computer.
    EXPECT_EQ(ColorSizeBound(ctx), GreedyColorCount(sim));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoundsCliqueCrossCheck,
                         ::testing::Range<uint64_t>(0, 12));

}  // namespace
}  // namespace krcore
