#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.h"
#include "test_helpers.h"

namespace krcore {
namespace {

using test::MakeGrouped;

TEST(Pipeline, KIsRequiredPositive) {
  auto fixture = MakeGrouped(3, {{0, 1}, {1, 2}, {0, 2}}, {0, 0, 0});
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 0;
  std::vector<ComponentContext> comps;
  EXPECT_TRUE(PrepareComponents(fixture.graph, oracle, opts, &comps)
                  .IsInvalidArgument());
}

TEST(Pipeline, TriangleSurvivesK2) {
  auto fixture = MakeGrouped(3, {{0, 1}, {1, 2}, {0, 2}}, {0, 0, 0});
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(fixture.graph, oracle, opts, &comps).ok());
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 3u);
  EXPECT_EQ(comps[0].num_dissimilar_pairs(), 0u);
}

TEST(Pipeline, DissimilarEdgeRemovalBreaksCore) {
  // Triangle whose vertex 2 is dissimilar to the others: edges 0-2 and 1-2
  // are dropped; nothing satisfies k=2.
  auto fixture = MakeGrouped(3, {{0, 1}, {1, 2}, {0, 2}}, {0, 0, 1});
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(fixture.graph, oracle, opts, &comps).ok());
  EXPECT_TRUE(comps.empty());
}

TEST(Pipeline, ComponentsSplitAndMapBack) {
  // Two similar triangles joined by one (similar) bridge vertex of degree 2:
  // after k=2 coring the bridge vertex 6 peels (degree 2 but its neighbors'
  // removal... actually degree 2 suffices) — use a degree-1 bridge instead.
  auto fixture = MakeGrouped(
      7,
      {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 6}},
      {0, 0, 0, 0, 0, 0, 0});
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(fixture.graph, oracle, opts, &comps).ok());
  ASSERT_EQ(comps.size(), 2u);
  std::vector<std::vector<VertexId>> parents;
  for (const auto& c : comps) {
    std::vector<VertexId> p(c.to_parent.begin(), c.to_parent.end());
    std::sort(p.begin(), p.end());
    parents.push_back(p);
  }
  std::sort(parents.begin(), parents.end());
  EXPECT_EQ(parents[0], (std::vector<VertexId>{0, 1, 2}));
  EXPECT_EQ(parents[1], (std::vector<VertexId>{3, 4, 5}));
}

TEST(Pipeline, DissimilarPairsMaterialized) {
  // 4-clique with one cross-group vertex pair that stays similar enough to
  // keep edges? Groups: {0,1,2} and {3}; all edges to 3 get filtered, so
  // with k=2 only the triangle remains and has zero dissimilar pairs.
  auto fixture = MakeGrouped(
      4, {{0, 1}, {1, 2}, {0, 2}, {0, 3}, {1, 3}, {2, 3}}, {0, 0, 0, 1});
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(fixture.graph, oracle, opts, &comps).ok());
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 3u);
  EXPECT_EQ(comps[0].num_dissimilar_pairs(), 0u);
}

TEST(Pipeline, DissimilarNonEdgesKept) {
  // Two similar triangles bridged by *two* similar vertices, forming one
  // component where cross-triangle non-adjacent pairs may be dissimilar.
  // Groups: {0,1,2} group 0; {3,4,5} group 1; vertices 2 and 3 group 2?
  // Simpler: a 4-cycle with chords making a 2-core whose vertices span two
  // groups but whose *edges* are all intra-group is impossible on a
  // connected graph — instead verify counting on a component with explicit
  // dissimilar pair: C4 0-1-2-3 with all similar except pair (0,2).
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
                             {0, 0, 0, 0});
  // Overwrite attributes: put 0 and 2 in different groups but keep their
  // *edges* similar — not possible with grouped encoding, since 0-2 is a
  // non-edge we can place them apart: groups {0}:A {2}:B with 1,3 close to
  // both. Points: 0 at x=0, 2 at x=1.8, 1 and 3 at x=0.9 (within 1.0 of
  // both ends, while |0 - 1.8| > 1).
  std::vector<GeoPoint> pts{{0.0, 0.0}, {0.9, 0.0}, {1.8, 0.0}, {0.9, 0.0}};
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(fixture.graph, oracle, opts, &comps).ok());
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), 4u);
  EXPECT_EQ(comps[0].num_dissimilar_pairs(), 1u);
  // Identify local ids of parents 0 and 2.
  VertexId l0 = kInvalidVertex, l2 = kInvalidVertex;
  for (VertexId i = 0; i < 4; ++i) {
    if (comps[0].to_parent[i] == 0) l0 = i;
    if (comps[0].to_parent[i] == 2) l2 = i;
  }
  EXPECT_TRUE(comps[0].dissimilar.Dissimilar(l0, l2));
  EXPECT_FALSE(comps[0].dissimilar.Dissimilar(
      l0, (l0 + 1) % 4 == l2 ? (l0 + 2) % 4 : (l0 + 1) % 4));
}

TEST(Pipeline, ExplicitPairBudgetStillEnforced) {
  // A positive budget keeps the legacy hard-refusal semantics for callers
  // that want a latency guard; the default (0) is unlimited.
  auto fixture = MakeGrouped(3, {{0, 1}, {1, 2}, {0, 2}}, {0, 0, 0});
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  opts.preprocess.max_pair_budget = 1;
  std::vector<ComponentContext> comps;
  EXPECT_TRUE(PrepareComponents(fixture.graph, oracle, opts, &comps)
                  .IsResourceExhausted());
}

TEST(Pipeline, LargeComponentAboveLegacyBudgetIsHandled) {
  // A ring of n vertices, all similar, is one k=2 component with
  // n*(n-1)/2 pairwise evaluations — above the old hard-coded 64M-pair
  // refusal threshold for n = 12000. The blocked builder must stream
  // through it instead of refusing.
  const VertexId n = 12000;
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(n);
  for (VertexId u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  auto fixture = MakeGrouped(n, edges, std::vector<uint32_t>(n, 0));
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  PreprocessReport report;
  ASSERT_TRUE(
      PrepareComponents(fixture.graph, oracle, opts, &comps, &report).ok());
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_EQ(comps[0].size(), n);
  EXPECT_EQ(comps[0].num_dissimilar_pairs(), 0u);
  EXPECT_GT(report.pairs_evaluated, 64ull << 20);
  EXPECT_EQ(report.dissimilar_pairs, 0u);
}

TEST(Pipeline, ReportCountsWorkAndDensity) {
  // C4 with one dissimilar diagonal (see DissimilarNonEdgesKept): 6 pairs
  // evaluated, 1 dissimilar.
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
                             {0, 0, 0, 0});
  std::vector<GeoPoint> pts{{0.0, 0.0}, {0.9, 0.0}, {1.8, 0.0}, {0.9, 0.0}};
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  PreprocessReport report;
  ASSERT_TRUE(
      PrepareComponents(fixture.graph, oracle, opts, &comps, &report).ok());
  EXPECT_EQ(report.components, 1u);
  EXPECT_EQ(report.vertices, 4u);
  EXPECT_EQ(report.pairs_evaluated, 6u);
  EXPECT_EQ(report.dissimilar_pairs, 1u);
  EXPECT_DOUBLE_EQ(report.dissimilar_density, 1.0 / 6.0);
  EXPECT_GT(report.index_bytes, 0u);
  EXPECT_GE(report.peak_bytes, report.index_bytes);
}

TEST(Pipeline, ExpiredDeadlineAbortsPairSweep) {
  // A 200-vertex ring (19900 pairwise evaluations) crosses the sweep's
  // poll interval, so an already-expired deadline must surface as
  // DeadlineExceeded instead of silently completing.
  const VertexId n = 200;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  auto fixture = MakeGrouped(n, edges, std::vector<uint32_t>(n, 0));
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  opts.deadline = Deadline::AfterSeconds(-1.0);
  std::vector<ComponentContext> comps;
  EXPECT_TRUE(PrepareComponents(fixture.graph, oracle, opts, &comps)
                  .IsDeadlineExceeded());
  EXPECT_TRUE(comps.empty());
}

TEST(Pipeline, TinyTilesMatchDefaultTiling) {
  // The tiled evaluator must visit every unordered pair exactly once for
  // any tile size.
  auto dataset = test::MakeRandomGeo(40, 160, 9);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> base, tiled;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &base).ok());
  opts.preprocess.tile_size = 3;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &tiled).ok());
  ASSERT_EQ(base.size(), tiled.size());
  for (size_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(base[i].size(), tiled[i].size());
    EXPECT_EQ(base[i].num_dissimilar_pairs(), tiled[i].num_dissimilar_pairs());
    for (VertexId u = 0; u < base[i].size(); ++u) {
      auto a = base[i].dissimilar[u];
      auto b = tiled[i].dissimilar[u];
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "row " << u << " differs";
    }
  }
}

TEST(Pipeline, MaxDegreeOrdering) {
  // Two components: a triangle and a K5; K5 should come first.
  std::vector<std::pair<VertexId, VertexId>> edges{{0, 1}, {1, 2}, {0, 2}};
  for (VertexId u = 3; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) edges.emplace_back(u, v);
  }
  auto fixture = MakeGrouped(8, edges, std::vector<uint32_t>(8, 0));
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(fixture.graph, oracle, opts, &comps).ok());
  ASSERT_EQ(comps.size(), 2u);
  EXPECT_EQ(comps[0].size(), 5u);
  EXPECT_EQ(comps[1].size(), 3u);
}

}  // namespace
}  // namespace krcore
