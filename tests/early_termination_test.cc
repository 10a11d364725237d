#include <gtest/gtest.h>

#include "core/early_termination.h"
#include "core/pipeline.h"
#include "core/search_context.h"
#include "search_context_test_peer.h"
#include "test_helpers.h"

namespace krcore {
namespace {

using test::MakeGrouped;

ComponentContext PrepareSingle(const test::GroupedSimilarity& fixture,
                               uint32_t k) {
  auto oracle = fixture.MakeOracle();
  PipelineOptions opts;
  opts.k = k;
  std::vector<ComponentContext> comps;
  Status s = PrepareComponents(fixture.graph, oracle, opts, &comps);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(comps.size(), 1u);
  return std::move(comps[0]);
}

/// Runs each case once per SearchContext kernel: the dense kernel has its
/// own word-loop implementation of the check.
class EarlyTermination : public ::testing::TestWithParam<test::Kernel> {
 protected:
  test::ScopedKernel kernel_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(
    Kernels, EarlyTermination,
    ::testing::Values(test::Kernel::kDense, test::Kernel::kSparse),
    [](const ::testing::TestParamInfo<test::Kernel>& info) {
      return std::string(test::KernelName(info.param));
    });

TEST_P(EarlyTermination, EmptyExcludedNeverTerminates) {
  auto fixture = MakeGrouped(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  EXPECT_FALSE(CanTerminateEarly(ctx));
}

TEST_P(EarlyTermination, ConditionOneFires) {
  // K5 all similar, k=2. Expand two adjacent vertices into M, shrink one
  // other vertex v: v lands in E with deg(v, M) = 2 >= k and dp_c(v) = 0 —
  // any core derived from (M, C) extends by v, so the node is prunable.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  auto fixture = MakeGrouped(5, edges, {0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Expand(0));
  ASSERT_TRUE(ctx.Expand(1));
  ASSERT_TRUE(ctx.Shrink(2));
  ASSERT_EQ(ctx.state(2), VertexState::kInE);
  EXPECT_TRUE(CanTerminateEarly(ctx));
}

TEST_P(EarlyTermination, ConditionOneRespectsSimilarity) {
  // Same shape, but the shrunk vertex is dissimilar to a candidate: K5
  // structure, vertex 2 dissimilar to vertex 4 only. After expanding {0,1}
  // and shrinking 2, 2 sits in E with deg(2,M)=2 but dp_c(2)=1 (vertex 4
  // still a candidate) — attaching 2 would violate similarity with 4, so
  // no termination.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  auto fixture = MakeGrouped(5, edges, {0, 0, 0, 0, 0});
  // Place 2 and 4 at distance > 1, everyone else pairwise close:
  // x: 0,1,3 at 0.5; 2 at 0.0; 4 at 1.2. |2-4| = 1.2 > 1; others <= 0.7.
  std::vector<GeoPoint> pts{{0.5, 0.0}, {0.5, 0.1}, {0.0, 0.0},
                            {0.5, 0.2}, {1.2, 0.0}};
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  auto comp = PrepareSingle(fixture, 2);
  VertexId l0 = kInvalidVertex, l1 = kInvalidVertex, l2 = kInvalidVertex;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (comp.to_parent[i] == 0) l0 = i;
    if (comp.to_parent[i] == 1) l1 = i;
    if (comp.to_parent[i] == 2) l2 = i;
  }
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Expand(l0));
  ASSERT_TRUE(ctx.Expand(l1));
  ASSERT_TRUE(ctx.Shrink(l2));
  ASSERT_EQ(ctx.state(l2), VertexState::kInE);
  EXPECT_GT(ctx.dp_c(l2), 0u);
  EXPECT_FALSE(CanTerminateEarly(ctx));
}

TEST_P(EarlyTermination, ConditionTwoFiresForMutuallySupportingSet) {
  // K7 all similar, k=4. Expand {0,1,2}, then shrink 3 and 4 (the surviving
  // candidates {5,6} keep M at degree 4). Each excluded vertex alone has
  // deg(u, M) = 3 < 4, so condition (i) does not apply; but U = {3,4} gives
  // deg(3, M∪U) = deg(4, M∪U) = 4 — condition (ii) fires.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 7; ++u) {
    for (VertexId v = u + 1; v < 7; ++v) edges.emplace_back(u, v);
  }
  auto fixture = MakeGrouped(7, edges, {0, 0, 0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 4);
  SearchContext ctx(comp, 4, true);
  ASSERT_TRUE(ctx.Expand(0));
  ASSERT_TRUE(ctx.Expand(1));
  ASSERT_TRUE(ctx.Expand(2));
  ASSERT_TRUE(ctx.Shrink(3));
  ASSERT_TRUE(ctx.Shrink(4));
  ASSERT_EQ(ctx.state(3), VertexState::kInE);
  ASSERT_EQ(ctx.state(4), VertexState::kInE);
  EXPECT_LT(ctx.deg_m(3), 4u);  // condition (i) does not apply
  EXPECT_TRUE(CanTerminateEarly(ctx));
}

TEST_P(EarlyTermination, CheckerReusableAcrossCalls) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  auto fixture = MakeGrouped(5, edges, {0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  EarlyTerminationChecker checker(comp);
  EXPECT_FALSE(checker.CanTerminate(ctx));
  size_t mark = ctx.Mark();
  ASSERT_TRUE(ctx.Expand(0));
  ASSERT_TRUE(ctx.Expand(1));
  ASSERT_TRUE(ctx.Shrink(2));
  EXPECT_TRUE(checker.CanTerminate(ctx));
  EXPECT_TRUE(checker.CanTerminate(ctx));  // idempotent
  ctx.RewindTo(mark);
  EXPECT_FALSE(checker.CanTerminate(ctx));
}

}  // namespace
}  // namespace krcore
