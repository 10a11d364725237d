#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/maximal_check.h"
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

MaximalVerdict Check(const SearchContext& ctx,
                     const std::vector<VertexId>& core,
                     VertexOrder order = VertexOrder::kDegree) {
  uint64_t nodes = 0;
  return CheckMaximal(ctx, core, order, 5.0, Deadline::Infinite(), &nodes);
}

/// Runs each case once per SearchContext kernel: the dense kernel has its
/// own word-loop implementation of the check.
class MaximalCheck : public ::testing::TestWithParam<test::Kernel> {
 protected:
  test::ScopedKernel kernel_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(
    Kernels, MaximalCheck,
    ::testing::Values(test::Kernel::kDense, test::Kernel::kSparse),
    [](const ::testing::TestParamInfo<test::Kernel>& info) {
      return std::string(test::KernelName(info.param));
    });

TEST_P(MaximalCheck, EmptyExcludedIsMaximal) {
  auto fixture = MakeGrouped(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  // Promote everything into M and check the full component.
  ASSERT_TRUE(ctx.Expand(0));
  std::vector<VertexId> core{0, 1, 2, 3};
  EXPECT_EQ(Check(ctx, core), MaximalVerdict::kMaximal);
}

TEST_P(MaximalCheck, ExtensibleCoreDetected) {
  // K5 all similar, k=2: expand {0,1}, shrink {2}: E = {2}. The triangle
  // core {0,1,3} ... build the emitted core {0,1,3,4} manually and check it
  // against E = {2} — 2 extends it, so not maximal.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  auto fixture = MakeGrouped(5, edges, {0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Shrink(2));
  ASSERT_EQ(ctx.state(2), VertexState::kInE);
  std::vector<VertexId> core{0, 1, 3, 4};
  EXPECT_EQ(Check(ctx, core), MaximalVerdict::kNotMaximal);
}

TEST_P(MaximalCheck, DissimilarExcludedCannotExtend) {
  // Structure K5; vertex 4 dissimilar to 0. Shrink 4 -> 4 removed (not E
  // when dissimilar to M? M empty, so 4 goes to E) ... place 4 dissimilar
  // to 0 only: E candidate 4 clashes with core member 0 -> filtered out.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  auto fixture = MakeGrouped(5, edges, {0, 0, 0, 0, 0});
  std::vector<GeoPoint> pts{{0.0, 0.0}, {0.5, 0.0}, {0.5, 0.1},
                            {0.5, 0.2}, {1.2, 0.0}};  // |0-4| > 1
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  auto comp = PrepareSingle(fixture, 2);
  VertexId l0 = kInvalidVertex, l4 = kInvalidVertex;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (comp.to_parent[i] == 0) l0 = i;
    if (comp.to_parent[i] == 4) l4 = i;
  }
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Shrink(l4));
  ASSERT_EQ(ctx.state(l4), VertexState::kInE);
  // Core containing 0: the excluded vertex 4 is dissimilar to it.
  std::vector<VertexId> core;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (i != l4) core.push_back(i);
  }
  std::sort(core.begin(), core.end());
  EXPECT_EQ(Check(ctx, core), MaximalVerdict::kMaximal);
  // A core avoiding 0 can be extended by 4.
  std::vector<VertexId> small_core;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (i != l4 && i != l0) small_core.push_back(i);
  }
  std::sort(small_core.begin(), small_core.end());
  EXPECT_EQ(Check(ctx, small_core), MaximalVerdict::kNotMaximal);
}

TEST_P(MaximalCheck, ExtensionNeedsMutualSupport) {
  // k=7. Core: K8 on {0..7}. Two extra vertices 8 and 9, each adjacent to
  // core members {0..5} (six edges — one short of k) and to each other.
  // Neither extends the core alone (deg 6 < 7), but U = {8,9} gives both
  // degree 7: the checker's anchored peel must keep mutually-supporting
  // sets rather than evaluating vertices one at a time.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = u + 1; v < 8; ++v) edges.emplace_back(u, v);
  }
  for (VertexId x : {8u, 9u}) {
    for (VertexId v = 0; v < 6; ++v) edges.emplace_back(x, v);
  }
  edges.emplace_back(8, 9);
  auto fixture = MakeGrouped(10, edges, std::vector<uint32_t>(10, 0));
  auto comp = PrepareSingle(fixture, 7);
  SearchContext ctx(comp, 7, true);
  ASSERT_TRUE(ctx.Shrink(8));  // cascades: 9 follows (degree drops to 6)
  ASSERT_EQ(ctx.state(8), VertexState::kInE);
  ASSERT_EQ(ctx.state(9), VertexState::kInE);
  ASSERT_EQ(ctx.c_list().size(), 8u);
  std::vector<VertexId> core{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(Check(ctx, core), MaximalVerdict::kNotMaximal);
}

TEST_P(MaximalCheck, ConflictBranchingHandlesDissimilarExcludedPair) {
  // Structure K6, k=2. Vertices 4 and 5 are dissimilar to *each other* but
  // similar to everyone else. Shrink both: E = {4,5} with a conflict.
  // Core {0,1,2,3} extends by 4 (or 5) alone -> not maximal; the checker
  // must branch on the conflict rather than taking both.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) edges.emplace_back(u, v);
  }
  auto fixture = MakeGrouped(6, edges, {0, 0, 0, 0, 0, 0});
  std::vector<GeoPoint> pts{{0.5, 0.0}, {0.5, 0.1}, {0.5, 0.2},
                            {0.5, 0.3}, {0.0, 0.0}, {1.1, 0.0}};
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  auto comp = PrepareSingle(fixture, 2);
  VertexId l4 = kInvalidVertex, l5 = kInvalidVertex;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (comp.to_parent[i] == 4) l4 = i;
    if (comp.to_parent[i] == 5) l5 = i;
  }
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Shrink(l4));
  ASSERT_TRUE(ctx.Shrink(l5));
  std::vector<VertexId> core;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (i != l4 && i != l5) core.push_back(i);
  }
  std::sort(core.begin(), core.end());
  for (VertexOrder order :
       {VertexOrder::kDegree, VertexOrder::kDelta1ThenDelta2,
        VertexOrder::kLambdaCombo}) {
    EXPECT_EQ(Check(ctx, core, order), MaximalVerdict::kNotMaximal);
  }
}

TEST_P(MaximalCheck, DeadlineAborts) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) edges.emplace_back(u, v);
  }
  auto fixture = MakeGrouped(5, edges, {0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Shrink(0));
  uint64_t nodes = 0;
  EXPECT_EQ(CheckMaximal(ctx, {1, 2, 3, 4}, VertexOrder::kDegree, 5.0,
                         Deadline::AfterSeconds(-1.0), &nodes),
            MaximalVerdict::kDeadlineExceeded);
}

/// A 3-core of 93 or 94 vertices whose rows span two words. Vertices 0..79
/// form a circulant core (each adjacent to its ids ±1 and ±2). Vertices
/// 80..87 are four pairs (x, x + 1): x and x + 1 are adjacent, dissimilar to
/// each other, and each has two neighbors in the core, so a pair could extend
/// the core together but its members never can. Vertices 88..91 are a K4
/// that reaches the core only through vertex 92, which is dissimilar to core
/// vertex 11: the K4 survives every peel but never attaches. With
/// `extensible`, vertex 93 has three core neighbors and is dissimilar to 80:
/// it alone extends the core, but only on branches that drop 80.
ComponentContext MakeWideComponent(bool extensible) {
  const VertexId n = extensible ? 94 : 93;
  std::vector<std::pair<VertexId, VertexId>> edges, dissimilar;
  for (VertexId u = 0; u < 80; ++u) {
    edges.emplace_back(u, (u + 1) % 80);
    edges.emplace_back(u, (u + 2) % 80);
  }
  for (VertexId j = 0; j < 4; ++j) {
    const VertexId x = 80 + 2 * j;
    edges.emplace_back(x, x + 1);
    dissimilar.emplace_back(x, x + 1);
    for (VertexId t = 0; t < 4; ++t) edges.emplace_back(x + t / 2, 20 * j + t);
  }
  for (VertexId u = 88; u < 92; ++u) {
    for (VertexId v = u + 1; v < 92; ++v) edges.emplace_back(u, v);
  }
  for (VertexId v : {88u, 89u, 10u}) edges.emplace_back(92, v);
  dissimilar.emplace_back(92, 11);
  if (extensible) {
    for (VertexId v : {5u, 6u, 7u}) edges.emplace_back(93, v);
    dissimilar.emplace_back(93, 80);
  }
  std::vector<VertexId> identity(n);
  for (VertexId u = 0; u < n; ++u) identity[u] = u;
  ComponentContext comp;
  comp.graph = MakeGraph(n, edges);
  comp.to_parent = std::move(identity);
  comp.dissimilar = test::MakeDissimilarity(n, dissimilar);
  return comp;
}

TEST(MaximalCheckKernels, MultiWordComponentBranchesAlikeOnBothKernels) {
  std::vector<VertexId> core;
  for (VertexId u = 0; u < 80; ++u) core.push_back(u);
  for (bool extensible : {false, true}) {
    const ComponentContext comp = MakeWideComponent(extensible);
    for (VertexOrder order :
         {VertexOrder::kDegree, VertexOrder::kDelta1ThenDelta2,
          VertexOrder::kLambdaCombo}) {
      const std::string what = std::string("extensible=") +
                               (extensible ? "1" : "0") +
                               " order=" + VertexOrderName(order);
      MaximalVerdict verdict[2];
      uint64_t nodes[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        const test::Kernel kernel =
            i == 0 ? test::Kernel::kDense : test::Kernel::kSparse;
        test::ScopedKernel forced(kernel);
        SearchContext ctx(comp, 3, true);
        ASSERT_EQ(ctx.dense(), kernel == test::Kernel::kDense);
        if (ctx.dense()) ASSERT_EQ(ctx.words(), 2u);
        // With M empty every discard lands in E, and the core is left as
        // M ∪ C.
        for (VertexId u = 80; u < comp.size(); ++u) {
          if (ctx.state(u) == VertexState::kInC) ASSERT_TRUE(ctx.Shrink(u));
        }
        ASSERT_EQ(ctx.e_list().size(), comp.size() - 80) << what;
        ASSERT_EQ(ctx.MaterializeMC(), core) << what;
        verdict[i] = CheckMaximal(ctx, core, order, 5.0, Deadline::Infinite(),
                                  &nodes[i]);
      }
      EXPECT_EQ(verdict[0], extensible ? MaximalVerdict::kNotMaximal
                                       : MaximalVerdict::kMaximal)
          << what;
      EXPECT_EQ(verdict[0], verdict[1]) << what;
      EXPECT_EQ(nodes[0], nodes[1]) << what;
      EXPECT_GT(nodes[0], 1u) << what << ": the check must branch";
    }
  }
}

}  // namespace
}  // namespace krcore
