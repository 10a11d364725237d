#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <utility>

#include "core/pipeline.h"
#include "core/search_context.h"
#include "search_context_test_peer.h"
#include "test_helpers.h"

namespace krcore {
namespace {

using test::Kernel;
using test::MakeGrouped;

std::string KernelParamName(const ::testing::TestParamInfo<Kernel>& info) {
  return test::KernelName(info.param);
}

/// Prepares a single component from the grouped fixture; fails the test if
/// preprocessing does not yield exactly one component.
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

/// |SF(C)|: candidates similar to every other candidate (Thm 4).
VertexId SfCount(const SearchContext& ctx) {
  VertexId sf = 0;
  for (VertexId u = ctx.c_list().First(); u != kInvalidVertex;
       u = ctx.c_list().Next(u)) {
    sf += !ctx.HasDissimilarInC(u);
  }
  return sf;
}

/// Cross-checks every maintained counter against a from-scratch recompute.
void CheckInvariants(const SearchContext& ctx) {
  const ComponentContext& comp = ctx.component();
  const VertexId n = comp.size();
  uint64_t pairs_c = 0, edges_mc = 0;
  VertexId sf = 0;
  for (VertexId u = 0; u < n; ++u) {
    uint32_t deg_mc = 0, deg_m = 0;
    for (VertexId v : comp.graph.neighbors(u)) {
      VertexState sv = ctx.state(v);
      if (sv == VertexState::kInC || sv == VertexState::kInM) ++deg_mc;
      if (sv == VertexState::kInM) ++deg_m;
    }
    uint32_t dp_c = 0, dp_m = 0, dp_e = 0;
    for (VertexId v : comp.dissimilar[u]) {
      VertexState sv = ctx.state(v);
      dp_c += sv == VertexState::kInC;
      dp_m += sv == VertexState::kInM;
      dp_e += sv == VertexState::kInE;
    }
    VertexState su = ctx.state(u);
    EXPECT_EQ(ctx.deg_m(u), deg_m) << "deg_m mismatch at " << u;
    EXPECT_EQ(ctx.dp_c(u), dp_c) << "dp_c mismatch at " << u;
    EXPECT_EQ(ctx.dp_m(u), dp_m) << "dp_m mismatch at " << u;
    if (su == VertexState::kInC || su == VertexState::kInM) {
      EXPECT_EQ(ctx.deg_mc(u), deg_mc) << "deg_mc mismatch at " << u;
      EXPECT_EQ(ctx.dp_e(u), dp_e) << "dp_e mismatch at " << u;
      edges_mc += deg_mc;
      if (su == VertexState::kInC) {
        pairs_c += dp_c;
        if (dp_c == 0) ++sf;
      }
      // Invariants (Eq 1, Eq 2).
      EXPECT_GE(deg_mc, ctx.k());
      if (su == VertexState::kInM) EXPECT_EQ(dp_c + dp_m, 0u);
    }
    if (su == VertexState::kInE) {
      EXPECT_EQ(dp_m, 0u) << "E member dissimilar to M at " << u;
    }
  }
  EXPECT_EQ(ctx.dissimilar_pairs_c(), pairs_c / 2);
  EXPECT_EQ(ctx.edges_mc(), edges_mc / 2);
  EXPECT_EQ(SfCount(ctx), sf);
}

TEST(VertexList, BasicOperations) {
  VertexList list;
  list.Init(5);
  EXPECT_TRUE(list.empty());
  list.PushFront(2);
  list.PushFront(4);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_TRUE(list.Contains(2));
  EXPECT_FALSE(list.Contains(3));
  auto members = list.Materialize();
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<VertexId>{2, 4}));
  list.Remove(4);
  EXPECT_EQ(list.size(), 1u);
  EXPECT_EQ(list.First(), 2u);
  EXPECT_EQ(list.Next(2), kInvalidVertex);
}

TEST(VertexList, RemoveMiddleAndReinsert) {
  VertexList list;
  list.Init(4);
  list.PushFront(0);
  list.PushFront(1);
  list.PushFront(2);
  list.Remove(1);
  list.PushFront(1);
  auto members = list.Materialize();
  std::sort(members.begin(), members.end());
  EXPECT_EQ(members, (std::vector<VertexId>{0, 1, 2}));
}

/// Runs each op-sequence test once per kernel.
class SearchContextKernel : public ::testing::TestWithParam<Kernel> {
 protected:
  test::ScopedKernel kernel_{GetParam()};
};

INSTANTIATE_TEST_SUITE_P(Kernels, SearchContextKernel,
                         ::testing::Values(Kernel::kDense, Kernel::kSparse),
                         KernelParamName);

TEST_P(SearchContextKernel, InitialStateAllCandidates) {
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}},
                             {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  EXPECT_EQ(ctx.dense(), GetParam() == Kernel::kDense);
  EXPECT_EQ(ctx.c_list().size(), 4u);
  EXPECT_TRUE(ctx.m_list().empty());
  EXPECT_TRUE(ctx.e_list().empty());
  EXPECT_TRUE(ctx.CandidatesAllSimilarityFree());
  CheckInvariants(ctx);
}

TEST_P(SearchContextKernel, ExpandMovesToMAndPrunesDissimilar) {
  // C4 where the diagonal pair (0,2) is dissimilar (see pipeline test).
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
                             {0, 0, 0, 0});
  std::vector<GeoPoint> pts{{0.0, 0.0}, {0.9, 0.0}, {1.8, 0.0}, {0.9, 0.0}};
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  auto comp = PrepareSingle(fixture, 2);
  // Find the local id of parent 0.
  VertexId l0 = kInvalidVertex;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (comp.to_parent[i] == 0) l0 = i;
  }
  SearchContext ctx(comp, 2, true);
  // Expanding 0 forces its dissimilar partner out; the C4 then collapses
  // (remaining vertices drop below degree 2), killing the branch.
  EXPECT_FALSE(ctx.Expand(l0));
}

TEST_P(SearchContextKernel, ExpandKeepsBranchAliveWhenSupported) {
  // Two triangles sharing an edge: 0-1-2 and 1-2-3; pair (0,3) dissimilar.
  auto fixture = MakeGrouped(4, {{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}},
                             {0, 0, 0, 0});
  std::vector<GeoPoint> pts{{0.0, 0.0}, {0.9, 0.0}, {0.9, 0.3}, {1.8, 0.0}};
  fixture.attributes = AttributeTable::ForGeo(std::move(pts));
  auto comp = PrepareSingle(fixture, 2);
  VertexId l0 = kInvalidVertex, l3 = kInvalidVertex;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (comp.to_parent[i] == 0) l0 = i;
    if (comp.to_parent[i] == 3) l3 = i;
  }
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Expand(l0));
  EXPECT_EQ(ctx.state(l0), VertexState::kInM);
  // 3 was discarded (dissimilar to M) — not into E.
  EXPECT_EQ(ctx.state(l3), VertexState::kRemoved);
  EXPECT_EQ(ctx.c_list().size(), 2u);
  CheckInvariants(ctx);
  // Now C == SF(C): remaining triangle is a (2,r)-core.
  EXPECT_TRUE(ctx.CandidatesAllSimilarityFree());
}

TEST_P(SearchContextKernel, ShrinkSendsSimilarVertexToE) {
  // K4, all similar: shrinking any vertex puts it in E; remaining triangle
  // still satisfies k=2.
  auto fixture = MakeGrouped(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Shrink(0));
  EXPECT_EQ(ctx.state(0), VertexState::kInE);
  EXPECT_EQ(ctx.e_list().size(), 1u);
  EXPECT_EQ(ctx.c_list().size(), 3u);
  CheckInvariants(ctx);
}

TEST_P(SearchContextKernel, ShrinkWithoutExcludedTrackingRemoves) {
  auto fixture = MakeGrouped(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, /*track_excluded=*/false);
  ASSERT_TRUE(ctx.Shrink(0));
  EXPECT_EQ(ctx.state(0), VertexState::kRemoved);
  EXPECT_TRUE(ctx.e_list().empty());
}

TEST_P(SearchContextKernel, StructurePeelCascades) {
  // Pentagon with a chord: 0-1-2-3-4-0 plus 1-3. Shrinking 0 drops 4 (deg 1)
  // then... 4's removal drops nothing else; remaining 1,2,3 triangle-ish:
  // deg(1)=2 (2,3), deg(2)=2 (1,3), deg(3)=2 (1,2): alive.
  auto fixture = MakeGrouped(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}, {0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Shrink(0));
  EXPECT_EQ(ctx.state(4), VertexState::kInE);  // peeled, similar to empty M
  EXPECT_EQ(ctx.c_list().size(), 3u);
  CheckInvariants(ctx);
}

TEST_P(SearchContextKernel, DeadWhenMVertexLosesSupport) {
  // Triangle: expand all three, then... no shrink can occur. Instead: C4,
  // expand 0 and 1 (adjacent), then shrink 2 -> 0 or 1 drops below k=2.
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
                             {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Expand(0));
  ASSERT_TRUE(ctx.Expand(1));
  EXPECT_FALSE(ctx.Shrink(2));
  EXPECT_TRUE(ctx.dead());
}

TEST_P(SearchContextKernel, RewindRestoresEverything) {
  auto fixture = MakeGrouped(
      5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}}, {0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  CheckInvariants(ctx);
  size_t mark = ctx.Mark();

  ASSERT_TRUE(ctx.Shrink(0));
  CheckInvariants(ctx);
  size_t mark2 = ctx.Mark();
  ASSERT_TRUE(ctx.Expand(1));
  CheckInvariants(ctx);
  ctx.RewindTo(mark2);
  CheckInvariants(ctx);
  EXPECT_EQ(ctx.c_list().size(), 3u);
  ctx.RewindTo(mark);
  CheckInvariants(ctx);
  EXPECT_EQ(ctx.c_list().size(), 5u);
  EXPECT_TRUE(ctx.m_list().empty());
  EXPECT_TRUE(ctx.e_list().empty());
  for (VertexId u = 0; u < comp.size(); ++u) {
    EXPECT_EQ(ctx.state(u), VertexState::kInC);
  }
}

TEST_P(SearchContextKernel, RewindAfterDeadBranch) {
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}},
                             {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  size_t mark = ctx.Mark();
  ASSERT_TRUE(ctx.Expand(0));
  ASSERT_TRUE(ctx.Expand(1));
  EXPECT_FALSE(ctx.Shrink(2));
  ctx.RewindTo(mark);
  EXPECT_FALSE(ctx.dead());
  CheckInvariants(ctx);
  EXPECT_EQ(ctx.c_list().size(), 4u);
}

TEST_P(SearchContextKernel, PromotionMovesSupportedSfVertices) {
  // K4: expand 0 and 1; vertices 2, 3 are similarity free with deg(u,M)=2
  // — promotion should move both into M (k=2).
  auto fixture = MakeGrouped(
      4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, {0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  ASSERT_TRUE(ctx.Expand(0));
  ASSERT_TRUE(ctx.Expand(1));
  uint64_t promotions = 0;
  ASSERT_TRUE(ctx.PromoteSimilarityFree(&promotions));
  EXPECT_EQ(promotions, 2u);
  EXPECT_EQ(ctx.m_list().size(), 4u);
  EXPECT_TRUE(ctx.c_list().empty());
  CheckInvariants(ctx);
}

TEST_P(SearchContextKernel, ConnectivityReductionDiscardsDetachedCandidates) {
  // Two triangles, all similar, connected via a single vertex x of degree 2
  // to each side... Simplest: build one component with a cut vertex whose
  // expansion then removal disconnects. Use: triangles {0,1,2} and {3,4,5}
  // joined by edges 2-6, 3-6, 2-3 (vertex 6 has deg 2).
  auto fixture = MakeGrouped(
      7,
      {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 6}, {3, 6}, {2, 3}},
      {0, 0, 0, 0, 0, 0, 0});
  auto comp = PrepareSingle(fixture, 2);
  SearchContext ctx(comp, 2, true);
  // Expand parent-0; then shrink the bridge vertices: discarding parent-2
  // kills {0,1,2}... choose instead: expand 0, shrink 6 (bridge helper),
  // shrink 3 -> component {3,4,5} + leftovers detach from M's side.
  VertexId l0 = kInvalidVertex, l3 = kInvalidVertex, l6 = kInvalidVertex;
  for (VertexId i = 0; i < comp.size(); ++i) {
    if (comp.to_parent[i] == 0) l0 = i;
    if (comp.to_parent[i] == 3) l3 = i;
    if (comp.to_parent[i] == 6) l6 = i;
  }
  ASSERT_TRUE(ctx.Expand(l0));
  ASSERT_TRUE(ctx.Shrink(l6));
  ASSERT_TRUE(ctx.Shrink(l3));
  // {4,5} lost vertex 3: their degrees drop below 2 and they peel anyway;
  // after the cascade only M's triangle remains.
  EXPECT_EQ(ctx.m_list().size() + ctx.c_list().size(), 3u);
  CheckInvariants(ctx);
}

// Randomized trail torture: long random expand/shrink/rewind sequences keep
// all counters consistent.
using KernelSeed = std::tuple<Kernel, uint64_t>;

std::string KernelSeedName(const ::testing::TestParamInfo<KernelSeed>& info) {
  return std::string(test::KernelName(std::get<0>(info.param))) + "_" +
         std::to_string(std::get<1>(info.param));
}

class SearchContextFuzz : public ::testing::TestWithParam<KernelSeed> {
 protected:
  test::ScopedKernel kernel_{std::get<0>(GetParam())};
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(SearchContextFuzz, RandomOpsKeepInvariants) {
  auto dataset = test::MakeRandomGeo(24, 80, seed());
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &comps).ok());
  Rng rng(seed() * 77 + 1);
  for (auto& comp : comps) {
    SearchContext ctx(comp, 2, true);
    std::vector<size_t> marks;
    for (int step = 0; step < 200; ++step) {
      CheckInvariants(ctx);
      double roll = rng.NextDouble();
      if (roll < 0.3 && !marks.empty()) {
        ctx.RewindTo(marks.back());
        marks.pop_back();
        continue;
      }
      if (ctx.c_list().empty()) {
        if (marks.empty()) break;
        ctx.RewindTo(marks.back());
        marks.pop_back();
        continue;
      }
      // Pick a random candidate.
      auto members = ctx.c_list().Materialize();
      VertexId u = members[rng.NextBounded(members.size())];
      marks.push_back(ctx.Mark());
      bool alive = rng.NextBernoulli(0.5) ? ctx.Expand(u) : ctx.Shrink(u);
      if (!alive) {
        ctx.RewindTo(marks.back());
        marks.pop_back();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SearchContextFuzz,
    ::testing::Combine(::testing::Values(Kernel::kDense, Kernel::kSparse),
                       ::testing::Range<uint64_t>(0, 10)),
    KernelSeedName);

/// Compares every piece of observable state between two contexts over the
/// same component.
void ExpectSameState(const SearchContext& a, const SearchContext& b) {
  const VertexId n = a.component().size();
  ASSERT_EQ(n, b.component().size());
  EXPECT_EQ(a.dead(), b.dead());
  EXPECT_EQ(a.dissimilar_pairs_c(), b.dissimilar_pairs_c());
  EXPECT_EQ(a.edges_mc(), b.edges_mc());
  EXPECT_EQ(SfCount(a), SfCount(b));
  for (VertexId u = 0; u < n; ++u) {
    EXPECT_EQ(a.state(u), b.state(u)) << "state mismatch at " << u;
    EXPECT_EQ(a.deg_m(u), b.deg_m(u)) << "deg_m mismatch at " << u;
    EXPECT_EQ(a.dp_c(u), b.dp_c(u)) << "dp_c mismatch at " << u;
    EXPECT_EQ(a.dp_m(u), b.dp_m(u)) << "dp_m mismatch at " << u;
    EXPECT_EQ(a.dp_e(u), b.dp_e(u)) << "dp_e mismatch at " << u;
    if (a.state(u) == VertexState::kInC || a.state(u) == VertexState::kInM) {
      EXPECT_EQ(a.deg_mc(u), b.deg_mc(u)) << "deg_mc mismatch at " << u;
    }
  }
  auto sorted = [](const VertexList& list) {
    auto v = list.Materialize();
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(sorted(a.m_list()), sorted(b.m_list()));
  EXPECT_EQ(sorted(a.c_list()), sorted(b.c_list()));
  EXPECT_EQ(sorted(a.e_list()), sorted(b.e_list()));
  EXPECT_EQ(a.MaterializeMC(), b.MaterializeMC());
}

/// Fork equivalence: a forked context behaves exactly like the original
/// under a shared random op sequence (including rewinds relative to
/// per-context marks), and its own trail starts empty at the fork point.
class SearchContextForkSweep : public ::testing::TestWithParam<KernelSeed> {
 protected:
  test::ScopedKernel kernel_{std::get<0>(GetParam())};
  uint64_t seed() const { return std::get<1>(GetParam()); }
};

TEST_P(SearchContextForkSweep, ForkBehavesIdenticallyUnderRandomOps) {
  auto dataset = test::MakeRandomGeo(40, 160, seed() + 100);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &comps).ok());
  Rng rng(seed() * 131 + 7);
  for (auto& comp : comps) {
    SearchContext original(comp, 2, true);
    // Reach a non-trivial prefix state on the original alone.
    for (int step = 0; step < 6 && !original.c_list().empty(); ++step) {
      auto members = original.c_list().Materialize();
      std::sort(members.begin(), members.end());
      VertexId u = members[rng.NextBounded(members.size())];
      size_t mark = original.Mark();
      bool alive = rng.NextBernoulli(0.5) ? original.Expand(u)
                                          : original.Shrink(u);
      if (!alive) original.RewindTo(mark);
    }

    SearchContext fork = original.Fork();
    EXPECT_EQ(fork.Mark(), 0u) << "fork must start with an empty trail";
    ExpectSameState(original, fork);

    // Drive both with identical decisions; rewinds use per-context marks
    // (the fork's trail is rooted at the fork point, the original's is not).
    std::vector<size_t> marks_o, marks_f;
    for (int step = 0; step < 120; ++step) {
      double roll = rng.NextDouble();
      if ((roll < 0.3 && !marks_o.empty()) || original.c_list().empty()) {
        if (marks_o.empty()) break;
        original.RewindTo(marks_o.back());
        fork.RewindTo(marks_f.back());
        marks_o.pop_back();
        marks_f.pop_back();
        ExpectSameState(original, fork);
        continue;
      }
      auto members = original.c_list().Materialize();
      std::sort(members.begin(), members.end());
      VertexId u = members[rng.NextBounded(members.size())];
      marks_o.push_back(original.Mark());
      marks_f.push_back(fork.Mark());
      double op = rng.NextDouble();
      bool alive_o, alive_f;
      if (op < 0.45) {
        alive_o = original.Expand(u);
        alive_f = fork.Expand(u);
      } else if (op < 0.9) {
        alive_o = original.Shrink(u);
        alive_f = fork.Shrink(u);
      } else {
        uint64_t promo_o = 0, promo_f = 0;
        alive_o = original.PromoteSimilarityFree(&promo_o);
        alive_f = fork.PromoteSimilarityFree(&promo_f);
        EXPECT_EQ(promo_o, promo_f);
      }
      ASSERT_EQ(alive_o, alive_f) << "divergence at step " << step;
      if (!alive_o) {
        original.RewindTo(marks_o.back());
        fork.RewindTo(marks_f.back());
        marks_o.pop_back();
        marks_f.pop_back();
      }
      ExpectSameState(original, fork);
    }
    // Unwinding the fork to its root restores the fork-point state exactly.
    fork.RewindTo(0);
    while (!marks_o.empty()) {
      original.RewindTo(marks_o.back());
      marks_o.pop_back();
    }
    ExpectSameState(original, fork);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SearchContextForkSweep,
    ::testing::Combine(::testing::Values(Kernel::kDense, Kernel::kSparse),
                       ::testing::Range<uint64_t>(0, 6)),
    KernelSeedName);

/// Builds one context per kernel over the same component.
std::pair<SearchContext, SearchContext> MakeKernelPair(
    const ComponentContext& comp, uint32_t k, bool track_excluded) {
  auto make = [&](Kernel kernel) {
    test::ScopedKernel forced(kernel);
    return SearchContext(comp, k, track_excluded);
  };
  return {make(Kernel::kDense), make(Kernel::kSparse)};
}

/// Everything the search reads: the M / C / E lists in iteration order (which
/// Choose's ties depend on) and every counter.
void ExpectSameOrderedState(const SearchContext& dense,
                            const SearchContext& sparse) {
  ExpectSameState(dense, sparse);
  EXPECT_EQ(dense.m_list().Materialize(), sparse.m_list().Materialize());
  EXPECT_EQ(dense.c_list().Materialize(), sparse.c_list().Materialize());
  EXPECT_EQ(dense.e_list().Materialize(), sparse.e_list().Materialize());
  EXPECT_EQ(dense.CandidatesAllSimilarityFree(),
            sparse.CandidatesAllSimilarityFree());
}

/// Cross-kernel random walk: the dense and the sparse kernel receive the same
/// Expand / Shrink / PromoteSimilarityFree / RewindTo / Fork sequence and must
/// agree at every step on dead(), the list iteration order and every counter.
class SearchContextKernelWalk : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SearchContextKernelWalk, KernelsAgreeStepByStep) {
  const uint64_t seed = GetParam();
  SCOPED_TRACE("seed=" + std::to_string(seed));
  Dataset dataset = seed % 2 == 0 ? test::MakeRandomGeo(48, 220, seed)
                                  : test::MakeRandomKeyword(48, 220, seed);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric,
                          seed % 2 == 0 ? 0.55 : 0.2);
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &comps).ok());
  Rng rng(seed * 31 + 3);
  size_t steps = 0;
  for (const ComponentContext& comp : comps) {
    const bool track_excluded = rng.NextBernoulli(0.8);
    auto [dense, sparse] = MakeKernelPair(comp, 2, track_excluded);
    ASSERT_TRUE(dense.dense());
    ASSERT_FALSE(sparse.dense());
    ExpectSameOrderedState(dense, sparse);
    // Per-kernel marks: the sparse trail also journals counters.
    std::vector<size_t> marks_d, marks_s;
    for (int step = 0; step < 300; ++step) {
      const double roll = rng.NextDouble();
      if ((roll < 0.25 && !marks_d.empty()) || dense.c_list().empty()) {
        if (marks_d.empty()) break;
        dense.RewindTo(marks_d.back());
        sparse.RewindTo(marks_s.back());
        marks_d.pop_back();
        marks_s.pop_back();
      } else if (roll < 0.3) {
        dense = dense.Fork();
        sparse = sparse.Fork();
        marks_d.clear();
        marks_s.clear();
      } else {
        auto members = dense.c_list().Materialize();
        VertexId u = members[rng.NextBounded(members.size())];
        marks_d.push_back(dense.Mark());
        marks_s.push_back(sparse.Mark());
        bool alive_d, alive_s;
        const double op = rng.NextDouble();
        if (op < 0.4) {
          alive_d = dense.Expand(u);
          alive_s = sparse.Expand(u);
        } else if (op < 0.8) {
          alive_d = dense.Shrink(u);
          alive_s = sparse.Shrink(u);
        } else {
          uint64_t promo_d = 0, promo_s = 0;
          alive_d = dense.PromoteSimilarityFree(&promo_d);
          alive_s = sparse.PromoteSimilarityFree(&promo_s);
          EXPECT_EQ(promo_d, promo_s);
        }
        ASSERT_EQ(alive_d, alive_s) << "step " << step;
        ASSERT_EQ(dense.dead(), sparse.dead()) << "step " << step;
        if (!alive_d) {
          // A dead branch's partial state is never read; rewind it.
          dense.RewindTo(marks_d.back());
          sparse.RewindTo(marks_s.back());
          marks_d.pop_back();
          marks_s.pop_back();
        }
      }
      ExpectSameOrderedState(dense, sparse);
      CheckInvariants(dense);
      if (::testing::Test::HasFailure()) return;
      ++steps;
    }
  }
  EXPECT_GT(steps, 100u) << "the walk must exercise the kernels";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SearchContextKernelWalk,
                         ::testing::Range<uint64_t>(500, 512));

TEST(SearchContext, KernelFollowsComponentSize) {
  // A cycle is its own 2-core: one component of exactly n vertices.
  for (VertexId n : {SearchContext::kDenseVertexLimit,
                     SearchContext::kDenseVertexLimit + 1}) {
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId u = 0; u < n; ++u) edges.push_back({u, (u + 1) % n});
    auto fixture = MakeGrouped(n, edges, std::vector<uint32_t>(n, 0));
    auto comp = PrepareSingle(fixture, 2);
    ASSERT_EQ(comp.size(), n);
    SearchContext ctx(comp, 2, true);
    EXPECT_EQ(ctx.dense(), n <= SearchContext::kDenseVertexLimit) << n;
  }
}

}  // namespace
}  // namespace krcore
