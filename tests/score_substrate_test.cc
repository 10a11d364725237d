// The score-annotated substrate contract: one pair sweep at the loosest
// grid threshold (scores covering the strictest) serves every (k, r) cell
// structurally — derived workspaces are bit-identical to cold preparations
// and mine byte-identically, through snapshots and live edge updates alike.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/parameter_sweep.h"
#include "core/pipeline.h"
#include "core/workspace_update.h"
#include "snapshot/workspace_snapshot.h"
#include "test_helpers.h"
#include "util/random.h"

namespace krcore {
namespace {

/// Structural equality of the mining-visible substrate: component order,
/// local ids, structure CSR, active dissimilarity rows. The cold side may
/// have a different cover — reserve rows and scores are the derived side's
/// extra capability, not part of the mining contract — but with
/// `check_reserve` both sides must agree on those too (used where both
/// sides share a cover).
void ExpectSameSubstrate(const std::vector<ComponentContext>& derived,
                         const std::vector<ComponentContext>& cold,
                         bool check_reserve, const std::string& where) {
  ASSERT_EQ(derived.size(), cold.size()) << where;
  for (size_t c = 0; c < cold.size(); ++c) {
    const ComponentContext& a = derived[c];
    const ComponentContext& b = cold[c];
    ASSERT_EQ(a.to_parent, b.to_parent) << where << " component " << c;
    ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges())
        << where << " component " << c;
    ASSERT_EQ(a.num_dissimilar_pairs(), b.num_dissimilar_pairs())
        << where << " component " << c;
    if (check_reserve) {
      ASSERT_EQ(a.dissimilar.num_reserve_pairs(),
                b.dissimilar.num_reserve_pairs())
          << where << " component " << c;
    }
    for (VertexId u = 0; u < a.size(); ++u) {
      auto an = a.graph.neighbors(u);
      auto bn = b.graph.neighbors(u);
      ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()))
          << where << " component " << c << " vertex " << u;
      auto ad = a.dissimilar[u];
      auto bd = b.dissimilar[u];
      ASSERT_TRUE(std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()))
          << where << " component " << c << " vertex " << u;
      if (!check_reserve) continue;
      auto ar = a.dissimilar.reserve_row(u);
      auto br = b.dissimilar.reserve_row(u);
      ASSERT_TRUE(std::equal(ar.begin(), ar.end(), br.begin(), br.end()))
          << where << " component " << c << " vertex " << u;
      auto ars = a.dissimilar.reserve_scores(u);
      auto brs = b.dissimilar.reserve_scores(u);
      ASSERT_TRUE(
          std::equal(ars.begin(), ars.end(), brs.begin(), brs.end()))
          << where << " component " << c << " vertex " << u;
    }
  }
}

TEST(ScoredIndex, ReserveRowsKeepMiningSemantics) {
  // 4 vertices; active pairs {0,1}, {2,3}; reserve {0,2}@0.6.
  DissimilarityIndex::Builder builder(4);
  builder.AddPair(2, 3);
  builder.AddPair(0, 1);
  builder.AddReservePair(0, 2, 0.6);
  DissimilarityIndex index = builder.Build();

  EXPECT_EQ(index.num_pairs(), 2u);
  EXPECT_EQ(index.num_reserve_pairs(), 1u);
  EXPECT_EQ(index.degree(0), 1u) << "reserve entries do not count";
  EXPECT_TRUE(index.Dissimilar(0, 1));
  EXPECT_TRUE(index.Dissimilar(3, 2));
  EXPECT_FALSE(index.Dissimilar(0, 2))
      << "reserve pairs are similar at the serving threshold";
  ASSERT_EQ(index.row(0).size(), 1u);
  EXPECT_EQ(index.row(0)[0], 1u);
  ASSERT_EQ(index.reserve_row(0).size(), 1u);
  EXPECT_EQ(index.reserve_row(0)[0], 2u);
  EXPECT_DOUBLE_EQ(index.reserve_scores(0)[0], 0.6);
  ASSERT_EQ(index.reserve_row(2).size(), 1u);
  EXPECT_EQ(index.reserve_row(2)[0], 0u);
  EXPECT_DOUBLE_EQ(index.reserve_scores(2)[0], 0.6);
  EXPECT_TRUE(index.reserve_row(1).empty());

  // Deriving at a stricter similarity threshold activates the reserve pair
  // (similarity direction: dissimilar means score < r). Serve 0.5 < 0.6 <
  // cover 0.8, so {0,2} is similar at serve; the structure edge {0,2} turns
  // dissimilar at r = 0.7 and is dropped, the other three keep 0-3-1-2
  // connected.
  PreparedWorkspace ws;
  ws.k = 1;
  ws.threshold = 0.5;
  ws.score_cover = 0.8;
  ComponentContext comp;
  comp.graph = MakeGraph(4, {{0, 2}, {0, 3}, {1, 2}, {1, 3}});
  comp.to_parent = std::vector<VertexId>{0, 1, 2, 3};
  comp.dissimilar = std::move(index);
  ws.components.push_back(std::move(comp));
  PreparedWorkspace derived;
  PreprocessReport report;
  ASSERT_TRUE(
      DeriveWorkspace(ws, 1, /*r=*/0.7, PipelineOptions{}, &derived, &report)
          .ok());
  EXPECT_EQ(report.score_filtered_pairs, 1u);
  ASSERT_EQ(derived.components.size(), 1u);
  const ComponentContext& tight = derived.components[0];
  EXPECT_EQ(tight.graph.num_edges(), 3u);
  EXPECT_FALSE(tight.graph.HasEdge(0, 2));
  EXPECT_EQ(tight.dissimilar.num_pairs(), 3u);
  EXPECT_EQ(tight.dissimilar.num_reserve_pairs(), 0u);
  EXPECT_TRUE(tight.dissimilar.Dissimilar(0, 2));
}

TEST(ScoredIndex, ActiveOnlyBuilderHasEmptyReserveRows) {
  DissimilarityIndex::Builder builder(3);
  builder.AddPair(0, 2);
  DissimilarityIndex index = builder.Build();
  EXPECT_EQ(index.num_reserve_pairs(), 0u);
  EXPECT_TRUE(index.Dissimilar(0, 2));
  for (VertexId u = 0; u < 3; ++u) {
    EXPECT_TRUE(index.reserve_row(u).empty());
    EXPECT_TRUE(index.reserve_scores(u).empty());
  }
}

TEST(PrepareWorkspace, RejectsCoverLooserThanServe) {
  auto dataset = test::MakeRandomGeo(40, 160, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.3);
  PipelineOptions opts;
  opts.k = 2;
  // Distance metric: a *larger* cover admits more similar pairs — looser,
  // so it cannot cover the serve threshold's stricter cells.
  opts.score_cover = 0.5;
  PreparedWorkspace ws;
  EXPECT_TRUE(
      PrepareWorkspace(dataset.graph, oracle, opts, &ws).IsInvalidArgument());
  opts.score_cover = std::numeric_limits<double>::infinity();
  EXPECT_TRUE(
      PrepareWorkspace(dataset.graph, oracle, opts, &ws).IsInvalidArgument());
}

/// Brute reference for PreprocessReport::score_filtered_pairs: the base
/// reserve pairs whose endpoints land in one derived component, each
/// unordered pair once.
uint64_t BruteScoreFilteredPairs(const PreparedWorkspace& base,
                                 const PreparedWorkspace& derived) {
  std::unordered_map<VertexId, size_t> component_of;
  for (size_t c = 0; c < derived.components.size(); ++c) {
    for (VertexId p : derived.components[c].to_parent) component_of[p] = c;
  }
  uint64_t pairs = 0;
  for (const ComponentContext& comp : base.components) {
    for (VertexId u = 0; u < comp.size(); ++u) {
      for (VertexId v : comp.dissimilar.reserve_row(u)) {
        if (v < u) continue;
        auto cu = component_of.find(comp.to_parent[u]);
        auto cv = component_of.find(comp.to_parent[v]);
        if (cu != component_of.end() && cv != component_of.end() &&
            cu->second == cv->second) {
          ++pairs;
        }
      }
    }
  }
  return pairs;
}

/// The tentpole invariant, randomized: a base prepared once at (k_min,
/// loosest r, cover = strictest r) derives every grid cell bit-identically
/// to a cold preparation at that cell with the same cover — reserve rows
/// and stored scores included — and mines byte-identically, with zero
/// oracle calls in the derivation. Every grid holds the r == serve and the
/// r == cover cell, since the base is prepared at its loosest and
/// strictest r.
void RunDeriveGridEquivalence(Dataset dataset, std::vector<uint32_t> ks,
                              std::vector<double> rs,
                              uint64_t* score_filtered = nullptr) {
  const bool is_distance = IsDistanceMetric(dataset.metric);
  const double r_serve = LoosestThreshold(rs, is_distance);
  const double r_cover = StrictestThreshold(rs, is_distance);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r_serve);

  PipelineOptions base_opts;
  base_opts.k = *std::min_element(ks.begin(), ks.end());
  base_opts.score_cover = r_cover;
  PreparedWorkspace base;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, base_opts, &base).ok());
  EXPECT_DOUBLE_EQ(base.threshold, r_serve);
  EXPECT_DOUBLE_EQ(base.score_cover, r_cover);

  for (uint32_t k : ks) {
    for (double r : rs) {
      const std::string where =
          "cell (k=" + std::to_string(k) + ", r=" + std::to_string(r) + ")";
      SimilarityOracle cell_oracle = oracle.WithThreshold(r);
      PipelineOptions cold_opts;
      cold_opts.k = k;
      cold_opts.score_cover = r_cover;
      PreparedWorkspace cold;
      ASSERT_TRUE(
          PrepareWorkspace(dataset.graph, cell_oracle, cold_opts, &cold).ok())
          << where;

      PipelineOptions derive_opts;
      derive_opts.k = k;
      PreparedWorkspace derived;
      PreprocessReport report;
      ASSERT_TRUE(
          DeriveWorkspace(base, k, r, derive_opts, &derived, &report).ok())
          << where;
      EXPECT_EQ(report.pairs_evaluated, 0u)
          << where << ": derivation must never consult the oracle";
      ExpectSameSubstrate(derived.components, cold.components,
                          /*check_reserve=*/true, where);
      EXPECT_EQ(test::DiffWorkspaces(derived, cold), "") << where;
      EXPECT_TRUE(derived.Serves(k, r)) << where;
      if (r == r_serve) {
        EXPECT_EQ(report.score_filtered_pairs, 0u)
            << where << ": the base threshold needs no score test";
      } else {
        EXPECT_EQ(report.score_filtered_pairs,
                  BruteScoreFilteredPairs(base, derived))
            << where;
        if (score_filtered != nullptr) {
          *score_filtered += report.score_filtered_pairs;
        }
      }

      auto mined_derived =
          EnumerateMaximalCores(derived.components, AdvEnumOptions(k));
      auto mined_cold = EnumerateMaximalCores(dataset.graph, cell_oracle,
                                              AdvEnumOptions(k));
      ASSERT_TRUE(mined_derived.status.ok()) << where;
      ASSERT_TRUE(mined_cold.status.ok()) << where;
      EXPECT_EQ(mined_derived.cores, mined_cold.cores) << where;

      auto max_derived =
          FindMaximumCore(derived.components, AdvMaxOptions(k));
      auto max_cold =
          FindMaximumCore(dataset.graph, cell_oracle, AdvMaxOptions(k));
      ASSERT_TRUE(max_derived.status.ok()) << where;
      ASSERT_TRUE(max_cold.status.ok()) << where;
      EXPECT_EQ(max_derived.best, max_cold.best) << where;
    }
  }
}

TEST(DeriveWorkspaceR, RandomGridsMatchColdPreparationGeo) {
  // Distance metric: loosest = largest radius.
  uint64_t score_filtered = 0;
  RunDeriveGridEquivalence(test::MakeRandomGeo(150, 950, 19), {2, 3, 4},
                           {0.25, 0.32, 0.4}, &score_filtered);
  EXPECT_GT(score_filtered, 0u) << "no cell exercised the score filter";
}

TEST(DeriveWorkspaceR, RandomGridsMatchColdPreparationKeyword) {
  // Similarity metric: loosest = smallest threshold.
  RunDeriveGridEquivalence(test::MakeRandomKeyword(120, 700, 29), {2, 3},
                           {0.34, 0.5, 0.67});
}

TEST(DeriveWorkspaceR, MoreSeeds) {
  for (uint64_t seed : {3u, 47u}) {
    RunDeriveGridEquivalence(test::MakeRandomGeo(110, 650, seed), {2, 4},
                             {0.28, 0.38});
  }
}

TEST(DeriveWorkspaceR, ChainedDerivationStaysExact) {
  // Derive (k=3, mid r) from the base, then (k=4, strict r) from the
  // *derived* workspace — the annotation must survive one hop and keep the
  // second hop exact.
  auto dataset = test::MakeRandomGeo(140, 850, 53);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions opts;
  opts.k = 2;
  opts.score_cover = 0.25;
  PreparedWorkspace base;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &base).ok());

  PipelineOptions hop;
  hop.k = 3;
  PreparedWorkspace mid;
  ASSERT_TRUE(DeriveWorkspace(base, 3, 0.32, hop, &mid).ok());
  EXPECT_DOUBLE_EQ(mid.score_cover, 0.25) << "cover survives derivation";

  hop.k = 4;
  PreparedWorkspace leaf;
  ASSERT_TRUE(DeriveWorkspace(mid, 4, 0.26, hop, &leaf).ok());

  SimilarityOracle leaf_oracle = oracle.WithThreshold(0.26);
  PipelineOptions cold_opts;
  cold_opts.k = 4;
  cold_opts.score_cover = 0.25;
  PreparedWorkspace cold;
  ASSERT_TRUE(
      PrepareWorkspace(dataset.graph, leaf_oracle, cold_opts, &cold).ok());
  ExpectSameSubstrate(leaf.components, cold.components,
                      /*check_reserve=*/true, "chained leaf");
  EXPECT_EQ(test::DiffWorkspaces(leaf, cold), "");
}

/// Two 5-cliques 1.0 apart on a line, joined only through a hub vertex
/// halfway between them (degree 2). Clique members sit 0.05 apart, so a
/// strict cover stores reserve pairs inside each clique too.
Dataset TwoCliquesThroughHub() {
  std::vector<GeoPoint> points;
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId clique = 0; clique < 2; ++clique) {
    const VertexId first = clique * 5;
    for (VertexId i = 0; i < 5; ++i) {
      points.push_back({clique * 1.0 + i * 0.05, 0.0});
      for (VertexId j = 0; j < i; ++j) edges.emplace_back(first + j, first + i);
    }
  }
  points.push_back({0.55, 0.0});  // the hub, vertex 10
  edges.emplace_back(4, 10);
  edges.emplace_back(5, 10);
  Dataset d;
  d.name = "two_cliques_through_hub";
  d.graph = MakeGraph(11, edges);
  d.attributes = AttributeTable::ForGeo(std::move(points));
  d.metric = Metric::kEuclideanDistance;
  return d;
}

/// Boundary cells, each diffed field by field (annotation included)
/// against a cold preparation with the same cover: r == serve, r == cover,
/// a k that peels every vertex, and two cells where the base's single
/// component splits in two (once by the k-core peel, once by the r filter).
TEST(DeriveWorkspaceR, BoundaryCellsMatchColdPreparation) {
  Dataset dataset = TwoCliquesThroughHub();
  const double serve = 2.0, cover = 0.15;
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, serve);
  PipelineOptions opts;
  opts.k = 2;
  opts.score_cover = cover;
  PreparedWorkspace base;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &base).ok());
  ASSERT_EQ(base.components.size(), 1u);
  ASSERT_EQ(base.components[0].size(), 11u);
  ASSERT_GT(base.components[0].dissimilar.num_reserve_pairs(), 0u);

  struct Cell {
    uint32_t k;
    double r;
    size_t components;
  };
  const Cell cells[] = {
      {2, serve, 1},  // r == serve: nothing filtered, nothing peeled
      {3, serve, 2},  // the hub has degree 2: the peel splits the cliques
      {2, 0.4, 2},    // the hub's edges (length 0.45) turn dissimilar
      {2, cover, 2},  // r == cover
      {5, 0.4, 0},    // every vertex has degree <= 4: empty, still OK
  };
  for (const Cell& cell : cells) {
    const std::string where = "cell (k=" + std::to_string(cell.k) +
                              ", r=" + std::to_string(cell.r) + ")";
    PipelineOptions cold_opts;
    cold_opts.k = cell.k;
    cold_opts.score_cover = cover;
    PreparedWorkspace cold;
    ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle.WithThreshold(cell.r),
                                 cold_opts, &cold)
                    .ok())
        << where;
    PreparedWorkspace derived;
    ASSERT_TRUE(
        DeriveWorkspace(base, cell.k, cell.r, PipelineOptions{}, &derived)
            .ok())
        << where;
    EXPECT_EQ(derived.components.size(), cell.components) << where;
    EXPECT_EQ(test::DiffWorkspaces(derived, cold), "") << where;
  }
}

/// Three random-geo clusters 10 apart with interleaved vertex ids (vertex
/// u joins cluster u % 3) and rising edge density, so the max-degree order
/// of their components is not their minimum-id order.
Dataset InterleavedClusters(uint64_t seed) {
  constexpr VertexId kClusters = 3, kPerCluster = 60;
  Rng rng(seed);
  std::vector<GeoPoint> points(kClusters * kPerCluster);
  for (VertexId u = 0; u < points.size(); ++u) {
    points[u] = {10.0 * (u % kClusters) + rng.NextDouble(), rng.NextDouble()};
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId c = 0; c < kClusters; ++c) {
    for (uint32_t e = 0; e < 150 * (c + 1); ++e) {
      const VertexId u = c + kClusters * rng.NextBounded(kPerCluster);
      const VertexId v = c + kClusters * rng.NextBounded(kPerCluster);
      if (u != v) edges.emplace_back(u, v);
    }
  }
  Dataset d;
  d.name = "interleaved_clusters";
  d.graph = MakeGraph(static_cast<VertexId>(points.size()), edges);
  d.attributes = AttributeTable::ForGeo(std::move(points));
  d.metric = Metric::kEuclideanDistance;
  return d;
}

/// A derived workspace lists its components in the cold preparation's
/// order even where several components share a cell.
TEST(DeriveWorkspaceR, DerivationKeepsColdComponentOrder) {
  auto dataset = InterleavedClusters(83);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions base_opts;
  base_opts.k = 2;
  base_opts.score_cover = 0.2;
  PreparedWorkspace base;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, base_opts, &base).ok());
  size_t multi_component_cells = 0;
  for (uint32_t k : {2u, 3u, 4u}) {
    for (double r : {0.4, 0.3, 0.2}) {
      const std::string where =
          "cell (k=" + std::to_string(k) + ", r=" + std::to_string(r) + ")";
      PipelineOptions cold_opts;
      cold_opts.k = k;
      cold_opts.score_cover = 0.2;
      PreparedWorkspace cold;
      ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle.WithThreshold(r),
                                   cold_opts, &cold)
                      .ok())
          << where;
      PreparedWorkspace derived;
      ASSERT_TRUE(
          DeriveWorkspace(base, k, r, PipelineOptions{}, &derived).ok())
          << where;
      EXPECT_EQ(test::DiffWorkspaces(derived, cold), "") << where;
      multi_component_cells += cold.components.size() > 1;
    }
  }
  EXPECT_GT(multi_component_cells, 0u) << "the order was never exercised";
}

TEST(DeriveWorkspaceR, OutOfIntervalAndUnscoredAreRejected) {
  auto dataset = test::MakeRandomGeo(80, 400, 7);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions opts;
  opts.k = 2;
  opts.score_cover = 0.3;
  PreparedWorkspace scored;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &scored).ok());
  PipelineOptions derive_opts;
  PreparedWorkspace out;
  // Looser than serve and stricter than cover (distance metric). The
  // message orders the interval for the metric direction.
  Status outside = DeriveWorkspace(scored, 2, 0.5, derive_opts, &out);
  EXPECT_TRUE(outside.IsInvalidArgument());
  EXPECT_NE(outside.message().find("r in [0.300000, 0.400000]"),
            std::string::npos)
      << outside.message();
  EXPECT_TRUE(
      DeriveWorkspace(scored, 2, 0.2, derive_opts, &out).IsInvalidArgument());
  // Endpoints are servable.
  EXPECT_TRUE(DeriveWorkspace(scored, 2, 0.3, derive_opts, &out).ok());
  EXPECT_TRUE(DeriveWorkspace(scored, 2, 0.4, derive_opts, &out).ok());

  PipelineOptions unscored_opts;
  unscored_opts.k = 2;
  PreparedWorkspace unscored;
  ASSERT_TRUE(
      PrepareWorkspace(dataset.graph, oracle, unscored_opts, &unscored).ok());
  Status s = DeriveWorkspace(unscored, 2, 0.35, derive_opts, &out);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("r in [0.400000, 0.400000]"), std::string::npos)
      << s.message();
}

/// The acceptance criterion: a full (k,r) grid sweep performs exactly one
/// similarity pair sweep, with results identical to cold per-cell runs.
TEST(ParameterSweepScores, FullGridRunsExactlyOnePairSweep) {
  auto dataset = test::MakeRandomGeo(150, 950, 37);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.3);

  SweepGrid grid;
  grid.ks = {2, 3, 4};
  grid.rs = {0.25, 0.33, 0.4};
  SweepOptions options;
  options.mode = SweepMode::kEnumerate;
  options.enumerate = AdvEnumOptions(0);

  SweepResult sweep = RunParameterSweep(dataset.graph, oracle, grid, options);
  ASSERT_TRUE(sweep.status.ok());
  ASSERT_EQ(sweep.cells.size(), 9u);
  EXPECT_EQ(sweep.pair_sweeps, 1u)
      << "the whole grid must cost one pair sweep";
  EXPECT_EQ(sweep.derived_cells, 8u);

  uint64_t cell_sweeps = 0, r_restrictions = 0, score_filtered = 0;
  for (const SweepCellResult& cell : sweep.cells) {
    const MiningStats& stats = cell.stats(options.mode);
    cell_sweeps += stats.prepare_pair_sweeps;
    r_restrictions += stats.derive_r_restrictions;
    score_filtered += stats.score_filtered_pairs;
    auto cold = EnumerateMaximalCores(dataset.graph,
                                      oracle.WithThreshold(cell.r),
                                      AdvEnumOptions(cell.k));
    ASSERT_TRUE(cold.status.ok());
    EXPECT_EQ(cold.cores, cell.enum_result.cores)
        << "cell (k=" << cell.k << ", r=" << cell.r << ")";
  }
  EXPECT_EQ(cell_sweeps, 0u) << "no cell may re-sweep";
  // Distance metric, loosest r = 0.4: the six cells at r = 0.25 / 0.33
  // restrict the threshold; the r = 0.4 cells (one of them the base) do
  // not.
  EXPECT_EQ(r_restrictions, 6u);
  EXPECT_GT(score_filtered, 0u);
}

TEST(ParameterSweepScores, MaximumModeGridMatchesColdRuns) {
  auto dataset = test::MakeRandomKeyword(100, 600, 43);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  SweepGrid grid;
  grid.ks = {2, 3};
  grid.rs = {0.4, 0.6};
  SweepOptions options;
  options.mode = SweepMode::kMaximum;
  options.maximum = AdvMaxOptions(0);
  SweepResult sweep = RunParameterSweep(dataset.graph, oracle, grid, options);
  ASSERT_TRUE(sweep.status.ok());
  EXPECT_EQ(sweep.pair_sweeps, 1u);
  for (const SweepCellResult& cell : sweep.cells) {
    auto cold = FindMaximumCore(dataset.graph, oracle.WithThreshold(cell.r),
                                AdvMaxOptions(cell.k));
    ASSERT_TRUE(cold.status.ok());
    EXPECT_EQ(cold.best.size(), cell.max_result.best.size())
        << "cell (k=" << cell.k << ", r=" << cell.r << ")";
  }
}

TEST(ParameterSweepScores, ConcurrentGridMatchesSequential) {
  auto dataset = test::MakeRandomGeo(130, 800, 59);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  SweepGrid grid;
  grid.ks = {2, 3, 4};
  grid.rs = {0.28, 0.35};
  SweepOptions seq;
  seq.mode = SweepMode::kEnumerate;
  seq.enumerate = AdvEnumOptions(0);
  SweepOptions par = seq;
  par.parallel.num_threads = 4;
  SweepResult a = RunParameterSweep(dataset.graph, oracle, grid, seq);
  SweepResult b = RunParameterSweep(dataset.graph, oracle, grid, par);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].enum_result.cores, b.cells[i].enum_result.cores);
  }
}

/// Snapshot round trip of a score-annotated workspace: the file preserves the
/// annotation bit-for-bit, and a loaded workspace derives the same grid.
TEST(ScoredSnapshot, RoundTripPreservesAnnotationAndDerivation) {
  auto dataset = test::MakeRandomGeo(140, 900, 61);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions opts;
  opts.k = 2;
  opts.score_cover = 0.26;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &ws).ok());

  const std::string path = ::testing::TempDir() + "scored_roundtrip.krws";
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, path).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(path, &loaded).ok());
  std::remove(path.c_str());

  EXPECT_EQ(loaded.is_distance, ws.is_distance);
  EXPECT_DOUBLE_EQ(loaded.threshold, ws.threshold);
  EXPECT_DOUBLE_EQ(loaded.score_cover, ws.score_cover);
  ExpectSameSubstrate(loaded.components, ws.components,
                      /*check_reserve=*/true, "loaded");

  for (double r : {0.4, 0.33, 0.26}) {
    PipelineOptions derive_opts;
    PreparedWorkspace from_ws, from_loaded;
    ASSERT_TRUE(DeriveWorkspace(ws, 3, r, derive_opts, &from_ws).ok());
    ASSERT_TRUE(DeriveWorkspace(loaded, 3, r, derive_opts, &from_loaded).ok());
    ExpectSameSubstrate(from_loaded.components, from_ws.components,
                        /*check_reserve=*/true, "r=" + std::to_string(r));
  }
}

TEST(ScoredSnapshot, SweepPreparedWorkspaceServesTheWholeInterval) {
  auto dataset = test::MakeRandomGeo(130, 820, 67);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions opts;
  opts.k = 2;
  opts.score_cover = 0.28;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &ws).ok());

  SweepOptions options;
  options.mode = SweepMode::kEnumerate;
  options.enumerate = AdvEnumOptions(0);
  SweepResult sweep =
      SweepPreparedWorkspace(ws, {2, 3}, {0.4, 0.3}, options);
  ASSERT_TRUE(sweep.status.ok());
  ASSERT_EQ(sweep.cells.size(), 4u);
  EXPECT_EQ(sweep.pair_sweeps, 0u);
  for (const SweepCellResult& cell : sweep.cells) {
    auto cold = EnumerateMaximalCores(dataset.graph,
                                      oracle.WithThreshold(cell.r),
                                      AdvEnumOptions(cell.k));
    EXPECT_EQ(cold.cores, cell.enum_result.cores)
        << "cell (k=" << cell.k << ", r=" << cell.r << ")";
  }

  // Out-of-interval r and an unscored workspace are rejected up front.
  EXPECT_TRUE(SweepPreparedWorkspace(ws, {2}, {0.5}, options)
                  .status.IsInvalidArgument());
  PipelineOptions unscored_opts;
  unscored_opts.k = 2;
  PreparedWorkspace unscored;
  ASSERT_TRUE(
      PrepareWorkspace(dataset.graph, oracle, unscored_opts, &unscored).ok());
  EXPECT_TRUE(SweepPreparedWorkspace(unscored, {2}, {0.3}, options)
                  .status.IsInvalidArgument());
  EXPECT_TRUE(SweepPreparedWorkspace(unscored, {2}, {0.4}, options).status.ok())
      << "the exact threshold stays servable without scores";
}

/// Live edge updates on a score-annotated workspace: the maintained
/// substrate stays bit-identical to a scored cold preparation — scores,
/// reserve segments and all — so its whole serving interval keeps working
/// after every batch, through both the incremental and the fallback path.
void RunScoredUpdateSequence(Dataset dataset, double r_serve, double r_cover,
                             uint32_t k, int batches, size_t inserts,
                             size_t removes, double max_dirty_fraction,
                             uint64_t seed) {
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r_serve);
  PipelineOptions prep;
  prep.k = k;
  prep.score_cover = r_cover;
  PreparedWorkspace maintained;
  ASSERT_TRUE(
      PrepareWorkspace(dataset.graph, oracle, prep, &maintained).ok());

  WorkspaceUpdater updater(dataset.graph, oracle, &maintained);
  EdgeSetMirror edges(dataset.graph);
  Rng rng(seed);
  UpdateOptions options;
  options.max_dirty_fraction = max_dirty_fraction;

  for (int b = 0; b < batches; ++b) {
    std::vector<EdgeUpdate> batch;
    std::vector<std::pair<VertexId, VertexId>> existing(
        edges.edges().begin(), edges.edges().end());
    const VertexId n = edges.num_vertices();
    for (size_t i = 0; i < removes && !existing.empty(); ++i) {
      const auto& e = existing[rng.NextBounded(existing.size())];
      batch.push_back(EdgeUpdate::Remove(e.first, e.second));
    }
    for (size_t i = 0; i < inserts; ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v) v = (v + 1) % n;
      batch.push_back(EdgeUpdate::Insert(u, v));
    }
    for (const EdgeUpdate& upd : batch) edges.Apply(upd);
    ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, options).ok())
        << "batch " << b;

    Graph updated = edges.Build();
    PreparedWorkspace fresh;
    ASSERT_TRUE(PrepareWorkspace(updated, oracle, prep, &fresh).ok());
    ExpectSameSubstrate(maintained.components, fresh.components,
                        /*check_reserve=*/true,
                        "batch " + std::to_string(b));

    // Full-grid servability after the batch: derive a stricter cell from
    // the maintained workspace and diff against a cold preparation of the
    // updated graph at that cell.
    const double r_mid = (r_serve + r_cover) / 2;
    PipelineOptions derive_opts;
    PreparedWorkspace derived;
    ASSERT_TRUE(
        DeriveWorkspace(maintained, k + 1, r_mid, derive_opts, &derived).ok())
        << "batch " << b;
    SimilarityOracle mid_oracle = oracle.WithThreshold(r_mid);
    PipelineOptions cold_opts;
    cold_opts.k = k + 1;
    PreparedWorkspace cold;
    ASSERT_TRUE(PrepareWorkspace(updated, mid_oracle, cold_opts, &cold).ok());
    ExpectSameSubstrate(derived.components, cold.components,
                        /*check_reserve=*/false,
                        "derived cell, batch " + std::to_string(b));
    auto mined = EnumerateMaximalCores(derived.components,
                                       AdvEnumOptions(k + 1));
    auto cold_mined =
        EnumerateMaximalCores(updated, mid_oracle, AdvEnumOptions(k + 1));
    ASSERT_TRUE(mined.status.ok());
    ASSERT_TRUE(cold_mined.status.ok());
    EXPECT_EQ(mined.cores, cold_mined.cores) << "batch " << b;
  }
}

TEST(ScoredWorkspaceUpdate, MaintainedAnnotationMatchesColdRebuild) {
  RunScoredUpdateSequence(test::MakeRandomGeo(130, 800, 71), /*r_serve=*/0.4,
                          /*r_cover=*/0.28, /*k=*/2, /*batches=*/6,
                          /*inserts=*/6, /*removes=*/6,
                          /*max_dirty_fraction=*/0.35, /*seed=*/303);
}

TEST(ScoredWorkspaceUpdate, FallbackPathMaintainsAnnotationToo) {
  RunScoredUpdateSequence(test::MakeRandomKeyword(100, 600, 73),
                          /*r_serve=*/0.4, /*r_cover=*/0.6, /*k=*/2,
                          /*batches=*/4, /*inserts=*/5, /*removes=*/6,
                          /*max_dirty_fraction=*/0.0, /*seed=*/404);
}

}  // namespace
}  // namespace krcore
