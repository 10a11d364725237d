#include "core/workspace_update.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "graph/graph_builder.h"
#include "test_helpers.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace krcore {
namespace {

/// The library's ground-truth companion: tests rebuild the updated graph
/// from it for the cold re-prepare every batch is compared against.
using EdgeSet = EdgeSetMirror;

/// The correctness bar of the update engine: the maintained workspace must
/// be *structurally identical* to a fresh preparation of the updated graph —
/// same component order, same local ids, same structure CSR, same
/// dissimilarity rows — which makes mining results byte-identical for free.
void ExpectStructurallyIdentical(const PreparedWorkspace& maintained,
                                 const PreparedWorkspace& fresh,
                                 const std::string& where) {
  ASSERT_EQ(maintained.components.size(), fresh.components.size()) << where;
  for (size_t c = 0; c < fresh.components.size(); ++c) {
    const ComponentContext& a = maintained.components[c];
    const ComponentContext& b = fresh.components[c];
    ASSERT_EQ(a.to_parent, b.to_parent) << where << " component " << c;
    ASSERT_EQ(a.graph.num_edges(), b.graph.num_edges())
        << where << " component " << c;
    ASSERT_EQ(a.num_dissimilar_pairs(), b.num_dissimilar_pairs())
        << where << " component " << c;
    for (VertexId u = 0; u < a.size(); ++u) {
      auto an = a.graph.neighbors(u);
      auto bn = b.graph.neighbors(u);
      ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()))
          << where << " component " << c << " vertex " << u;
      auto ad = a.dissimilar[u];
      auto bd = b.dissimilar[u];
      ASSERT_TRUE(std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()))
          << where << " component " << c << " vertex " << u;
    }
  }
}

/// Draws one mixed batch: deletions of random existing edges plus
/// insertions of random (possibly new) pairs.
std::vector<EdgeUpdate> RandomBatch(const EdgeSet& edges, size_t inserts,
                                    size_t removes, Rng* rng) {
  std::vector<EdgeUpdate> batch;
  std::vector<std::pair<VertexId, VertexId>> existing(edges.edges().begin(),
                                                      edges.edges().end());
  const VertexId n = edges.num_vertices();
  for (size_t i = 0; i < removes && !existing.empty(); ++i) {
    const auto& e = existing[rng->NextBounded(existing.size())];
    batch.push_back(EdgeUpdate::Remove(e.first, e.second));
  }
  for (size_t i = 0; i < inserts; ++i) {
    VertexId u = static_cast<VertexId>(rng->NextBounded(n));
    VertexId v = static_cast<VertexId>(rng->NextBounded(n));
    if (u == v) v = (v + 1) % n;
    batch.push_back(EdgeUpdate::Insert(u, v));
  }
  return batch;
}

/// Runs `batches` randomized update batches through one WorkspaceUpdater and
/// checks, after every batch, that the maintained workspace is structurally
/// identical to a cold re-preparation and mines byte-identically.
void RunEquivalenceSequence(Dataset dataset, double r, uint32_t k,
                            int batches, size_t inserts, size_t removes,
                            double max_dirty_fraction, uint64_t seed) {
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
  PipelineOptions prep;
  prep.k = k;
  PreparedWorkspace maintained;
  ASSERT_TRUE(
      PrepareWorkspace(dataset.graph, oracle, prep, &maintained).ok());

  WorkspaceUpdater updater(dataset.graph, oracle, &maintained);
  EdgeSet edges(dataset.graph);
  Rng rng(seed);
  UpdateOptions options;
  options.max_dirty_fraction = max_dirty_fraction;

  for (int b = 0; b < batches; ++b) {
    std::vector<EdgeUpdate> batch = RandomBatch(edges, inserts, removes,
                                                &rng);
    for (const EdgeUpdate& upd : batch) edges.Apply(upd);

    UpdateReport report;
    ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, options, &report).ok())
        << "batch " << b;
    EXPECT_EQ(maintained.version, static_cast<uint64_t>(b + 1));

    Graph updated = edges.Build();
    PreparedWorkspace fresh;
    ASSERT_TRUE(PrepareWorkspace(updated, oracle, prep, &fresh).ok());
    ExpectStructurallyIdentical(maintained, fresh,
                                "batch " + std::to_string(b));

    auto mined = EnumerateMaximalCores(maintained.components,
                                       AdvEnumOptions(k));
    auto cold = EnumerateMaximalCores(updated, oracle, AdvEnumOptions(k));
    ASSERT_TRUE(mined.status.ok());
    ASSERT_TRUE(cold.status.ok());
    EXPECT_EQ(mined.cores, cold.cores) << "batch " << b;
  }
}

TEST(WorkspaceUpdate, RandomizedSequencesMatchColdRebuildGeo) {
  RunEquivalenceSequence(test::MakeRandomGeo(140, 900, 17), 0.35, 3,
                         /*batches=*/8, /*inserts=*/6, /*removes=*/6,
                         /*max_dirty_fraction=*/0.35, /*seed=*/101);
}

TEST(WorkspaceUpdate, RandomizedSequencesMatchColdRebuildKeyword) {
  RunEquivalenceSequence(test::MakeRandomKeyword(110, 650, 23), 0.5, 2,
                         /*batches=*/8, /*inserts=*/5, /*removes=*/7,
                         /*max_dirty_fraction=*/0.35, /*seed=*/202);
}

TEST(WorkspaceUpdate, FallbackPathIsEquallyExact) {
  // max_dirty_fraction = 0 forces the scoped re-prepare (full pair sweep
  // over dirtied components) on every batch; results must not change.
  RunEquivalenceSequence(test::MakeRandomGeo(120, 750, 31), 0.35, 3,
                         /*batches=*/5, /*inserts=*/6, /*removes=*/6,
                         /*max_dirty_fraction=*/0.0, /*seed=*/303);
}

TEST(WorkspaceUpdate, InsertOnlyGrowsAndDeleteOnlyShrinksExactly) {
  auto dataset = test::MakeRandomGeo(130, 800, 7);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  PipelineOptions prep;
  prep.k = 3;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  WorkspaceUpdater updater(dataset.graph, oracle, &ws);
  EdgeSet edges(dataset.graph);
  Rng rng(11);
  UpdateOptions options;

  std::vector<EdgeUpdate> inserts = RandomBatch(edges, 20, 0, &rng);
  for (const auto& upd : inserts) edges.Apply(upd);
  ASSERT_TRUE(updater.ApplyEdgeUpdates(inserts, options, nullptr).ok());
  PreparedWorkspace fresh;
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, "insert-only");

  std::vector<EdgeUpdate> removes = RandomBatch(edges, 0, 25, &rng);
  for (const auto& upd : removes) edges.Apply(upd);
  ASSERT_TRUE(updater.ApplyEdgeUpdates(removes, options, nullptr).ok());
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, "delete-only");
}

TEST(WorkspaceUpdate, NoOpBatchesTouchNothingButBumpTheVersion) {
  auto dataset = test::MakeRandomGeo(80, 400, 3);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions prep;
  prep.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  const size_t components_before = ws.components.size();
  WorkspaceUpdater updater(dataset.graph, oracle, &ws);

  // Re-inserting an existing edge and removing an absent one are no-ops;
  // scan for a genuine non-edge for the removal.
  VertexId u = 0, v = dataset.graph.neighbors(0).front();
  EdgeUpdate no_edge = EdgeUpdate::Remove(0, 1);
  while (dataset.graph.HasEdge(no_edge.u, no_edge.v)) {
    no_edge.v = (no_edge.v + 1) % dataset.graph.num_vertices();
    if (no_edge.v == no_edge.u) {
      no_edge.v = (no_edge.v + 1) % dataset.graph.num_vertices();
    }
  }
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(u, v), no_edge};
  UpdateReport report;
  ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, UpdateOptions{}, &report).ok());
  EXPECT_EQ(ws.version, 1u);
  EXPECT_EQ(report.sim_edges_added, 0u);
  EXPECT_EQ(report.sim_edges_removed, 0u);
  EXPECT_EQ(report.components_rebuilt, 0u);
  EXPECT_EQ(report.components_reused, components_before);
}

TEST(WorkspaceUpdate, ReportsCacheReuseOnTheIncrementalPath) {
  auto dataset = test::MakeRandomGeo(150, 950, 41);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  PipelineOptions prep;
  prep.k = 3;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  if (ws.components.empty()) GTEST_SKIP() << "no core at these parameters";
  WorkspaceUpdater updater(dataset.graph, oracle, &ws);
  EdgeSet edges(dataset.graph);
  Rng rng(5);

  UpdateOptions options;
  options.max_dirty_fraction = 1.0;  // never fall back
  std::vector<EdgeUpdate> batch = RandomBatch(edges, 4, 4, &rng);
  for (const auto& upd : batch) edges.Apply(upd);
  UpdateReport report;
  ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, options, &report).ok());
  EXPECT_EQ(report.fallback_rebuilds, 0u);
  if (report.components_rebuilt > 0) {
    // The incremental path must serve intra-component pairs from the cache:
    // oracle work is bounded by cross-component + promoted pairs, which for
    // a small batch is far below a full component re-sweep.
    EXPECT_GT(report.pairs_from_cache, 0u);
  }
  EXPECT_EQ(updater.cumulative().batches, 1u);
}

TEST(WorkspaceUpdate, ValidationLeavesTheWorkspaceUntouched) {
  auto dataset = test::MakeRandomGeo(60, 300, 9);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions prep;
  prep.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  WorkspaceUpdater updater(dataset.graph, oracle, &ws);

  std::vector<EdgeUpdate> out_of_range = {EdgeUpdate::Insert(0, 60)};
  Status s = updater.ApplyEdgeUpdates(out_of_range, UpdateOptions{}, nullptr);
  EXPECT_TRUE(s.IsInvalidArgument());
  std::vector<EdgeUpdate> self_loop = {EdgeUpdate::Insert(5, 5)};
  s = updater.ApplyEdgeUpdates(self_loop, UpdateOptions{}, nullptr);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(ws.version, 0u) << "failed batches must not advance the version";

  // A mismatched oracle threshold is caught up front, too.
  SimilarityOracle other = oracle.WithThreshold(0.9);
  WorkspaceUpdater bad(dataset.graph, other, &ws);
  std::vector<EdgeUpdate> fine = {EdgeUpdate::Insert(1, 2)};
  EXPECT_TRUE(bad.ApplyEdgeUpdates(fine, UpdateOptions{}, nullptr)
                  .IsInvalidArgument());
}

TEST(WorkspaceUpdate, MergeAndSplitAcrossComponentsOnTheCachedPath) {
  // Two similar triangles, initially disconnected: two components at k=2.
  // Inserting a bridge edge merges them into one component (cross-origin
  // pairs via the oracle, in-origin pairs from the cache); deleting it
  // splits them back. Structural identity is checked at every step.
  auto grouped = test::MakeGrouped(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}},
      {0, 0, 0, 0, 0, 0});
  SimilarityOracle oracle = grouped.MakeOracle();
  PipelineOptions prep;
  prep.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(grouped.graph, oracle, prep, &ws).ok());
  ASSERT_EQ(ws.components.size(), 2u);

  WorkspaceUpdater updater(grouped.graph, oracle, &ws);
  UpdateOptions options;
  options.max_dirty_fraction = 1.0;  // force the cached path on the merge
  EdgeSet edges(grouped.graph);

  std::vector<EdgeUpdate> bridge = {EdgeUpdate::Insert(2, 3)};
  edges.Apply(bridge[0]);
  UpdateReport report;
  ASSERT_TRUE(updater.ApplyEdgeUpdates(bridge, options, &report).ok());
  ASSERT_EQ(ws.components.size(), 1u);
  EXPECT_EQ(ws.components[0].to_parent,
            (std::vector<VertexId>{0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(report.components_rebuilt, 1u);
  EXPECT_EQ(report.pairs_from_oracle, 1u + 9u)
      << "1 filter call for the new edge + 3x3 cross-origin pairs";
  PreparedWorkspace fresh;
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, "merge");

  std::vector<EdgeUpdate> cut = {EdgeUpdate::Remove(2, 3)};
  edges.Apply(cut[0]);
  ASSERT_TRUE(updater.ApplyEdgeUpdates(cut, options, &report).ok());
  ASSERT_EQ(ws.components.size(), 2u);
  EXPECT_EQ(report.pairs_from_oracle, 0u)
      << "a pure split needs zero oracle calls";
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, "split");
}

TEST(WorkspaceUpdate, PromotionGrowsACoreOutOfAnEmptyWorkspace) {
  // Vertex 2 is dissimilar to everyone, so its edges are filtered and the
  // prepared 2-core is empty (the remaining star 0-{1,3,4} peels away).
  // Inserting 1-4 and 3-4 creates a 2-core among {0,1,3,4} from nothing:
  // every member is promoted — the hardest promotion case, since no old
  // component provides a cached row — while the dissimilar vertex 2 must
  // stay out even though it has raw edges into the new core.
  auto grouped = test::MakeGrouped(
      5, {{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 4}}, {0, 0, 1, 0, 0});
  SimilarityOracle oracle = grouped.MakeOracle();
  PipelineOptions prep;
  prep.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(grouped.graph, oracle, prep, &ws).ok());

  WorkspaceUpdater updater(grouped.graph, oracle, &ws);
  EdgeSet edges(grouped.graph);
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(1, 4),
                                   EdgeUpdate::Insert(3, 4)};
  for (const auto& upd : batch) edges.Apply(upd);
  UpdateReport report;
  ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, UpdateOptions{}, &report).ok());
  PreparedWorkspace fresh;
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, "promotion");
  // {0,1,3,4} forms a 2-core (0-1, 0-3, 0-4 edges + new 1-4, 3-4); vertex
  // 2's edges were similarity-filtered, so it stays out.
  ASSERT_EQ(ws.components.size(), 1u);
  EXPECT_EQ(ws.components[0].to_parent, (std::vector<VertexId>{0, 1, 3, 4}));
  EXPECT_GT(report.vertices_promoted, 0u);
}

TEST(WorkspaceUpdate, LowIdPromotionIntoCachedComponentKeepsRowsAligned) {
  // Regression: vertex 0 — a LOWER id than every member of the existing
  // component — is promoted into it on the cached path. The origin census
  // then lists the promoted singleton group *before* the old-component
  // group, which used to desynchronize the group indexing (old-component
  // members were appended into the singleton and their cached rows
  // misattributed to the wrong local ids).
  //
  // Geometry on a line with threshold 1: v1 at 0.0, v2 at 0.9, v3 at 1.8
  // form a similarity path whose endpoint pair (1, 3) is dissimilar — a
  // real cached row. v0 at -0.5 is similar only to v1 and starts isolated.
  Dataset d;
  d.name = "lowid";
  d.graph = MakeGraph(4, {{1, 2}, {2, 3}});
  d.attributes = AttributeTable::ForGeo(
      {{-0.5, 0.0}, {0.0, 0.0}, {0.9, 0.0}, {1.8, 0.0}});
  d.metric = Metric::kEuclideanDistance;
  SimilarityOracle oracle(&d.attributes, d.metric, 1.0);

  PipelineOptions prep;
  prep.k = 1;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(d.graph, oracle, prep, &ws).ok());
  ASSERT_EQ(ws.components.size(), 1u);
  EXPECT_EQ(ws.components[0].to_parent, (std::vector<VertexId>{1, 2, 3}));
  EXPECT_EQ(ws.components[0].num_dissimilar_pairs(), 1u) << "pair (1,3)";

  WorkspaceUpdater updater(d.graph, oracle, &ws);
  EdgeSet edges(d.graph);
  UpdateOptions options;
  options.max_dirty_fraction = 1.0;  // keep the cached path
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(0, 1)};
  edges.Apply(batch[0]);
  UpdateReport report;
  ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, options, &report).ok());
  EXPECT_EQ(report.vertices_promoted, 1u);
  EXPECT_EQ(report.pairs_from_cache, 1u) << "the (1,3) row must be cached";
  EXPECT_EQ(report.pairs_from_oracle, 1u + 3u)
      << "1 filter call + vertex 0 against each old member";

  PreparedWorkspace fresh;
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, "low-id promotion");
}

TEST(WorkspaceUpdate, SurvivorPieceIsRebuiltWhenItsOnlyLinkToThePeelDies) {
  // Path a-b-c at k=1 in one component. Removing edge b-c peels c (degree
  // 0) while b survives — and the removed edge was b's only connection to
  // the peeled vertex, so the neighbors-of-peeled seeding alone would miss
  // b's piece and {a, b} would silently vanish from the workspace.
  auto grouped = test::MakeGrouped(3, {{0, 1}, {1, 2}}, {0, 0, 0});
  SimilarityOracle oracle = grouped.MakeOracle();
  PipelineOptions prep;
  prep.k = 1;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(grouped.graph, oracle, prep, &ws).ok());
  ASSERT_EQ(ws.components.size(), 1u);

  WorkspaceUpdater updater(grouped.graph, oracle, &ws);
  EdgeSet edges(grouped.graph);
  std::vector<EdgeUpdate> cut = {EdgeUpdate::Remove(1, 2)};
  edges.Apply(cut[0]);
  UpdateReport report;
  ASSERT_TRUE(updater.ApplyEdgeUpdates(cut, UpdateOptions{}, &report).ok());
  ASSERT_EQ(ws.components.size(), 1u);
  EXPECT_EQ(ws.components[0].to_parent, (std::vector<VertexId>{0, 1}));
  PreparedWorkspace fresh;
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, "survivor piece");
}

TEST(WorkspaceUpdate, ChurnOutsideTheCoreReusesEveryComponent) {
  // Edges whose far endpoint never enters the core cannot change any
  // component (components hold core vertices only, and rows depend only on
  // the vertex set) — such updates must be pure metadata: no rebuild, no
  // oracle pair sweeps, every component reused verbatim.
  auto grouped = test::MakeGrouped(
      6, {{0, 1}, {1, 2}, {0, 2}, {0, 3}}, {0, 0, 0, 0, 0, 0});
  SimilarityOracle oracle = grouped.MakeOracle();
  PipelineOptions prep;
  prep.k = 2;  // 2-core = triangle {0,1,2}; 3,4,5 outside
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(grouped.graph, oracle, prep, &ws).ok());
  ASSERT_EQ(ws.components.size(), 1u);

  WorkspaceUpdater updater(grouped.graph, oracle, &ws);
  EdgeSet edges(grouped.graph);
  // Insert core->outsider (3 keeps degree 2 < ... needs 2 more core links
  // to promote; a single edge to 4 leaves both non-core) and churn among
  // outsiders; then remove the pendant 0-3 edge (core->never-core).
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(3, 4),
                                   EdgeUpdate::Insert(4, 5),
                                   EdgeUpdate::Remove(0, 3)};
  edges.Apply(std::span<const EdgeUpdate>(batch));
  UpdateReport report;
  ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, UpdateOptions{}, &report).ok());
  EXPECT_EQ(report.components_rebuilt, 0u);
  EXPECT_EQ(report.components_reused, 1u);
  EXPECT_EQ(report.rows_rebuilt, 0u);
  EXPECT_EQ(report.vertices_peeled, 0u);
  EXPECT_EQ(report.vertices_promoted, 0u);
  PreparedWorkspace fresh;
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, "outside churn");
}

TEST(WorkspaceUpdate, OneShotWrapperMatchesUpdaterAndMaximumAgrees) {
  auto dataset = test::MakeRandomGeo(100, 600, 13);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  PipelineOptions prep;
  prep.k = 3;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  EdgeSet edges(dataset.graph);
  Rng rng(77);
  std::vector<EdgeUpdate> batch = RandomBatch(edges, 8, 8, &rng);
  for (const auto& upd : batch) edges.Apply(upd);

  ASSERT_TRUE(ApplyEdgeUpdates(dataset.graph, oracle, batch, UpdateOptions{},
                               &ws, nullptr)
                  .ok());
  Graph updated = edges.Build();
  auto maintained_max = FindMaximumCore(ws.components, AdvMaxOptions(3));
  auto cold_max = FindMaximumCore(updated, oracle, AdvMaxOptions(3));
  ASSERT_TRUE(maintained_max.status.ok());
  ASSERT_TRUE(cold_max.status.ok());
  EXPECT_EQ(maintained_max.best, cold_max.best);
}

// --- Transactional rollback: a fault injected at any abort poll leaves the
// workspace bit-identical and the updater fully usable. ---------------------

class UpdateRollback : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::DisableAll(); }
  void TearDown() override { Failpoints::DisableAll(); }
};

/// Arms `site` once, applies a randomized batch expecting the injected
/// Internal, asserts bit-identical rollback, then — failpoint drained —
/// re-applies the *same batch through the same updater* and checks the
/// committed result against a cold re-preparation. The second half is the
/// sharp edge: it proves the updater's internal mirrors (sim_adj_, in_core_,
/// comp_of_, scratch flags) rolled back too, not just the workspace.
void RunRollbackCase(const char* site, double max_dirty_fraction,
                     uint64_t seed) {
  auto dataset = test::MakeRandomGeo(120, 700, seed);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  PipelineOptions prep;
  prep.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  const PreparedWorkspace before = ws;

  WorkspaceUpdater updater(dataset.graph, oracle, &ws);
  EdgeSet edges(dataset.graph);
  Rng rng(seed * 31 + 7);
  std::vector<EdgeUpdate> batch = RandomBatch(edges, 10, 10, &rng);

  UpdateOptions options;
  options.max_dirty_fraction = max_dirty_fraction;

  Failpoints::Enable(site, FailpointSpec::Once());
  UpdateReport report;
  Status s = updater.ApplyEdgeUpdates(batch, options, &report);
  // `once` on a site a small batch may not reach would silently pass; the
  // fired counter distinguishes "rolled back correctly" from "never hit".
  ASSERT_EQ(Failpoints::StatsFor(site).fired, 1u)
      << site << " never fired for this batch shape";
  ASSERT_EQ(s.code(), StatusCode::kInternal) << site << ": " << s.ToString();
  EXPECT_EQ(test::DiffWorkspaces(before, ws), "") << site;
  EXPECT_EQ(report.rolled_back_batches, 1u) << site;
  EXPECT_EQ(report.updates_applied, 0u) << site;
  EXPECT_EQ(updater.cumulative().rolled_back_batches, 1u) << site;

  Failpoints::DisableAll();
  for (const auto& upd : batch) edges.Apply(upd);
  ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, options, &report).ok()) << site;
  EXPECT_EQ(ws.version, before.version + 1) << site;
  EXPECT_EQ(report.rolled_back_batches, 0u) << site;

  PreparedWorkspace fresh;
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, site);
}

TEST_F(UpdateRollback, ReplayFault) {
  RunRollbackCase("update/replay", 0.35, 41);
}

TEST_F(UpdateRollback, RepairFault) {
  RunRollbackCase("update/repair", 0.35, 42);
}

TEST_F(UpdateRollback, RebuildComponentFault) {
  RunRollbackCase("update/rebuild_component", 0.35, 43);
}

TEST_F(UpdateRollback, FallbackResweepFault) {
  // max_dirty_fraction = 0 forces every rebuilt component through the
  // fallback pair re-sweep, so its abort poll is guaranteed to be reached.
  RunRollbackCase("update/fallback_resweep", 0.0, 44);
}

TEST_F(UpdateRollback, BeforeCommitFault) {
  RunRollbackCase("update/before_commit", 0.35, 45);
}

TEST_F(UpdateRollback, JoinPairsFaultInsideTheFallbackRollsBack) {
  // The fault fires *inside* the join engine the fallback delegates to (at
  // its operation-count poll), not at an updater poll — the abort must
  // still surface as a clean Internal and roll back. every:1 instead of
  // once: the join is chunked and more than one chunk may poll.
  auto dataset = test::MakeRandomGeo(120, 700, 46);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  PipelineOptions prep;
  prep.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  const PreparedWorkspace before = ws;

  WorkspaceUpdater updater(dataset.graph, oracle, &ws);
  EdgeSet edges(dataset.graph);
  Rng rng(461);
  std::vector<EdgeUpdate> batch = RandomBatch(edges, 10, 10, &rng);

  UpdateOptions options;
  options.max_dirty_fraction = 0.0;  // force the fallback join
  Failpoints::Enable("join/self_join", FailpointSpec::EveryNth(1));
  Status s = updater.ApplyEdgeUpdates(batch, options, nullptr);
  Failpoints::DisableAll();
  ASSERT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_NE(s.message().find("fallback resweep"), std::string::npos)
      << s.ToString();
  EXPECT_EQ(test::DiffWorkspaces(before, ws), "");

  for (const auto& upd : batch) edges.Apply(upd);
  ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, options, nullptr).ok());
  PreparedWorkspace fresh;
  ASSERT_TRUE(PrepareWorkspace(edges.Build(), oracle, prep, &fresh).ok());
  ExpectStructurallyIdentical(ws, fresh, "join fault recovery");
}

TEST_F(UpdateRollback, RolledBackBatchesAccumulateAcrossFaults) {
  auto dataset = test::MakeRandomGeo(90, 450, 47);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  PipelineOptions prep;
  prep.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  const PreparedWorkspace before = ws;

  WorkspaceUpdater updater(dataset.graph, oracle, &ws);
  EdgeSet edges(dataset.graph);
  Rng rng(471);
  std::vector<EdgeUpdate> batch = RandomBatch(edges, 8, 8, &rng);

  for (int i = 0; i < 3; ++i) {
    Failpoints::Enable("update/replay", FailpointSpec::Once());
    EXPECT_FALSE(updater.ApplyEdgeUpdates(batch, UpdateOptions{}, nullptr)
                     .ok());
  }
  EXPECT_EQ(updater.cumulative().rolled_back_batches, 3u);
  EXPECT_EQ(test::DiffWorkspaces(before, ws), "");
  EXPECT_EQ(ws.version, before.version);
}

// --- DiffWorkspaces: the comparator behind the equivalence tests ---------

/// Rebuilds `c`'s dissimilarity index pair by pair. Each stored pair
/// {u, v} (u < v) passes through `edit(reserve, u, &v, &score)`, which may
/// move its far endpoint or change its score (reserve pairs only; active
/// pairs carry none).
template <typename Edit>
DissimilarityIndex RebuildIndex(const ComponentContext& c, Edit edit) {
  DissimilarityIndex::Builder builder(c.size());
  for (VertexId u = 0; u < c.size(); ++u) {
    for (VertexId v : c.dissimilar[u]) {
      if (v < u) continue;
      double no_score = 0.0;
      edit(/*reserve=*/false, u, &v, &no_score);
      builder.AddPair(u, v);
    }
    auto reserve = c.dissimilar.reserve_row(u);
    auto reserve_scores = c.dissimilar.reserve_scores(u);
    for (size_t i = 0; i < reserve.size(); ++i) {
      if (reserve[i] < u) continue;
      VertexId v = reserve[i];
      double score = reserve_scores[i];
      edit(/*reserve=*/true, u, &v, &score);
      builder.AddReservePair(u, v, score);
    }
  }
  return builder.Build();
}

/// Component `c`'s structure edges {u, v} with u < v.
std::vector<std::pair<VertexId, VertexId>> ComponentEdges(
    const ComponentContext& c) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < c.size(); ++u) {
    for (VertexId v : c.graph.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  return edges;
}

/// Every equivalence test above trusts DiffWorkspaces to see a difference.
/// Perturb one field of a prepared, scored workspace at a time and check
/// that the diff is non-empty and names that field.
TEST(DiffWorkspaces, NamesEachPerturbedField) {
  auto dataset = test::MakeRandomGeo(140, 900, 17);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  PipelineOptions prep;
  prep.k = 3;
  prep.score_cover = 0.25;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  ASSERT_FALSE(ws.components.empty());
  const ComponentContext& c0 = ws.components[0];

  // The rebuild itself is faithful, so each case below changes one thing.
  {
    PreparedWorkspace copy = ws;
    copy.components[0].dissimilar =
        RebuildIndex(c0, [](bool, VertexId, VertexId*, double*) {});
    ASSERT_EQ(test::DiffWorkspaces(ws, copy), "");
  }
  {
    PreparedWorkspace copy = ws;
    ++copy.version;
    EXPECT_EQ(test::DiffWorkspaces(ws, copy), "version differs (0 vs 1)");
  }
  {
    PreparedWorkspace copy = ws;
    std::vector<VertexId> parents(c0.to_parent.begin(), c0.to_parent.end());
    ++parents.back();
    copy.components[0].to_parent = std::move(parents);
    EXPECT_EQ(test::DiffWorkspaces(ws, copy), "component 0: to_parent differs");
  }

  // Adjacency: drop one edge, then move it instead (same edge count).
  std::vector<std::pair<VertexId, VertexId>> edges = ComponentEdges(c0);
  ASSERT_FALSE(edges.empty());
  {
    PreparedWorkspace copy = ws;
    std::vector<std::pair<VertexId, VertexId>> fewer(edges.begin() + 1,
                                                     edges.end());
    copy.components[0].graph = MakeGraph(c0.size(), fewer);
    EXPECT_EQ(test::DiffWorkspaces(ws, copy),
              "component 0: edge count differs");
  }
  {
    // edges[0] = {0, v}; move it to {0, w} for some w not adjacent to 0.
    ASSERT_EQ(edges[0].first, 0u);
    auto row = c0.graph.neighbors(0);
    VertexId w = 1;
    while (w < c0.size() && std::binary_search(row.begin(), row.end(), w)) {
      ++w;
    }
    ASSERT_LT(w, c0.size()) << "vertex 0 is adjacent to every vertex";
    PreparedWorkspace copy = ws;
    std::vector<std::pair<VertexId, VertexId>> moved = edges;
    moved[0].second = w;
    copy.components[0].graph = MakeGraph(c0.size(), moved);
    EXPECT_EQ(test::DiffWorkspaces(ws, copy),
              "component 0 vertex 0: adjacency differs");
  }

  // Dissimilarity: move one active pair {u, v} to {u, w}. u is the first
  // row holding a pair v > u.
  VertexId u = 0;
  while (u < c0.size() &&
         (c0.dissimilar[u].empty() || c0.dissimilar[u].back() < u)) {
    ++u;
  }
  ASSERT_LT(u, c0.size()) << "component 0 has no dissimilar pair";
  const VertexId v = c0.dissimilar[u].back();
  const auto reserve = c0.dissimilar.reserve_row(u);
  VertexId w = u + 1;
  while (w < c0.size() && (c0.dissimilar.Dissimilar(u, w) ||
                           std::ranges::find(reserve, w) != reserve.end())) {
    ++w;
  }
  ASSERT_LT(w, c0.size()) << "row " << u << " has no free slot above it";
  const std::string at = "component 0 vertex " + std::to_string(u);
  {
    PreparedWorkspace copy = ws;
    copy.components[0].dissimilar =
        RebuildIndex(c0, [&](bool reserve, VertexId a, VertexId* b, double*) {
          if (!reserve && a == u && *b == v) *b = w;
        });
    EXPECT_EQ(test::DiffWorkspaces(ws, copy), at + ": dissimilar row differs");
  }

  // Reserve: flip the first reserve pair's score {x, y} (x < y) by one ULP.
  VertexId x = 0;
  while (x < c0.size() && (c0.dissimilar.reserve_row(x).empty() ||
                           c0.dissimilar.reserve_row(x).back() < x)) {
    ++x;
  }
  ASSERT_LT(x, c0.size()) << "component 0 has no reserve pair";
  {
    PreparedWorkspace copy = ws;
    copy.components[0].dissimilar =
        RebuildIndex(c0, [&](bool reserve, VertexId a, VertexId*, double* s) {
          if (reserve && a == x) {
            *s = std::nextafter(*s, std::numeric_limits<double>::infinity());
          }
        });
    EXPECT_EQ(test::DiffWorkspaces(ws, copy),
              "component 0 vertex " + std::to_string(x) +
                  ": reserve scores differ");
  }
}

}  // namespace
}  // namespace krcore
