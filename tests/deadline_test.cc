// Deadline expiry on every stateful entry point: the sweep engine, both
// self-join strategies, workspace derivation, and — the transactional case —
// the incremental updater, whose expired batch must roll back to a
// bit-identical workspace. The per-algorithm deadline tests (enumerate,
// maximum, maximal check, clique, greedy seed) live with their algorithms;
// this file covers the orchestration layers on top.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "core/parameter_sweep.h"
#include "core/pipeline.h"
#include "core/workspace_update.h"
#include "similarity/join/self_join.h"
#include "test_helpers.h"
#include "util/timer.h"

namespace krcore {
namespace {

TEST(DeadlineEntryPoints, SweepEnumerateMode) {
  auto dataset = test::MakeRandomGeo(80, 400, 3);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  SweepGrid grid;
  grid.ks = {2, 3};
  grid.rs = {0.3, 0.4};
  SweepOptions opts;
  opts.mode = SweepMode::kEnumerate;
  opts.enumerate.deadline = Deadline::AfterSeconds(-1.0);
  SweepResult result = RunParameterSweep(dataset.graph, oracle, grid, opts);
  EXPECT_TRUE(result.status.IsDeadlineExceeded()) << result.status.ToString();
}

TEST(DeadlineEntryPoints, SweepMaximumMode) {
  auto dataset = test::MakeRandomGeo(80, 400, 3);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  SweepGrid grid;
  grid.ks = {2};
  grid.rs = {0.4};
  SweepOptions opts;
  opts.mode = SweepMode::kMaximum;
  opts.maximum.deadline = Deadline::AfterSeconds(-1.0);
  SweepResult result = RunParameterSweep(dataset.graph, oracle, grid, opts);
  EXPECT_TRUE(result.status.IsDeadlineExceeded()) << result.status.ToString();
}

TEST(DeadlineEntryPoints, BothJoinStrategiesAbortThePairSweep) {
  auto dataset = test::MakeRandomGeo(120, 600, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  // The preparation runs the filtered join.
  PipelineOptions opts;
  opts.k = 2;
  opts.deadline = Deadline::AfterSeconds(-1.0);
  std::vector<ComponentContext> components;
  Status s = PrepareComponents(dataset.graph, oracle, opts, &components);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();

  // The brute join, driven directly.
  std::vector<VertexId> members(dataset.graph.num_vertices());
  std::iota(members.begin(), members.end(), 0);
  SelfJoinOptions join;
  join.strategy = JoinStrategy::kBrute;
  join.deadline = Deadline::AfterSeconds(-1.0);
  DissimilarityIndex::Builder builder(members.size());
  std::atomic<bool> aborted{false};
  SelfJoinPairs(oracle, members, join, &aborted, &builder);
  EXPECT_TRUE(aborted.load());
}

TEST(DeadlineEntryPoints, UpdaterRollsBackTheExpiredBatch) {
  auto dataset = test::MakeRandomGeo(100, 500, 7);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions pipe;
  pipe.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, pipe, &ws).ok());
  ASSERT_FALSE(ws.components.empty());
  const PreparedWorkspace before = ws;

  WorkspaceUpdater updater(dataset.graph, oracle, &ws);
  std::vector<EdgeUpdate> batch;
  Rng rng(99);
  for (int i = 0; i < 12; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(100));
    VertexId v = static_cast<VertexId>(rng.NextBounded(100));
    if (u != v) batch.push_back(EdgeUpdate::Insert(u, v));
  }
  ASSERT_FALSE(batch.empty());

  UpdateOptions opts;
  opts.deadline = Deadline::AfterSeconds(-1.0);
  UpdateReport report;
  Status s = updater.ApplyEdgeUpdates(batch, opts, &report);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();

  // The contract under test: the workspace is bit-identical to its
  // pre-batch state, the version did not move, and the report shows
  // nothing but the rollback.
  EXPECT_EQ(test::DiffWorkspaces(before, ws), "");
  EXPECT_EQ(report.rolled_back_batches, 1u);
  EXPECT_EQ(report.updates_applied, 0u);
  EXPECT_EQ(report.sim_edges_added, 0u);
  EXPECT_EQ(updater.cumulative().rolled_back_batches, 1u);

  // The same updater stays usable: re-apply the identical batch with an
  // infinite deadline and it commits, bumping the version once.
  UpdateOptions ok_opts;
  ASSERT_TRUE(updater.ApplyEdgeUpdates(batch, ok_opts, &report).ok());
  EXPECT_EQ(ws.version, before.version + 1);
  EXPECT_EQ(report.rolled_back_batches, 0u);
}

TEST(DeadlineEntryPoints, UpdaterFallbackResweepHonorsTheDeadline) {
  // max_dirty_fraction = 0 forces every rebuilt component through the
  // fallback's scoped pair re-sweep, whose join engine polls the same batch
  // deadline — an expired one must abort through the rollback path, not
  // complete the sweep.
  auto dataset = test::MakeRandomGeo(100, 500, 8);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions pipe;
  pipe.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, pipe, &ws).ok());
  const PreparedWorkspace before = ws;

  WorkspaceUpdater updater(dataset.graph, oracle, &ws);
  std::vector<EdgeUpdate> batch;
  Rng rng(17);
  for (int i = 0; i < 12; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(100));
    VertexId v = static_cast<VertexId>(rng.NextBounded(100));
    if (u != v) batch.push_back(EdgeUpdate::Insert(u, v));
  }
  UpdateOptions opts;
  opts.max_dirty_fraction = 0.0;
  opts.deadline = Deadline::AfterSeconds(-1.0);
  Status s = updater.ApplyEdgeUpdates(batch, opts, nullptr);
  EXPECT_TRUE(s.IsDeadlineExceeded()) << s.ToString();
  EXPECT_EQ(test::DiffWorkspaces(before, ws), "");
}

TEST(DeadlineEntryPoints, ExpiredDeadlineAbortsBeforeTheFirstReplayStep) {
  // The abort poll sits at the top of the replay loop, so even a batch of
  // pure no-ops aborts under an already-expired deadline — before any
  // oracle call runs — and the version does not move. An *empty* batch has
  // no replay iterations at all and commits as a version-bump-only batch.
  auto dataset = test::MakeRandomGeo(60, 300, 9);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions pipe;
  pipe.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, pipe, &ws).ok());

  WorkspaceUpdater updater(dataset.graph, oracle, &ws);
  std::vector<EdgeUpdate> noop;
  auto edge0 = dataset.graph.neighbors(0);
  ASSERT_FALSE(edge0.empty());
  noop.push_back(EdgeUpdate::Insert(0, edge0[0]));

  UpdateOptions opts;
  opts.deadline = Deadline::AfterSeconds(-1.0);
  const uint64_t version_before = ws.version;
  EXPECT_TRUE(updater.ApplyEdgeUpdates(noop, opts, nullptr)
                  .IsDeadlineExceeded());
  EXPECT_EQ(ws.version, version_before);

  EXPECT_TRUE(
      updater.ApplyEdgeUpdates(std::span<const EdgeUpdate>{}, opts, nullptr)
          .ok());
  EXPECT_EQ(ws.version, version_before + 1);
}

}  // namespace
}  // namespace krcore
