#include "core/parameter_sweep.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "test_helpers.h"

namespace krcore {
namespace {

/// Sorted parent-id vertex sets of a workspace's components — the layout-
/// independent identity the derivation tests compare on.
std::vector<std::vector<VertexId>> ComponentSets(
    const std::vector<ComponentContext>& comps) {
  std::vector<std::vector<VertexId>> sets;
  for (const auto& c : comps) {
    std::vector<VertexId> parents(c.to_parent.begin(), c.to_parent.end());
    std::sort(parents.begin(), parents.end());
    sets.push_back(std::move(parents));
  }
  std::sort(sets.begin(), sets.end());
  return sets;
}

TEST(DeriveWorkspace, MatchesFreshPreparationAtHigherK) {
  auto dataset = test::MakeRandomGeo(160, 1100, 17);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);

  PipelineOptions base_opts;
  base_opts.k = 2;
  PreparedWorkspace base;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, base_opts, &base).ok());

  for (uint32_t k : {3u, 4u, 5u}) {
    PipelineOptions fresh_opts;
    fresh_opts.k = k;
    PreparedWorkspace fresh;
    ASSERT_TRUE(
        PrepareWorkspace(dataset.graph, oracle, fresh_opts, &fresh).ok());

    PreparedWorkspace derived;
    PreprocessReport report;
    ASSERT_TRUE(
        DeriveWorkspace(base, k, fresh_opts, &derived, &report).ok());
    EXPECT_EQ(derived.k, k);
    EXPECT_DOUBLE_EQ(derived.threshold, base.threshold);
    EXPECT_EQ(report.pairs_evaluated, 0u) << "derivation must not re-sweep";

    EXPECT_EQ(ComponentSets(fresh.components),
              ComponentSets(derived.components))
        << "k=" << k;
    // Dissimilar-pair totals must match too: the restriction of the cached
    // rows has to reproduce exactly what a fresh oracle sweep finds.
    uint64_t fresh_pairs = 0, derived_pairs = 0;
    for (const auto& c : fresh.components) {
      fresh_pairs += c.num_dissimilar_pairs();
    }
    for (const auto& c : derived.components) {
      derived_pairs += c.num_dissimilar_pairs();
    }
    EXPECT_EQ(fresh_pairs, derived_pairs) << "k=" << k;
  }
}

TEST(DeriveWorkspace, LowerKIsRejected) {
  auto dataset = test::MakeRandomGeo(60, 300, 2);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  PipelineOptions opts;
  opts.k = 4;
  PreparedWorkspace base, out;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &base).ok());
  EXPECT_TRUE(DeriveWorkspace(base, 3, opts, &out).IsInvalidArgument());
}

TEST(DeriveWorkspace, SameKReproducesBase) {
  auto dataset = test::MakeRandomGeo(90, 500, 23);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  PipelineOptions opts;
  opts.k = 3;
  PreparedWorkspace base, rederived;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &base).ok());
  ASSERT_TRUE(DeriveWorkspace(base, 3, opts, &rederived).ok());
  EXPECT_EQ(ComponentSets(base.components),
            ComponentSets(rederived.components));
}

TEST(ParameterSweep, EnumCellsMatchColdRuns) {
  auto dataset = test::MakeRandomGeo(130, 800, 31);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.3);

  SweepGrid grid;
  grid.ks = {2, 3, 4};
  grid.rs = {0.25, 0.4};
  SweepOptions options;
  options.mode = SweepMode::kEnumerate;
  options.enumerate = AdvEnumOptions(0);

  SweepResult sweep = RunParameterSweep(dataset.graph, oracle, grid, options);
  ASSERT_TRUE(sweep.status.ok());
  ASSERT_EQ(sweep.cells.size(), 6u);
  EXPECT_EQ(sweep.pair_sweeps, 1u) << "one sweep for the whole grid";
  EXPECT_EQ(sweep.derived_cells, 5u)
      << "every cell but the (k_min, loosest r) base derives";

  size_t idx = 0;
  for (double r : grid.rs) {
    for (uint32_t k : grid.ks) {
      const SweepCellResult& cell = sweep.cells[idx++];
      EXPECT_EQ(cell.k, k);
      EXPECT_DOUBLE_EQ(cell.r, r);
      auto cold = EnumerateMaximalCores(dataset.graph,
                                        oracle.WithThreshold(r),
                                        AdvEnumOptions(k));
      ASSERT_TRUE(cold.status.ok());
      EXPECT_EQ(cold.cores, cell.enum_result.cores)
          << "cell (k=" << k << ", r=" << r << ")";
    }
  }

  // The per-r path must agree too: one unscored preparation at each r,
  // every k derived from it.
  idx = 0;
  for (double r : grid.rs) {
    PipelineOptions prep;
    prep.k = grid.ks.front();
    PreparedWorkspace base;
    ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle.WithThreshold(r), prep,
                                 &base)
                    .ok());
    SweepResult per_r = SweepPreparedWorkspace(base, grid.ks, options);
    ASSERT_TRUE(per_r.status.ok());
    ASSERT_EQ(per_r.cells.size(), grid.ks.size());
    for (const SweepCellResult& cell : per_r.cells) {
      EXPECT_EQ(cell.enum_result.cores, sweep.cells[idx++].enum_result.cores)
          << "per-r cell (k=" << cell.k << ", r=" << r << ")";
    }
  }
}

TEST(ParameterSweep, ReuseOffMatchesReuseOn) {
  auto dataset = test::MakeRandomKeyword(100, 600, 7);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);

  SweepGrid grid;
  grid.ks = {2, 3};
  grid.rs = {0.4, 0.6};
  SweepOptions on;
  on.mode = SweepMode::kEnumerate;
  on.enumerate = AdvEnumOptions(0);
  SweepOptions off = on;
  off.reuse_preprocessing = false;

  SweepResult warm = RunParameterSweep(dataset.graph, oracle, grid, on);
  SweepResult cold = RunParameterSweep(dataset.graph, oracle, grid, off);
  ASSERT_TRUE(warm.status.ok());
  ASSERT_TRUE(cold.status.ok());
  EXPECT_EQ(warm.pair_sweeps, 1u);
  EXPECT_EQ(cold.pair_sweeps, 4u);
  EXPECT_EQ(cold.derived_cells, 0u);
  ASSERT_EQ(warm.cells.size(), cold.cells.size());
  for (size_t i = 0; i < warm.cells.size(); ++i) {
    EXPECT_EQ(warm.cells[i].enum_result.cores, cold.cells[i].enum_result.cores)
        << "cell " << i;
  }
}

TEST(ParameterSweep, MaximumModeSizesMatchColdRuns) {
  auto dataset = test::MakeRandomGeo(110, 700, 41);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.3);

  SweepGrid grid;
  grid.ks = {2, 3};
  grid.rs = {0.3};
  SweepOptions options;
  options.mode = SweepMode::kMaximum;
  options.maximum = AdvMaxOptions(0);

  SweepResult sweep = RunParameterSweep(dataset.graph, oracle, grid, options);
  ASSERT_TRUE(sweep.status.ok());
  for (const SweepCellResult& cell : sweep.cells) {
    auto cold = FindMaximumCore(dataset.graph, oracle.WithThreshold(cell.r),
                                AdvMaxOptions(cell.k));
    ASSERT_TRUE(cold.status.ok());
    EXPECT_EQ(cold.best.size(), cell.max_result.best.size())
        << "cell (k=" << cell.k << ", r=" << cell.r << ")";
  }
}

TEST(ParameterSweep, ConcurrentCellsMatchSequential) {
  auto dataset = test::MakeRandomGeo(120, 750, 13);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);

  SweepGrid grid;
  grid.ks = {2, 3, 4};
  grid.rs = {0.3, 0.45};
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

TEST(ParameterSweep, ReportedSecondsNeverExceedMeasuredWallTime) {
  // Regression for the wall-time accounting: per-worker MiningStats merges
  // must not sum overlapping wall intervals, so no reported `seconds` —
  // per cell or sweep-wide — may exceed the externally measured wall time
  // of the whole call, even with concurrent cells.
  auto dataset = test::MakeRandomGeo(120, 750, 29);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);
  SweepGrid grid;
  grid.ks = {2, 3, 4};
  grid.rs = {0.3, 0.45};
  SweepOptions options;
  options.mode = SweepMode::kEnumerate;
  options.enumerate = AdvEnumOptions(0);
  options.enumerate.parallel.num_threads = 4;
  options.parallel.num_threads = 4;

  Timer wall;
  SweepResult sweep = RunParameterSweep(dataset.graph, oracle, grid, options);
  const double wall_seconds = wall.ElapsedSeconds();
  ASSERT_TRUE(sweep.status.ok());
  const double slack = 1e-3;  // timer granularity between the two clocks
  EXPECT_LE(sweep.seconds, wall_seconds + slack);
  for (const SweepCellResult& cell : sweep.cells) {
    const MiningStats& stats = cell.stats(options.mode);
    EXPECT_LE(stats.seconds, wall_seconds + slack)
        << "cell (k=" << cell.k << ", r=" << cell.r << ")";
    EXPECT_LE(stats.prepare_seconds, stats.seconds + slack);
  }
}

TEST(ParameterSweep, MergeFromTakesMaxOfWallClockFields) {
  MiningStats a, b;
  a.seconds = 2.0;
  a.prepare_seconds = 0.5;
  a.search_nodes = 10;
  b.seconds = 3.0;
  b.prepare_seconds = 0.25;
  b.search_nodes = 7;
  a.MergeFrom(b);
  EXPECT_DOUBLE_EQ(a.seconds, 3.0) << "overlapping workers: max, not sum";
  EXPECT_DOUBLE_EQ(a.prepare_seconds, 0.5);
  EXPECT_EQ(a.search_nodes, 17u) << "counters still sum";
}

TEST(ParameterSweep, GridWithZeroKIsRejectedConsistently) {
  // A k = 0 cell used to poison every cell in reuse mode (the shared base
  // preparation fails) while cold mode failed only that cell; both modes
  // now reject the grid up front.
  auto dataset = test::MakeRandomGeo(40, 160, 3);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  SweepGrid grid;
  grid.ks = {0, 2};
  grid.rs = {0.4};
  SweepOptions reuse;
  reuse.mode = SweepMode::kEnumerate;
  reuse.enumerate = AdvEnumOptions(0);
  SweepOptions cold = reuse;
  cold.reuse_preprocessing = false;
  EXPECT_TRUE(RunParameterSweep(dataset.graph, oracle, grid, reuse)
                  .status.IsInvalidArgument());
  EXPECT_TRUE(RunParameterSweep(dataset.graph, oracle, grid, cold)
                  .status.IsInvalidArgument());
}

TEST(ParameterSweep, EmptyGridIsRejected) {
  auto dataset = test::MakeRandomGeo(20, 60, 1);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  SweepGrid grid;  // no ks, no rs
  SweepOptions options;
  EXPECT_TRUE(RunParameterSweep(dataset.graph, oracle, grid, options)
                  .status.IsInvalidArgument());
}

TEST(ParameterSweep, SnapshotSweepServesHigherK) {
  auto dataset = test::MakeRandomGeo(140, 900, 19);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.35);

  PipelineOptions prep;
  prep.k = 2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());

  SweepOptions options;
  options.mode = SweepMode::kEnumerate;
  options.enumerate = AdvEnumOptions(0);
  SweepResult sweep = SweepPreparedWorkspace(ws, {2, 3, 4}, options);
  ASSERT_TRUE(sweep.status.ok());
  ASSERT_EQ(sweep.cells.size(), 3u);
  EXPECT_EQ(sweep.derived_cells, 2u);
  for (const SweepCellResult& cell : sweep.cells) {
    auto cold = EnumerateMaximalCores(dataset.graph, oracle,
                                      AdvEnumOptions(cell.k));
    EXPECT_EQ(cold.cores, cell.enum_result.cores) << "k=" << cell.k;
  }

  EXPECT_TRUE(SweepPreparedWorkspace(ws, {1}, options)
                  .status.IsInvalidArgument());
  EXPECT_TRUE(
      SweepPreparedWorkspace(ws, {}, options).status.IsInvalidArgument());
}

}  // namespace
}  // namespace krcore
