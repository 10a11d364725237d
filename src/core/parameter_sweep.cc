#include "core/parameter_sweep.h"

#include <algorithm>
#include <memory>
#include <string>

#include "core/parallel.h"
#include "util/timer.h"

namespace krcore {
namespace {

/// The PipelineOptions the sweep's shared preparation runs with: the same
/// ones the cold mining entry points build.
PipelineOptions BasePipelineOptions(const SweepOptions& options, uint32_t k) {
  return options.mode == SweepMode::kEnumerate
             ? MiningPipelineOptions(options.enumerate, k)
             : MiningPipelineOptions(options.maximum, k);
}

/// Mines one cell on components already extracted at (k, r). `derive`
/// describes the cell-specific substrate work (zero for the base cell,
/// whose shared pair sweep is accounted at the sweep level instead).
struct DeriveInfo {
  bool derived = false;
  bool r_restricted = false;
  uint64_t score_filtered_pairs = 0;
  double seconds = 0.0;
};

void MineCell(const std::vector<ComponentContext>& components, uint32_t k,
              double r, const DeriveInfo& derive, const SweepOptions& options,
              SweepCellResult* out) {
  out->k = k;
  out->r = r;
  out->derived = derive.derived;
  out->r_restricted = derive.r_restricted;
  if (options.mode == SweepMode::kEnumerate) {
    EnumOptions cell = options.enumerate;
    cell.k = k;
    out->enum_result = EnumerateMaximalCores(components, cell);
  } else {
    MaxOptions cell = options.maximum;
    cell.k = k;
    out->max_result = FindMaximumCore(components, cell);
  }
  MiningStats& stats = options.mode == SweepMode::kEnumerate
                           ? out->enum_result.stats
                           : out->max_result.stats;
  stats.prepare_derivations = derive.derived ? 1 : 0;
  stats.derive_r_restrictions = derive.r_restricted ? 1 : 0;
  stats.score_filtered_pairs = derive.score_filtered_pairs;
  stats.prepare_seconds = derive.seconds;
  stats.seconds += derive.seconds;
}

/// Marks a whole cell failed (substrate never materialized).
void FailCell(uint32_t k, double r, const Status& status,
              const SweepOptions& options, SweepCellResult* out) {
  out->k = k;
  out->r = r;
  if (options.mode == SweepMode::kEnumerate) {
    out->enum_result.status = status;
  } else {
    out->max_result.status = status;
  }
}

/// Runs one cell whose substrate comes from `base`: the cell matching the
/// base identity mines the cached components in place; any other derives
/// its own (task-local) workspace first — a k-core re-peel, plus a score
/// filter when the cell's r is stricter than the base threshold.
void RunReusedCell(const PreparedWorkspace& base, uint32_t k, double r,
                   const SweepOptions& options, SweepCellResult* out) {
  if (k == base.k && r == base.threshold) {
    MineCell(base.components, k, r, DeriveInfo{}, options, out);
    return;
  }
  Timer timer;
  PreparedWorkspace derived;
  PreprocessReport report;
  Status s = DeriveWorkspace(base, k, r, BasePipelineOptions(options, k),
                             &derived, &report);
  if (!s.ok()) {
    FailCell(k, r, s, options, out);
    return;
  }
  DeriveInfo info;
  info.derived = true;
  info.r_restricted = r != base.threshold;
  info.score_filtered_pairs = report.score_filtered_pairs;
  info.seconds = timer.ElapsedSeconds();
  MineCell(derived.components, k, r, info, options, out);
}

/// Prepared-base grid sweep shared by the public entry points: mines one
/// cell per (r outer, k inner) grid point into cells_out. With `pool`
/// non-null the cells run as tasks (base is read-only and outlives the
/// pool's Wait()).
void SweepCells(const PreparedWorkspace& base,
                const std::vector<uint32_t>& ks,
                const std::vector<double>& rs, const SweepOptions& options,
                SweepCellResult* cells_out, TaskPool* pool) {
  size_t idx = 0;
  for (double r : rs) {
    for (uint32_t k : ks) {
      SweepCellResult* out = &cells_out[idx++];
      if (pool != nullptr) {
        const PreparedWorkspace* base_ptr = &base;
        const SweepOptions* opts = &options;
        pool->Submit([base_ptr, k, r, opts, out] {
          RunReusedCell(*base_ptr, k, r, *opts, out);
        });
      } else {
        RunReusedCell(base, k, r, options, out);
      }
    }
  }
}

/// Folds per-cell stats into the sweep-level accounting.
void FinishResult(const SweepOptions& options, Timer* timer,
                  SweepResult* result) {
  for (const auto& cell : result->cells) {
    const MiningStats& stats = cell.stats(options.mode);
    if (cell.derived) ++result->derived_cells;
    result->pair_sweeps += stats.prepare_pair_sweeps;
    result->prepare_seconds += stats.prepare_seconds;
    if (result->status.ok() && !cell.status(options.mode).ok()) {
      result->status = cell.status(options.mode);
    }
  }
  result->seconds = timer->ElapsedSeconds();
}

}  // namespace

SweepResult RunParameterSweep(const Graph& g, const SimilarityOracle& oracle,
                              const SweepGrid& grid,
                              const SweepOptions& options) {
  SweepResult result;
  Timer timer;
  if (grid.ks.empty() || grid.rs.empty()) {
    result.status =
        Status::InvalidArgument("sweep grid needs at least one k and one r");
    return result;
  }
  const uint32_t k_min = *std::min_element(grid.ks.begin(), grid.ks.end());
  if (k_min == 0) {
    // Rejected for the whole grid in both reuse modes: with reuse the base
    // would be prepared at k_min and fail, poisoning every cell, while cold
    // mode would fail only the k=0 cells — an inconsistency the boundary
    // tests lock out.
    result.status = Status::InvalidArgument(
        "sweep grid contains k = 0; k must be a positive integer");
    return result;
  }
  result.cells.resize(grid.num_cells());
  const uint32_t threads = options.parallel.Resolve();

  if (!options.reuse_preprocessing) {
    // Baseline: every cell pays its own full Algorithm 1 pass. Kept
    // sequential per r group on the shared pool, exactly as before.
    auto RunColdGroup = [&](size_t ri) {
      SweepCellResult* cells = &result.cells[ri * grid.ks.size()];
      const double r = grid.rs[ri];
      SimilarityOracle cell_oracle = oracle.WithThreshold(r);
      for (size_t i = 0; i < grid.ks.size(); ++i) {
        const uint32_t k = grid.ks[i];
        SweepCellResult* out = &cells[i];
        out->k = k;
        out->r = r;
        if (options.mode == SweepMode::kEnumerate) {
          EnumOptions cell = options.enumerate;
          cell.k = k;
          out->enum_result = EnumerateMaximalCores(g, cell_oracle, cell);
        } else {
          MaxOptions cell = options.maximum;
          cell.k = k;
          out->max_result = FindMaximumCore(g, cell_oracle, cell);
        }
      }
    };
    if (threads <= 1) {
      for (size_t ri = 0; ri < grid.rs.size(); ++ri) RunColdGroup(ri);
    } else {
      TaskPool pool(threads);
      for (size_t ri = 0; ri < grid.rs.size(); ++ri) {
        pool.Submit([&RunColdGroup, ri] { RunColdGroup(ri); });
      }
      pool.Wait();
    }
    FinishResult(options, &timer, &result);
    return result;
  }

  // One pair sweep for the whole grid: prepare at the loosest threshold
  // (largest filtered graph — every stricter cell's k-core nests inside it)
  // with the reserve rows covering the strictest, at the smallest k.
  // Every cell, including other base-r cells, is then a pure derivation.
  const bool is_distance = oracle.is_distance();
  const double r_serve = LoosestThreshold(grid.rs, is_distance);
  const double r_cover = StrictestThreshold(grid.rs, is_distance);
  Timer prepare_timer;
  SimilarityOracle base_oracle = oracle.WithThreshold(r_serve);
  PipelineOptions pipe = BasePipelineOptions(options, k_min);
  pipe.score_cover = r_cover;
  PreparedWorkspace base;
  Status base_status = PrepareWorkspace(g, base_oracle, pipe, &base);
  result.prepare_seconds = prepare_timer.ElapsedSeconds();
  if (!base_status.ok()) {
    size_t idx = 0;
    for (double r : grid.rs) {
      for (uint32_t k : grid.ks) {
        FailCell(k, r, base_status, options, &result.cells[idx++]);
      }
    }
    result.status = base_status;
    result.seconds = timer.ElapsedSeconds();
    return result;
  }
  result.pair_sweeps = 1;

  if (threads <= 1) {
    SweepCells(base, grid.ks, grid.rs, options, result.cells.data(), nullptr);
  } else {
    TaskPool pool(threads);
    SweepCells(base, grid.ks, grid.rs, options, result.cells.data(), &pool);
    pool.Wait();
  }
  FinishResult(options, &timer, &result);
  return result;
}

SweepResult SweepPreparedWorkspace(const PreparedWorkspace& base,
                                   const std::vector<uint32_t>& ks,
                                   const std::vector<double>& rs,
                                   const SweepOptions& options) {
  SweepResult result;
  Timer timer;
  if (ks.empty() || rs.empty()) {
    result.status =
        Status::InvalidArgument("sweep needs at least one k and one r");
    return result;
  }
  for (uint32_t k : ks) {
    if (k < base.k) {
      result.status = Status::InvalidArgument(
          "k=" + std::to_string(k) + " is below the workspace's k=" +
          std::to_string(base.k) + "; a prepared substrate only serves "
          "k' >= k (k-core nesting)");
      return result;
    }
  }
  for (double r : rs) {
    if (!base.Serves(base.k, r)) {
      result.status = Status::InvalidArgument(
          "r=" + std::to_string(r) + " is outside the workspace's serving "
          "range " + base.ServingRange());
      return result;
    }
  }
  result.cells.resize(ks.size() * rs.size());

  const uint32_t threads = options.parallel.Resolve();
  if (threads <= 1) {
    SweepCells(base, ks, rs, options, result.cells.data(), nullptr);
  } else {
    TaskPool pool(threads);
    SweepCells(base, ks, rs, options, result.cells.data(), &pool);
    pool.Wait();
  }
  FinishResult(options, &timer, &result);
  return result;
}

SweepResult SweepPreparedWorkspace(const PreparedWorkspace& base,
                                   const std::vector<uint32_t>& ks,
                                   const SweepOptions& options) {
  return SweepPreparedWorkspace(base, ks, {base.threshold}, options);
}

}  // namespace krcore
