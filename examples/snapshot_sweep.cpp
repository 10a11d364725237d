// Prepared-workspace workflow: run the expensive Algorithm 1 preprocessing
// once, persist it as a snapshot, then answer a whole (k,r) parameter sweep
// from the cached substrate — the "save once, sweep many" serving pattern.
//
// The demo builds a synthetic geo-social network, then shows the three
// stages the snapshot/sweep layer adds:
//   1. PrepareWorkspace + SaveWorkspaceSnapshot   (offline, once)
//   2. LoadWorkspaceSnapshot + mine               (online, no oracle needed)
//   3. SweepPreparedWorkspace over several k      (derivation, no pair sweep)

#include <cstdio>

#include "core/parameter_sweep.h"
#include "datasets/generators.h"
#include "snapshot/workspace_snapshot.h"

using namespace krcore;

int main() {
  // A mid-sized geo-social network: communities a few km wide, so a 25 km
  // threshold keeps communities intact and the k-core components large.
  GeoSocialConfig config;
  config.num_vertices = 4000;
  config.average_degree = 7.0;
  config.shape.num_communities = 6;
  config.city_sigma_km = 3.0;
  config.neighborhood_sigma_km = 1.0;
  Dataset dataset = MakeGeoSocial(config, "demo");
  SimilarityOracle oracle = dataset.MakeOracle(/*r=*/25.0);
  std::printf("%s\n", dataset.StatsString().c_str());

  // --- 1. Offline: prepare at the smallest k we ever expect to serve, and
  // persist the full substrate (component graphs + dissimilarity index).
  PipelineOptions pipe;
  pipe.k = 3;
  PreparedWorkspace workspace;
  PreprocessReport report;
  Status s =
      PrepareWorkspace(dataset.graph, oracle, pipe, &workspace, &report);
  if (!s.ok()) {
    std::printf("prepare failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("prepared k=%u r=%g: %s\n", workspace.k, workspace.threshold,
              report.ToJson().c_str());

  const char* path = "snapshot_sweep_demo.krws";
  s = SaveWorkspaceSnapshot(workspace, path);
  if (!s.ok()) {
    std::printf("save failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // --- 2. Online: a server loads the snapshot and mines without ever
  // touching the attribute table (the oracle is baked into the substrate).
  PreparedWorkspace loaded;
  s = LoadWorkspaceSnapshot(path, &loaded);
  if (!s.ok()) {
    std::printf("load failed: %s\n", s.ToString().c_str());
    return 1;
  }
  auto max_result = FindMaximumCore(loaded.components, AdvMaxOptions(3));
  std::printf("maximum (3, 25km)-core from the loaded snapshot: %zu users\n",
              max_result.best.size());

  // --- 3. Sweep: serve a whole k range from the one cached substrate.
  // k = 3 mines the loaded components directly; k > 3 peels the cached
  // components (k-core nesting) instead of re-running the pair sweep.
  SweepOptions sweep_options;
  sweep_options.mode = SweepMode::kEnumerate;
  sweep_options.enumerate = AdvEnumOptions(0);
  SweepResult sweep =
      SweepPreparedWorkspace(loaded, {3, 4, 5, 6}, sweep_options);
  for (const auto& cell : sweep.cells) {
    std::printf("  k=%u: %zu maximal cores (%s substrate, %.3fs)\n", cell.k,
                cell.enum_result.cores.size(),
                cell.derived ? "derived" : "cached", cell.stats(
                    SweepMode::kEnumerate).seconds);
  }
  std::printf("sweep: %llu pair sweeps, %llu derivations, %.3fs total\n",
              (unsigned long long)sweep.pair_sweeps,
              (unsigned long long)sweep.derived_cells, sweep.seconds);

  std::remove(path);
  return sweep.status.ok() ? 0 : 1;
}
