// Case-study analogue of the paper's Figure 6 (Gowalla): find geographically
// coherent friend groups. A k-core of the friendship graph may span multiple
// cities; adding the distance constraint r splits it into per-city maximal
// (k,r)-cores.
//
// Usage: geosocial_groups [--n=8000] [--k=10] [--r_km=10] [--seed=1]

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "datasets/generators.h"
#include "kcore/core_decomposition.h"
#include "util/options.h"

using namespace krcore;

namespace {

struct Centroid {
  double x = 0.0, y = 0.0, spread = 0.0;
};

Centroid CoreCentroid(const Dataset& d, const VertexSet& core) {
  Centroid c;
  for (VertexId u : core) {
    c.x += d.attributes.point(u).x;
    c.y += d.attributes.point(u).y;
  }
  c.x /= core.size();
  c.y /= core.size();
  for (VertexId u : core) {
    double dx = d.attributes.point(u).x - c.x;
    double dy = d.attributes.point(u).y - c.y;
    c.spread += std::sqrt(dx * dx + dy * dy);
  }
  c.spread /= core.size();
  return c;
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  uint32_t n = options.GetUint32("n", 8000);
  uint32_t k = options.GetUint32("k", 10);
  double r_km = options.GetDouble("r_km", 10.0);
  uint64_t seed = options.GetInt("seed", 1);
  options.RejectUnknown();

  GeoSocialConfig config;
  config.num_vertices = n;
  config.average_degree = 6.0;
  config.seed = seed;
  Dataset gowalla = MakeGeoSocial(config, "gowalla-analogue");
  std::printf("dataset: %s\n", gowalla.StatsString().c_str());

  auto kcore = KCoreVertices(gowalla.graph, k);
  std::printf("plain %u-core spans %zu users\n", k, kcore.size());

  SimilarityOracle oracle = gowalla.MakeOracle(r_km);
  EnumOptions opts = AdvEnumOptions(k);
  opts.deadline = Deadline::AfterSeconds(60.0);
  auto result = EnumerateMaximalCores(gowalla.graph, oracle, opts);
  std::printf("status: %s\n", result.status.ToString().c_str());
  std::printf("maximal (%u, %.0fkm)-cores: %zu\n", k, r_km,
              result.cores.size());

  auto cores = result.cores;
  std::sort(cores.begin(), cores.end(),
            [](const VertexSet& a, const VertexSet& b) {
              return a.size() > b.size();
            });
  std::printf("largest groups (location centroid, avg spread):\n");
  for (size_t i = 0; i < std::min<size_t>(5, cores.size()); ++i) {
    Centroid c = CoreCentroid(gowalla, cores[i]);
    std::printf("  #%zu: %4zu users around (%6.0f, %6.0f) km, spread %.1f km\n",
                i + 1, cores[i].size(), c.x, c.y, c.spread);
  }

  MaxOptions mopts = AdvMaxOptions(k);
  mopts.deadline = Deadline::AfterSeconds(60.0);
  auto maximum = FindMaximumCore(gowalla.graph, oracle, mopts);
  if (!maximum.best.empty()) {
    Centroid c = CoreCentroid(gowalla, maximum.best);
    std::printf("maximum core: %zu users around (%.0f, %.0f) km — the "
                "analogue of the paper's Austin cluster\n",
                maximum.best.size(), c.x, c.y);
  } else {
    std::printf("no (%u, %.0fkm)-core exists\n", k, r_km);
  }
  return 0;
}
