// Case-study analogue of the paper's Figure 5 (DBLP): mine research groups
// from a co-authorship network where collaboration alone (k-core) lumps
// unrelated fields together, but (k,r)-cores split them into venues-coherent
// groups.
//
// Usage: coauthor_communities [--n=8000] [--k=10] [--permille=3] [--seed=2]

#include <algorithm>
#include <cstdio>
#include <map>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "datasets/generators.h"
#include "kcore/core_decomposition.h"
#include "similarity/threshold.h"
#include "util/options.h"

using namespace krcore;

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  uint32_t n = options.GetUint32("n", 8000);
  uint32_t k = options.GetUint32("k", 10);
  double permille = options.GetDouble("permille", 3.0);
  uint64_t seed = options.GetInt("seed", 2);
  options.RejectUnknown();
  if (Status s = CheckPermille(permille); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 1;
  }

  CoAuthorConfig config;
  config.num_vertices = n;
  config.seed = seed;
  Dataset dblp = MakeCoAuthor(config, "dblp-analogue");
  std::printf("dataset: %s\n", dblp.StatsString().c_str());

  // Calibrate the paper-style "top x permille" similarity threshold.
  SimilarityOracle probe = dblp.MakeOracle(0.0);
  double r = TopPermilleThreshold(probe, n, permille);
  std::printf("top %.1f permille weighted-Jaccard threshold: r = %.4f\n",
              permille, r);
  SimilarityOracle oracle = dblp.MakeOracle(r);

  // Baseline view: how large is the plain k-core (engagement only)?
  auto kcore = KCoreVertices(dblp.graph, k);
  std::printf("plain %u-core (no similarity): %zu authors\n", k,
              kcore.size());

  // (k,r)-cores: collaboration + topical coherence.
  EnumOptions opts = AdvEnumOptions(k);
  opts.deadline = Deadline::AfterSeconds(60.0);
  auto result = EnumerateMaximalCores(dblp.graph, oracle, opts);
  std::printf("status: %s\n", result.status.ToString().c_str());
  std::printf("maximal (%u,r)-cores: %zu\n", k, result.cores.size());

  std::map<size_t, int> size_histogram;
  for (const auto& core : result.cores) ++size_histogram[core.size()];
  std::printf("size distribution:\n");
  for (auto [size, count] : size_histogram) {
    std::printf("  %4zu members x %d group(s)\n", size, count);
  }

  // Show the three largest groups with their dominant venues.
  auto cores = result.cores;
  std::sort(cores.begin(), cores.end(),
            [](const VertexSet& a, const VertexSet& b) {
              return a.size() > b.size();
            });
  for (size_t i = 0; i < std::min<size_t>(3, cores.size()); ++i) {
    const auto& core = cores[i];
    std::map<uint32_t, double> venue_weight;
    for (VertexId author : core) {
      const SparseVector& vec = dblp.attributes.vector(author);
      for (size_t t = 0; t < vec.terms().size(); ++t) {
        venue_weight[vec.terms()[t]] += vec.weights()[t];
      }
    }
    std::vector<std::pair<double, uint32_t>> ranked;
    for (auto [venue, weight] : venue_weight) ranked.emplace_back(weight, venue);
    std::sort(ranked.rbegin(), ranked.rend());
    std::printf("group #%zu: %zu authors; top venues:", i + 1, core.size());
    for (size_t v = 0; v < std::min<size_t>(4, ranked.size()); ++v) {
      std::printf(" v%u(%.0f)", ranked[v].second, ranked[v].first);
    }
    std::printf("\n");
  }

  // The maximum (k,r)-core — the paper's Figure 5(b) analogue.
  MaxOptions mopts = AdvMaxOptions(k);
  mopts.deadline = Deadline::AfterSeconds(60.0);
  auto maximum = FindMaximumCore(dblp.graph, oracle, mopts);
  std::printf("maximum (%u,r)-core: %zu authors (%llu search nodes)\n", k,
              maximum.best.size(),
              (unsigned long long)maximum.stats.search_nodes);
  return 0;
}
