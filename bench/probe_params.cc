// Developer tool: probes a paper-analogue dataset at a given threshold and
// reports the degeneracy of the dissimilar-edge-filtered graph plus the
// component profile the (k,r)-core search would face. Used to pick bench
// parameter ranges that exercise the same regimes as the paper.
//
// Usage: probe_params --dataset=dblp [--scale=1.0] [--r_km=100 | --permille=3]
//                     [--k=5] [--run=enum|max [--variant=NAME]]

#include <algorithm>
#include <cstdio>

#include "bench_support/experiment.h"
#include "bench_support/variants.h"
#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/pipeline.h"
#include "graph/graph_builder.h"
#include "kcore/core_decomposition.h"
#include "similarity/threshold.h"
#include "util/options.h"

using namespace krcore;

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  // Own flags first: FromOptions refuses every flag not read by then.
  std::string name = options.GetString("dataset", "dblp");
  uint32_t k = options.GetUint32("k", 5);
  const double permille = options.GetDouble("permille", 3.0);
  const bool has_r_km = options.Has("r_km");
  const double r_km = options.GetDouble("r_km", 100.0);
  const std::string run = options.GetString("run", "");
  const std::string variant =
      options.GetString("variant", run == "max" ? "AdvMax" : "AdvEnum");
  auto env = ExperimentEnv::FromOptions(options);

  if (Status s = CheckPermille(permille); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 1;
  }

  const Dataset& d = GetDataset(name, env);
  std::printf("%s\n", d.StatsString().c_str());

  double r;
  if (has_r_km) {
    r = r_km;
  } else {
    r = ResolveThresholdPermille(d, permille);
    std::printf("top %.1f permille threshold -> r = %.4f\n", permille, r);
  }
  SimilarityOracle oracle = d.MakeOracle(r);

  // Filtered graph (dissimilar edges removed).
  GraphBuilder fb(d.graph.num_vertices());
  uint64_t kept = 0;
  for (VertexId u = 0; u < d.graph.num_vertices(); ++u) {
    for (VertexId v : d.graph.neighbors(u)) {
      if (u < v && oracle.Similar(u, v)) {
        fb.AddEdge(u, v);
        ++kept;
      }
    }
  }
  Graph filtered = fb.Build();
  std::printf("edges kept after similarity filter: %llu / %llu (%.1f%%)\n",
              (unsigned long long)kept, (unsigned long long)d.graph.num_edges(),
              100.0 * kept / std::max<uint64_t>(1, d.graph.num_edges()));
  std::printf("degeneracy of filtered graph: %u\n", Degeneracy(filtered));

  PipelineOptions popts;
  popts.k = k;
  popts.num_threads = env.threads;
  std::vector<ComponentContext> comps;
  PreprocessReport report;
  Status s = PrepareComponents(d.graph, oracle, popts, &comps, &report);
  std::printf("pipeline status: %s\n", s.ToString().c_str());
  if (!s.ok()) return 1;
  std::printf("preprocess: %s\n", report.ToJson().c_str());
  uint64_t total_vertices = 0, total_dis = 0;
  VertexId biggest = 0;
  for (const auto& c : comps) {
    total_vertices += c.size();
    total_dis += c.num_dissimilar_pairs();
    biggest = std::max(biggest, c.size());
  }
  std::printf("k=%u: %zu components, %llu vertices total, biggest=%u, "
              "dissimilar pairs=%llu\n",
              k, comps.size(), (unsigned long long)total_vertices, biggest,
              (unsigned long long)total_dis);

  // Optionally run an algorithm variant and dump its mining statistics.
  if (run == "enum") {
    EnumOptions eopts = MakeEnumVariant(variant, k, env.timeout_seconds);
    auto result = EnumerateMaximalCores(d.graph, oracle, eopts);
    std::printf("%s: %s, %zu cores\n  stats: %s\n", variant.c_str(),
                result.status.ToString().c_str(), result.cores.size(),
                result.stats.ToJson().c_str());
  } else if (run == "max") {
    MaxOptions mopts = MakeMaxVariant(variant, k, env.timeout_seconds);
    auto result = FindMaximumCore(d.graph, oracle, mopts);
    std::printf("%s: %s, |max|=%zu\n  stats: %s\n", variant.c_str(),
                result.status.ToString().c_str(), result.best.size(),
                result.stats.ToJson().c_str());
  }
  return 0;
}
