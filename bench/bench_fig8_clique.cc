// Regenerates Figure 8: the clique-based baseline (Clique+, Sec 3) versus
// BasicEnum.
//   (a) Gowalla, k=5, r in 2..10 km.
//   (b) DBLP, r = top 3 permille, k from 18 down to 10.
//
// Expected shape: BasicEnum outperforms Clique+ markedly — the similarity
// graph materializes a large number of cliques.
//
// Usage: bench_fig8_clique [--scale=] [--timeout=] [--quick] [--csv=]

#include <cstdio>
#include <vector>

#include "bench_support/experiment.h"
#include "bench_support/variants.h"
#include "core/clique_method.h"
#include "util/options.h"

using namespace krcore;

namespace {

void RunPoint(const Dataset& dataset, double r, uint32_t k,
              const std::string& x_label, const ExperimentEnv& env,
              FigureReport* report) {
  SimilarityOracle oracle = dataset.MakeOracle(r);

  CliqueMethodOptions copts;
  copts.k = k;
  copts.deadline = Deadline::AfterSeconds(env.timeout_seconds);
  auto clique_result = EnumerateByCliqueMethod(dataset.graph, oracle, copts);
  report->Add(MeasureEnum("Clique+", x_label, clique_result));

  EnumOptions bopts = MakeEnumVariant("BasicEnum", k, env.timeout_seconds);
  bopts.parallel.num_threads = env.threads;
  auto basic_result = EnumerateMaximalCores(dataset.graph, oracle, bopts);
  report->Add(MeasureEnum("BasicEnum", x_label, basic_result));

  std::printf("%-12s Clique+=%-10s BasicEnum=%-10s (#cores %llu / %llu)\n",
              x_label.c_str(),
              MeasureEnum("", "", clique_result).TimeString().c_str(),
              MeasureEnum("", "", basic_result).TimeString().c_str(),
              (unsigned long long)clique_result.cores.size(),
              (unsigned long long)basic_result.cores.size());
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  auto env = ExperimentEnv::FromOptions(options);

  FigureReport report_a("Fig8a", "Clique+ vs BasicEnum, Gowalla, k=5");
  {
    const Dataset& gowalla = GetDataset("gowalla", env);
    std::vector<double> rs = env.quick ? std::vector<double>{2, 6}
                                       : std::vector<double>{2, 4, 6, 8, 10};
    std::printf("--- Fig 8(a): Gowalla, k=5 ---\n");
    for (double r : rs) {
      char label[32];
      std::snprintf(label, sizeof(label), "r=%gkm", r);
      RunPoint(gowalla, r, 5, label, env, &report_a);
    }
    report_a.Finish(env);
  }

  FigureReport report_b("Fig8b", "Clique+ vs BasicEnum, DBLP, r=top3permille");
  {
    const Dataset& dblp = GetDataset("dblp", env);
    double r = ResolveThresholdPermille(dblp, 3.0);
    std::vector<uint32_t> ks = env.quick
                                   ? std::vector<uint32_t>{18, 14}
                                   : std::vector<uint32_t>{18, 16, 14, 12, 10};
    std::printf("--- Fig 8(b): DBLP, r=top 3 permille (%.4f) ---\n", r);
    for (uint32_t k : ks) {
      char label[32];
      std::snprintf(label, sizeof(label), "k=%u", k);
      RunPoint(dblp, r, k, label, env, &report_b);
    }
    report_b.Finish(env);
  }
  return 0;
}
