// Cross-kernel differential test: every search variant must return the same
// cores and maximum size with SearchContext forced onto the dense bitset
// kernel and onto the sparse counter kernel, and on one thread both kernels
// must walk the identical search tree (equal node and branch counters).
// NaiveEnum and the clique method, which share no search code, are the
// oracles on the small inputs. Every input is generated from a logged seed.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <iterator>
#include <string>
#include <vector>

#include "core/clique_method.h"
#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/naive_enum.h"
#include "core/pipeline.h"
#include "core/verify.h"
#include "search_context_test_peer.h"
#include "test_helpers.h"

namespace krcore {
namespace {

using test::Kernel;
using test::ScopedKernel;

constexpr Kernel kKernels[] = {Kernel::kDense, Kernel::kSparse};
constexpr VertexOrder kOrders[] = {
    VertexOrder::kRandom,           VertexOrder::kDegree,
    VertexOrder::kDelta1,           VertexOrder::kDelta2,
    VertexOrder::kDelta1ThenDelta2, VertexOrder::kLambdaCombo};
/// The conflict-vertex orders of the smart maximal check (AdvEnum only).
constexpr VertexOrder kCheckOrders[] = {VertexOrder::kDegree,
                                        VertexOrder::kDelta1ThenDelta2,
                                        VertexOrder::kLambdaCombo};
constexpr SizeBoundKind kBounds[] = {
    SizeBoundKind::kNaive, SizeBoundKind::kColor, SizeBoundKind::kKcore,
    SizeBoundKind::kColorPlusKcore, SizeBoundKind::kDoubleKcore};
constexpr uint32_t kSplitDepths[] = {0, 6};
constexpr uint32_t kThreads[] = {1, 2};

/// The counters that describe the search tree; two runs with equal counters
/// made the same decisions at every node.
struct TreeCounter {
  const char* name;
  uint64_t MiningStats::*field;
};
constexpr TreeCounter kTreeCounters[] = {
    {"search_nodes", &MiningStats::search_nodes},
    {"expand_branches", &MiningStats::expand_branches},
    {"shrink_branches", &MiningStats::shrink_branches},
    {"emitted_candidates", &MiningStats::emitted_candidates},
    {"early_terminations", &MiningStats::early_terminations},
    {"promotions", &MiningStats::promotions},
    {"maximal_check_calls", &MiningStats::maximal_check_calls},
    {"maximal_check_nodes", &MiningStats::maximal_check_nodes},
    {"bound_prunes", &MiningStats::bound_prunes},
    {"bound_naive_prunes", &MiningStats::bound_naive_prunes},
    {"bound_cache_hits", &MiningStats::bound_cache_hits},
    {"bound_expensive_prunes", &MiningStats::bound_expensive_prunes},
    {"bound_recomputes", &MiningStats::bound_recomputes},
};
constexpr size_t kNumTreeCounters = std::size(kTreeCounters);

void ExpectSameTree(const MiningStats& a, const MiningStats& b,
                    const std::string& what) {
  for (const TreeCounter& c : kTreeCounters) {
    EXPECT_EQ(a.*c.field, b.*c.field) << what << " " << c.name;
  }
}

/// Runs every enumeration and maximum variant under both kernels on one
/// input. `expected` holds the oracle's maximal cores, or is empty to take
/// the first run's cores as the reference. BasicEnum (no retention, so it
/// branches down to C == ∅) runs only on small inputs.
void RunAllVariants(const Graph& g, const SimilarityOracle& oracle,
                    uint32_t k, std::vector<VertexSet> expected,
                    bool have_expected, bool with_basic_enum) {
  struct EnumVariant {
    const char* name;
    EnumOptions options;
  };
  std::vector<EnumVariant> enum_variants = {{"AdvEnum", AdvEnumOptions(k)}};
  if (with_basic_enum) {
    enum_variants.push_back({"BasicEnum", BasicEnumOptions(k)});
  }
  for (const EnumVariant& variant : enum_variants) {
    const bool checks = variant.options.use_smart_maximal_check;
    for (VertexOrder order : kOrders) {
      for (VertexOrder check_order : kCheckOrders) {
        // Without the smart check its order is never read: run it once.
        if (!checks && check_order != variant.options.maximal_check_order) {
          continue;
        }
        for (uint32_t split : kSplitDepths) {
          for (uint32_t threads : kThreads) {
            EnumOptions opts = variant.options;
            opts.order = order;
            opts.maximal_check_order = check_order;
            opts.parallel.split_depth = split;
            opts.parallel.num_threads = threads;
            const std::string what =
                std::string(variant.name) + " order=" + VertexOrderName(order) +
                " check_order=" + VertexOrderName(check_order) +
                " split=" + std::to_string(split) +
                " threads=" + std::to_string(threads);
            MiningStats per_kernel[2];
            for (int i = 0; i < 2; ++i) {
              ScopedKernel forced(kKernels[i]);
              MaximalCoresResult result =
                  EnumerateMaximalCores(g, oracle, opts);
              ASSERT_TRUE(result.status.ok()) << what;
              if (!have_expected) {
                expected = result.cores;
                have_expected = true;
              }
              EXPECT_EQ(result.cores, expected)
                  << what << " kernel=" << test::KernelName(kKernels[i]);
              per_kernel[i] = result.stats;
            }
            if (threads == 1) {
              ExpectSameTree(per_kernel[0], per_kernel[1], what);
            }
          }
        }
      }
    }
  }

  size_t max_size = 0;
  for (const VertexSet& core : expected) {
    max_size = std::max(max_size, core.size());
  }
  for (VertexOrder order : kOrders) {
    for (SizeBoundKind bound : kBounds) {
      for (uint32_t split : kSplitDepths) {
        for (uint32_t threads : kThreads) {
          MaxOptions opts = AdvMaxOptions(k);
          opts.order = order;
          opts.bound = bound;
          opts.parallel.split_depth = split;
          opts.parallel.num_threads = threads;
          const std::string what =
              std::string("AdvMax order=") + VertexOrderName(order) +
              " bound=" + SizeBoundName(bound) +
              " split=" + std::to_string(split) +
              " threads=" + std::to_string(threads);
          MaximumCoreResult per_kernel[2];
          for (int i = 0; i < 2; ++i) {
            ScopedKernel forced(kKernels[i]);
            per_kernel[i] = FindMaximumCore(g, oracle, opts);
            const MaximumCoreResult& result = per_kernel[i];
            ASSERT_TRUE(result.status.ok()) << what;
            EXPECT_EQ(result.best.size(), max_size)
                << what << " kernel=" << test::KernelName(kKernels[i]);
            if (!result.best.empty()) {
              std::string why;
              EXPECT_TRUE(IsKrCore(g, oracle, k, result.best, &why))
                  << what << ": " << why;
            }
          }
          if (threads == 1) {
            EXPECT_EQ(per_kernel[0].best, per_kernel[1].best) << what;
            ExpectSameTree(per_kernel[0].stats, per_kernel[1].stats, what);
          }
        }
      }
    }
  }
}

struct SmallInput {
  uint64_t seed;
  bool geo;
};

class KernelDifferential : public ::testing::TestWithParam<SmallInput> {};

TEST_P(KernelDifferential, SmallRandomGraphsAgreeWithOracles) {
  const SmallInput& p = GetParam();
  // Every parameter derives from the seed, so a failure replays from the
  // logged value alone.
  Rng rng(p.seed);
  const uint32_t n = 16 + static_cast<uint32_t>(rng.NextBounded(7));
  const uint32_t m = 3 * n + static_cast<uint32_t>(rng.NextBounded(3 * n));
  const uint32_t k = 2 + static_cast<uint32_t>(rng.NextBounded(2));
  const double r = p.geo ? 0.35 + 0.5 * rng.NextDouble()
                         : 0.1 + 0.25 * rng.NextDouble();
  Dataset dataset = p.geo ? test::MakeRandomGeo(n, m, p.seed)
                          : test::MakeRandomKeyword(n, m, p.seed);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
  SCOPED_TRACE("seed=" + std::to_string(p.seed) + " geo=" +
               std::to_string(p.geo) + " n=" + std::to_string(n) +
               " m=" + std::to_string(m) + " k=" + std::to_string(k) +
               " r=" + std::to_string(r));

  MaximalCoresResult naive =
      EnumerateMaximalCoresNaive(dataset.graph, oracle, k);
  ASSERT_TRUE(naive.status.ok()) << naive.status.ToString();
  CliqueMethodOptions clique_opts;
  clique_opts.k = k;
  MaximalCoresResult clique =
      EnumerateByCliqueMethod(dataset.graph, oracle, clique_opts);
  ASSERT_TRUE(clique.status.ok()) << clique.status.ToString();
  EXPECT_EQ(clique.cores, naive.cores);

  RunAllVariants(dataset.graph, oracle, k, naive.cores,
                 /*have_expected=*/true, /*with_basic_enum=*/true);
}

std::vector<SmallInput> MakeSmallInputs() {
  std::vector<SmallInput> inputs;
  for (uint64_t seed = 9000; seed < 9012; ++seed) {
    inputs.push_back({seed, /*geo=*/seed % 2 == 0});
  }
  return inputs;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelDifferential,
                         ::testing::ValuesIn(MakeSmallInputs()));

TEST(KernelDifferential, ComponentAboveDenseLimit) {
  // One component larger than the dense kernel's limit: by default it runs
  // sparse, and forcing it dense must not change a thing.
  const uint64_t seed = 9100;
  const uint32_t k = 4;
  const double r = 1.2;
  Dataset dataset = test::MakeRandomGeo(300, 2400, seed);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
  SCOPED_TRACE("seed=" + std::to_string(seed));

  PipelineOptions prep;
  prep.k = k;
  std::vector<ComponentContext> comps;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, prep, &comps).ok());
  VertexId largest = 0;
  for (const ComponentContext& comp : comps) {
    largest = std::max(largest, comp.size());
  }
  ASSERT_GT(largest, SearchContext::kDenseVertexLimit);

  RunAllVariants(dataset.graph, oracle, k, {}, /*have_expected=*/false,
                 /*with_basic_enum=*/false);
}

/// The search tree of each paper variant on one fixed input, recorded on one
/// thread: a refactor of the search drivers must reproduce every counter.
/// (The dense/sparse comparisons above only show the two kernels agree with
/// each other, not that either kept its tree.)
TEST(KernelDifferential, PinnedSearchTrees) {
  const uint64_t seed = 9201;
  const uint32_t k = 3;
  Dataset dataset = test::MakeRandomGeo(90, 450, seed);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.63);

  struct Pinned {
    const char* variant;
    std::array<uint64_t, kNumTreeCounters> counters;
  };
  const Pinned kExpected[] = {
      {"AdvEnum", {251, 198, 198, 49, 3, 11, 49, 54, 0, 0, 0, 0, 0}},
      {"BasicEnum", {82540, 68678, 68678, 13861, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"AdvMax", {339, 194, 194, 1, 5, 90, 0, 0, 139, 54, 1, 84, 90}},
      {"BasicMax", {654, 409, 409, 1, 22, 154, 0, 0, 222, 222, 0, 0, 0}},
  };
  std::vector<MiningStats> runs;
  for (const EnumOptions& opts : {AdvEnumOptions(k), BasicEnumOptions(k)}) {
    MaximalCoresResult result = EnumerateMaximalCores(dataset.graph, oracle,
                                                      opts);
    ASSERT_TRUE(result.status.ok());
    runs.push_back(result.stats);
  }
  for (const MaxOptions& opts : {AdvMaxOptions(k), BasicMaxOptions(k)}) {
    MaximumCoreResult result = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(result.status.ok());
    runs.push_back(result.stats);
  }
  for (size_t v = 0; v < runs.size(); ++v) {
    for (size_t c = 0; c < kNumTreeCounters; ++c) {
      EXPECT_EQ(runs[v].*kTreeCounters[c].field, kExpected[v].counters[c])
          << kExpected[v].variant << " " << kTreeCounters[c].name;
    }
  }
}

}  // namespace
}  // namespace krcore
