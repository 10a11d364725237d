// Cross-kernel differential test: every search variant must return the same
// cores and maximum size with SearchContext forced onto the dense bitset
// kernel and onto the sparse counter kernel, and on one thread both kernels
// must walk the identical search tree (equal node and branch counters).
// NaiveEnum and the clique method, which share no search code, are the
// oracles on the small inputs. Every input is generated from a logged seed.

#include <gtest/gtest.h>

#include <algorithm>
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
void ExpectSameTree(const MiningStats& a, const MiningStats& b,
                    const std::string& what) {
  EXPECT_EQ(a.search_nodes, b.search_nodes) << what;
  EXPECT_EQ(a.expand_branches, b.expand_branches) << what;
  EXPECT_EQ(a.shrink_branches, b.shrink_branches) << what;
  EXPECT_EQ(a.emitted_candidates, b.emitted_candidates) << what;
  EXPECT_EQ(a.early_terminations, b.early_terminations) << what;
  EXPECT_EQ(a.bound_prunes, b.bound_prunes) << what;
  EXPECT_EQ(a.bound_recomputes, b.bound_recomputes) << what;
  EXPECT_EQ(a.promotions, b.promotions) << what;
  EXPECT_EQ(a.retained_skips, b.retained_skips) << what;
  EXPECT_EQ(a.maximal_check_calls, b.maximal_check_calls) << what;
  EXPECT_EQ(a.maximal_check_nodes, b.maximal_check_nodes) << what;
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

}  // namespace
}  // namespace krcore
