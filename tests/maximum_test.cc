#include <gtest/gtest.h>

#include <algorithm>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/naive_enum.h"
#include "core/verify.h"
#include "test_helpers.h"

namespace krcore {
namespace {

using test::MakeGrouped;

size_t NaiveMaximumSize(const Graph& g, const SimilarityOracle& oracle,
                        uint32_t k) {
  auto naive = EnumerateMaximalCoresNaive(g, oracle, k);
  EXPECT_TRUE(naive.status.ok());
  size_t best = 0;
  for (const auto& c : naive.cores) best = std::max(best, c.size());
  return best;
}

TEST(Maximum, PicksLargerOfTwoGroups) {
  // Group A: K4; group B: K5 — maximum (2,r)-core is B.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) edges.emplace_back(u, v);
  }
  for (VertexId u = 4; u < 9; ++u) {
    for (VertexId v = u + 1; v < 9; ++v) edges.emplace_back(u, v);
  }
  edges.emplace_back(3, 4);  // similar-blocked bridge
  auto fixture =
      MakeGrouped(9, edges, {0, 0, 0, 0, 1, 1, 1, 1, 1});
  auto oracle = fixture.MakeOracle();
  auto result = FindMaximumCore(fixture.graph, oracle, AdvMaxOptions(2));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.best, (VertexSet{4, 5, 6, 7, 8}));
  // The maximum search runs no maximal check, so no core survived one.
  EXPECT_EQ(result.stats.maximal_check_calls, 0u);
  EXPECT_EQ(result.stats.maximal_found, 0u);
}

TEST(Maximum, EmptyWhenNoCore) {
  auto fixture = MakeGrouped(4, {{0, 1}, {1, 2}, {2, 3}}, {0, 0, 0, 0});
  auto oracle = fixture.MakeOracle();
  auto result = FindMaximumCore(fixture.graph, oracle, AdvMaxOptions(2));
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.best.empty());
}

TEST(Maximum, DeadlinePropagates) {
  auto dataset = test::MakeRandomGeo(40, 200, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.8);
  MaxOptions opts = AdvMaxOptions(2);
  opts.deadline = Deadline::AfterSeconds(-1.0);
  auto result = FindMaximumCore(dataset.graph, oracle, opts);
  EXPECT_TRUE(result.status.IsDeadlineExceeded());
}

struct MaxSweepParam {
  uint64_t seed;
  bool geo;
  uint32_t k;
  double r;
};

class MaxOracleSweep : public ::testing::TestWithParam<MaxSweepParam> {};

TEST_P(MaxOracleSweep, AllBoundsAndOrdersMatchNaive) {
  const auto& p = GetParam();
  Dataset dataset = p.geo ? test::MakeRandomGeo(18, 60, p.seed)
                          : test::MakeRandomKeyword(18, 60, p.seed);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, p.r);
  size_t expected = NaiveMaximumSize(dataset.graph, oracle, p.k);

  for (SizeBoundKind bound :
       {SizeBoundKind::kNaive, SizeBoundKind::kColor, SizeBoundKind::kKcore,
        SizeBoundKind::kColorPlusKcore, SizeBoundKind::kDoubleKcore}) {
    MaxOptions opts;
    opts.k = p.k;
    opts.bound = bound;
    auto result = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.best.size(), expected)
        << "bound " << SizeBoundName(bound) << " seed=" << p.seed
        << " k=" << p.k << " r=" << p.r;
    if (!result.best.empty()) {
      std::string why;
      EXPECT_TRUE(IsKrCore(dataset.graph, oracle, p.k, result.best, &why))
          << why;
    }
  }

  for (VertexOrder order :
       {VertexOrder::kRandom, VertexOrder::kDegree, VertexOrder::kDelta1,
        VertexOrder::kDelta2, VertexOrder::kDelta1ThenDelta2,
        VertexOrder::kLambdaCombo}) {
    MaxOptions opts;
    opts.k = p.k;
    opts.order = order;
    auto result = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.best.size(), expected)
        << "order " << VertexOrderName(order);
  }

  for (BranchOrder branch : {BranchOrder::kAdaptive, BranchOrder::kExpandFirst,
                             BranchOrder::kShrinkFirst}) {
    MaxOptions opts;
    opts.k = p.k;
    opts.branch_order = branch;
    auto result = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(result.status.ok());
    EXPECT_EQ(result.best.size(), expected)
        << "branch order " << BranchOrderName(branch);
  }
}

std::vector<MaxSweepParam> MakeMaxSweep() {
  std::vector<MaxSweepParam> params;
  for (uint64_t seed = 0; seed < 5; ++seed) {
    for (bool geo : {true, false}) {
      for (uint32_t k : {2u, 3u}) {
        double r = geo ? 0.5 : 0.2;
        params.push_back({seed, geo, k, r});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, MaxOracleSweep,
                         ::testing::ValuesIn(MakeMaxSweep()));

TEST(Maximum, MatchesLargestEnumeratedCore) {
  // On larger instances, cross-validate against AdvEnum instead of naive.
  for (uint64_t seed : {31u, 32u, 33u}) {
    auto dataset = test::MakeRandomGeo(60, 250, seed);
    SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
    auto enum_result =
        EnumerateMaximalCores(dataset.graph, oracle, AdvEnumOptions(3));
    ASSERT_TRUE(enum_result.status.ok());
    size_t expected = 0;
    for (const auto& c : enum_result.cores) {
      expected = std::max(expected, c.size());
    }
    auto max_result = FindMaximumCore(dataset.graph, oracle, AdvMaxOptions(3));
    ASSERT_TRUE(max_result.status.ok());
    EXPECT_EQ(max_result.best.size(), expected) << "seed " << seed;
  }
}

TEST(Maximum, TighterBoundPrunesMore) {
  auto dataset = test::MakeRandomGeo(70, 320, 41);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  MaxOptions naive_opts = BasicMaxOptions(3);
  MaxOptions adv_opts = AdvMaxOptions(3);
  auto naive = FindMaximumCore(dataset.graph, oracle, naive_opts);
  auto adv = FindMaximumCore(dataset.graph, oracle, adv_opts);
  ASSERT_TRUE(naive.status.ok());
  ASSERT_TRUE(adv.status.ok());
  EXPECT_EQ(naive.best.size(), adv.best.size());
  EXPECT_LE(adv.stats.search_nodes, naive.stats.search_nodes);
}

}  // namespace
}  // namespace krcore
