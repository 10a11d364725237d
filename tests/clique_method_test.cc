#include <gtest/gtest.h>

#include "core/clique_method.h"
#include "core/enumerate.h"
#include "core/naive_enum.h"
#include "test_helpers.h"

namespace krcore {
namespace {

TEST(CliqueMethod, MatchesAdvEnumOnFixture) {
  auto fixture = test::MakeGrouped(
      8,
      {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3},
       {4, 5}, {5, 6}, {6, 7}, {4, 7}, {4, 6}, {5, 7},
       {3, 4}, {2, 5}},
      {0, 0, 0, 0, 1, 1, 1, 1});
  auto oracle = fixture.MakeOracle();
  auto adv = EnumerateMaximalCores(fixture.graph, oracle, AdvEnumOptions(2));
  CliqueMethodOptions copts;
  copts.k = 2;
  auto clq = EnumerateByCliqueMethod(fixture.graph, oracle, copts);
  ASSERT_TRUE(adv.status.ok());
  ASSERT_TRUE(clq.status.ok());
  EXPECT_EQ(clq.cores, adv.cores);
}

class CliqueMethodSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CliqueMethodSweep, MatchesNaiveOracle) {
  for (bool geo : {true, false}) {
    Dataset dataset = geo ? test::MakeRandomGeo(18, 60, GetParam())
                          : test::MakeRandomKeyword(18, 60, GetParam());
    double r = geo ? 0.5 : 0.2;
    SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
    for (uint32_t k : {2u, 3u}) {
      auto naive = EnumerateMaximalCoresNaive(dataset.graph, oracle, k);
      ASSERT_TRUE(naive.status.ok());
      CliqueMethodOptions copts;
      copts.k = k;
      auto clq = EnumerateByCliqueMethod(dataset.graph, oracle, copts);
      ASSERT_TRUE(clq.status.ok());
      EXPECT_EQ(clq.cores, naive.cores)
          << "seed=" << GetParam() << " geo=" << geo << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CliqueMethodSweep,
                         ::testing::Range<uint64_t>(0, 8));

TEST(CliqueMethod, DeadlinePropagates) {
  auto dataset = test::MakeRandomGeo(50, 300, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.9);
  CliqueMethodOptions copts;
  copts.k = 2;
  copts.deadline = Deadline::AfterSeconds(-1.0);
  auto result = EnumerateByCliqueMethod(dataset.graph, oracle, copts);
  EXPECT_TRUE(result.status.IsDeadlineExceeded());
}

TEST(CliqueMethod, SimilarityGraphAbove64MPairsIsRefused) {
  // A ring of 12000 all-similar vertices is one k=2 component with about
  // 72M vertex pairs: materializing its similarity graph is refused.
  const VertexId n = 12000;
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(n);
  for (VertexId u = 0; u < n; ++u) edges.emplace_back(u, (u + 1) % n);
  auto fixture = test::MakeGrouped(n, edges, std::vector<uint32_t>(n, 0));
  auto oracle = fixture.MakeOracle();
  CliqueMethodOptions copts;
  copts.k = 2;
  auto result = EnumerateByCliqueMethod(fixture.graph, oracle, copts);
  EXPECT_TRUE(result.status.IsResourceExhausted());
  EXPECT_TRUE(result.cores.empty());
}

}  // namespace
}  // namespace krcore
