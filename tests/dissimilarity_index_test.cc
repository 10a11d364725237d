#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/dissimilarity_index.h"
#include "core/pipeline.h"
#include "test_helpers.h"
#include "util/random.h"

namespace krcore {
namespace {

TEST(DissimilarityIndex, EmptyIndex) {
  DissimilarityIndex::Builder builder(5);
  DissimilarityIndex index = builder.Build();
  EXPECT_EQ(index.num_vertices(), 5u);
  EXPECT_EQ(index.num_pairs(), 0u);
  EXPECT_TRUE(index.empty());
  for (VertexId u = 0; u < 5; ++u) {
    EXPECT_EQ(index.degree(u), 0u);
    EXPECT_TRUE(index[u].empty());
    for (VertexId v = 0; v < 5; ++v) EXPECT_FALSE(index.Dissimilar(u, v));
  }
}

TEST(DissimilarityIndex, RowsAreSortedAndSymmetric) {
  // Pairs added in arbitrary order and direction.
  DissimilarityIndex index =
      test::MakeDissimilarity(6, {{4, 1}, {0, 3}, {5, 0}, {1, 2}, {0, 1}});
  EXPECT_EQ(index.num_pairs(), 5u);
  EXPECT_EQ(index.degree(0), 3u);
  auto row0 = index[0];
  EXPECT_TRUE(std::is_sorted(row0.begin(), row0.end()));
  EXPECT_EQ(std::vector<VertexId>(row0.begin(), row0.end()),
            (std::vector<VertexId>{1, 3, 5}));
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v : index[u]) {
      EXPECT_TRUE(index.Dissimilar(u, v));
      EXPECT_TRUE(index.Dissimilar(v, u)) << u << " " << v;
    }
  }
  EXPECT_FALSE(index.Dissimilar(2, 3));
  EXPECT_FALSE(index.Dissimilar(0, 0));
}

TEST(DissimilarityIndex, MemoryBytesTracksContent) {
  DissimilarityIndex empty = test::MakeDissimilarity(10, {});
  DissimilarityIndex loaded =
      test::MakeDissimilarity(10, {{0, 1}, {2, 3}, {4, 5}});
  EXPECT_GT(loaded.MemoryBytes(), 0u);
  EXPECT_GT(loaded.MemoryBytes(), empty.MemoryBytes() - 1);  // ids grew
}

/// Randomized cross-check: the index built by PrepareComponents must answer
/// Dissimilar(u, v) exactly like a direct SimilarityOracle evaluation on
/// the parent ids, for every pair, across random geo and keyword datasets.
class IndexOracleSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexOracleSweep, MatchesDirectOracleEvaluation) {
  for (bool geo : {true, false}) {
    Dataset dataset = geo ? test::MakeRandomGeo(60, 240, GetParam())
                          : test::MakeRandomKeyword(60, 240, GetParam());
    double r = geo ? 0.35 : 0.3;
    SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
    PipelineOptions opts;
    opts.k = 2;
    std::vector<ComponentContext> comps;
    ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &comps).ok());
    for (const auto& comp : comps) {
      const VertexId n = comp.size();
      for (VertexId a = 0; a < n; ++a) {
        for (VertexId b = 0; b < n; ++b) {
          bool expected =
              a != b &&
              !oracle.Similar(comp.to_parent[a], comp.to_parent[b]);
          EXPECT_EQ(comp.dissimilar.Dissimilar(a, b), expected)
              << "local pair (" << a << "," << b << ") geo=" << geo;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, IndexOracleSweep,
                         ::testing::Range<uint64_t>(0, 8));

/// Dissimilar(u, v) must match a truth table on random hand-built indexes
/// and on a 100-vertex star, whose center row (degree 99) is far longer
/// than its partners' rows (degree 1), so both probe orders are exercised.
TEST(DissimilarityIndex, DissimilarMatchesTruthTable) {
  Rng rng(1234);
  for (int round = 0; round <= 20; ++round) {
    const bool star = round == 20;
    const VertexId n =
        star ? 100 : 30 + static_cast<VertexId>(rng.NextBounded(170));
    std::vector<std::pair<VertexId, VertexId>> pairs;
    std::vector<std::vector<uint8_t>> truth(n, std::vector<uint8_t>(n, 0));
    const auto add = [&](VertexId a, VertexId b) {
      truth[a][b] = truth[b][a] = 1;
      pairs.emplace_back(a, b);
    };
    if (star) {
      for (VertexId v = 1; v < n; ++v) add(0, v);
    } else {
      const size_t want = rng.NextBounded(n * 4 + 1);
      while (pairs.size() < want) {
        VertexId a = static_cast<VertexId>(rng.NextBounded(n));
        VertexId b = static_cast<VertexId>(rng.NextBounded(n));
        if (a == b || truth[a][b]) continue;
        add(a, b);
      }
    }
    DissimilarityIndex index = test::MakeDissimilarity(n, pairs);
    for (VertexId a = 0; a < n; ++a) {
      for (VertexId b = 0; b < n; ++b) {
        EXPECT_EQ(index.Dissimilar(a, b), truth[a][b] != 0)
            << "(" << a << "," << b << ") round " << round;
      }
    }
  }
}

}  // namespace
}  // namespace krcore
