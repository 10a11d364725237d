#include "similarity/join/self_join.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "core/pipeline.h"
#include "similarity/join/pair_filter.h"
#include "test_helpers.h"
#include "util/random.h"

namespace krcore {
namespace {

/// Bitwise double equality — the exactness bar the join engine is
/// contracted on. Plain == would also accept -0.0 vs 0.0 and miss nothing
/// here, but the bit pattern states the invariant precisely.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

struct JoinOutcome {
  DissimilarityIndex index;
  JoinReport report;
  bool aborted = false;
};

/// Runs one self-join over the identity member set [0, n) and builds the
/// resulting index. NaN cover = the oracle's threshold (no reserve pairs).
JoinOutcome RunJoin(const SimilarityOracle& oracle, VertexId n,
                    JoinStrategy strategy,
                    double cover = std::numeric_limits<double>::quiet_NaN(),
                    uint32_t threads = 1,
                    VertexId tile_size = SelfJoinOptions{}.tile_size) {
  std::vector<VertexId> members(n);
  std::iota(members.begin(), members.end(), 0);
  DissimilarityIndex::Builder builder(n);
  SelfJoinOptions options;
  options.strategy = strategy;
  options.score_cover = cover;
  options.num_threads = threads;
  options.tile_size = tile_size;
  std::atomic<bool> aborted{false};
  JoinOutcome out;
  out.report = SelfJoinPairs(oracle, members, options, &aborted, &builder);
  out.aborted = aborted.load();
  if (!out.aborted) out.index = builder.Build();
  return out;
}

/// The differential bar: identical active rows, identical reserve rows with
/// bit-identical reserve scores.
void ExpectIndexIdentical(const DissimilarityIndex& a,
                          const DissimilarityIndex& b,
                          const std::string& where) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << where;
  ASSERT_EQ(a.num_pairs(), b.num_pairs()) << where;
  ASSERT_EQ(a.num_reserve_pairs(), b.num_reserve_pairs()) << where;
  for (VertexId u = 0; u < a.num_vertices(); ++u) {
    auto ar = a.row(u);
    auto br = b.row(u);
    ASSERT_TRUE(std::equal(ar.begin(), ar.end(), br.begin(), br.end()))
        << where << " active row " << u;
    auto arr = a.reserve_row(u);
    auto brr = b.reserve_row(u);
    ASSERT_TRUE(std::equal(arr.begin(), arr.end(), brr.begin(), brr.end()))
        << where << " reserve row " << u;
    auto ars = a.reserve_scores(u);
    auto brs = b.reserve_scores(u);
    ASSERT_EQ(ars.size(), brs.size()) << where;
    for (size_t i = 0; i < ars.size(); ++i) {
      ASSERT_TRUE(SameBits(ars[i], brs[i]))
          << where << " reserve score row " << u << " entry " << i;
    }
  }
}

/// Completed joins must satisfy the accounting identity for every strategy:
/// each of the n(n-1)/2 pairs is either pruned by a certificate or settled
/// by one oracle call.
void ExpectCounterInvariants(const JoinReport& r, uint64_t n,
                             const std::string& where) {
  EXPECT_EQ(r.total_pairs, n < 2 ? 0 : n * (n - 1) / 2) << where;
  EXPECT_EQ(r.pruned_pairs + r.oracle_calls, r.total_pairs) << where;
  EXPECT_GE(r.candidate_pairs, r.oracle_calls) << where;
}

std::vector<GeoPoint> RandomPoints(VertexId n, uint64_t seed) {
  Rng rng(seed);
  std::vector<GeoPoint> points(n);
  for (auto& p : points) p = {rng.NextDouble(), rng.NextDouble()};
  return points;
}

AttributeTable RandomSetTable(VertexId n, uint64_t seed, uint32_t universe,
                              uint32_t per_vertex) {
  Rng rng(seed);
  std::vector<SparseVector> vectors(n);
  for (auto& v : vectors) {
    std::vector<uint32_t> terms(per_vertex);
    for (auto& t : terms) t = static_cast<uint32_t>(rng.NextBounded(universe));
    v = SparseVector(std::move(terms));
  }
  return AttributeTable::ForVectors(std::move(vectors));
}

AttributeTable RandomWeightedTable(VertexId n, uint64_t seed,
                                   uint32_t universe, uint32_t per_vertex) {
  Rng rng(seed);
  std::vector<SparseVector> vectors(n);
  for (auto& v : vectors) {
    std::vector<uint32_t> terms(per_vertex);
    std::vector<double> weights(per_vertex);
    for (auto& t : terms) t = static_cast<uint32_t>(rng.NextBounded(universe));
    for (auto& w : weights) w = 0.1 + rng.NextDouble() * 4.0;
    v = SparseVector(std::move(terms), std::move(weights));
  }
  return AttributeTable::ForVectors(std::move(vectors));
}

void ExpectBruteAndFilteredIdentical(const SimilarityOracle& oracle,
                                     VertexId n, double cover,
                                     const std::string& where) {
  JoinOutcome brute = RunJoin(oracle, n, JoinStrategy::kBrute, cover);
  JoinOutcome filtered = RunJoin(oracle, n, JoinStrategy::kFiltered, cover);
  ASSERT_FALSE(brute.aborted) << where;
  ASSERT_FALSE(filtered.aborted) << where;
  EXPECT_FALSE(brute.report.filtered) << where;
  EXPECT_EQ(brute.report.oracle_calls, brute.report.total_pairs) << where;
  EXPECT_EQ(brute.report.pruned_pairs, 0u) << where;
  ExpectCounterInvariants(brute.report, n, where + " brute");
  ExpectCounterInvariants(filtered.report, n, where + " filtered");
  ExpectIndexIdentical(brute.index, filtered.index, where);
}

// ---------------------------------------------------------------------------
// Differential: filtered must reproduce brute bit for bit.
// ---------------------------------------------------------------------------

TEST(SelfJoin, GeoDifferentialUnannotated) {
  for (uint64_t seed : {1u, 7u, 42u}) {
    AttributeTable attrs = AttributeTable::ForGeo(RandomPoints(220, seed));
    for (double r : {0.02, 0.15, 0.5, 2.0}) {
      SimilarityOracle oracle(&attrs, Metric::kEuclideanDistance, r);
      ExpectBruteAndFilteredIdentical(
          oracle, 220, std::numeric_limits<double>::quiet_NaN(),
          "geo seed=" + std::to_string(seed) + " r=" + std::to_string(r));
      JoinOutcome filtered = RunJoin(oracle, 220, JoinStrategy::kFiltered);
      EXPECT_TRUE(filtered.report.filtered);
    }
  }
}

TEST(SelfJoin, GeoDifferentialAnnotated) {
  // Distance metric: serve is the loose threshold, cover the strict one
  // (cover < serve), and the reserve band holds cover < d <= serve.
  AttributeTable attrs = AttributeTable::ForGeo(RandomPoints(200, 99));
  SimilarityOracle oracle(&attrs, Metric::kEuclideanDistance, 0.35);
  ExpectBruteAndFilteredIdentical(oracle, 200, 0.1, "geo annotated");
  JoinOutcome filtered = RunJoin(oracle, 200, JoinStrategy::kFiltered, 0.1);
  // The grid filter supports annotated joins directly.
  EXPECT_TRUE(filtered.report.filtered);
  EXPECT_GT(filtered.index.num_reserve_pairs(), 0u);
}

TEST(SelfJoin, TokenDifferentialAllMetrics) {
  const VertexId n = 180;
  AttributeTable sets = RandomSetTable(n, 5, 40, 5);
  AttributeTable weighted = RandomWeightedTable(n, 6, 40, 6);
  struct Case {
    const AttributeTable* attrs;
    Metric metric;
  };
  const Case cases[] = {{&sets, Metric::kJaccard},
                        {&weighted, Metric::kWeightedJaccard},
                        {&weighted, Metric::kCosine}};
  for (const Case& c : cases) {
    for (double t : {0.2, 0.5, 0.85}) {
      SimilarityOracle oracle(c.attrs, c.metric, t);
      const std::string where =
          MetricName(c.metric) + " t=" + std::to_string(t);
      ExpectBruteAndFilteredIdentical(
          oracle, n, std::numeric_limits<double>::quiet_NaN(), where);
      JoinOutcome filtered = RunJoin(oracle, n, JoinStrategy::kFiltered);
      EXPECT_TRUE(filtered.report.filtered) << where;
    }
  }
}

TEST(SelfJoin, AnnotatedTokenJoinRunsFiltered) {
  // A certified-dissimilar pair is an active pair, which carries no score,
  // so a token join with a widened cover still prunes — and stores the
  // same active ids, reserve ids and reserve scores as brute.
  AttributeTable sets = RandomSetTable(120, 11, 30, 4);
  SimilarityOracle oracle(&sets, Metric::kJaccard, 0.3);
  ExpectBruteAndFilteredIdentical(oracle, 120, 0.6, "annotated token");
  JoinOutcome filtered = RunJoin(oracle, 120, JoinStrategy::kFiltered, 0.6);
  EXPECT_TRUE(filtered.report.filtered);
  EXPECT_GT(filtered.report.pruned_pairs, 0u);
  EXPECT_GT(filtered.index.num_pairs(), 0u);
  EXPECT_GT(filtered.index.num_reserve_pairs(), 0u);
}

// ---------------------------------------------------------------------------
// Threshold boundary exactness: thresholds placed exactly on realized pair
// scores and within one ULP of them, in both metric directions. A filter
// whose certificates are off by even half an ULP flips a verdict here.
// ---------------------------------------------------------------------------

std::vector<double> RealizedScores(const SimilarityOracle& oracle,
                                   VertexId n, size_t max_scores) {
  std::set<double> scores;
  for (VertexId a = 0; a < n; ++a) {
    for (VertexId b = a + 1; b < n; ++b) scores.insert(oracle.Score(a, b));
  }
  std::vector<double> picked;
  size_t stride = std::max<size_t>(1, scores.size() / max_scores);
  size_t i = 0;
  for (double s : scores) {
    if (i++ % stride == 0) picked.push_back(s);
  }
  return picked;
}

void RunBoundarySweep(const SimilarityOracle& base, VertexId n,
                      const std::string& tag) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double s : RealizedScores(base, n, 6)) {
    for (double t : {std::nextafter(s, -inf), s, std::nextafter(s, inf)}) {
      if (!(t > 0.0) || !std::isfinite(t)) continue;
      SimilarityOracle oracle = base.WithThreshold(t);
      ExpectBruteAndFilteredIdentical(
          oracle, n, std::numeric_limits<double>::quiet_NaN(),
          tag + " boundary t=" + std::to_string(t));
    }
  }
}

TEST(SelfJoin, GeoThresholdBoundaryBitIdentity) {
  AttributeTable attrs = AttributeTable::ForGeo(RandomPoints(90, 3));
  SimilarityOracle base(&attrs, Metric::kEuclideanDistance, 0.2);
  RunBoundarySweep(base, 90, "geo");
}

TEST(SelfJoin, JaccardThresholdBoundaryBitIdentity) {
  AttributeTable attrs = RandomSetTable(90, 4, 25, 5);
  SimilarityOracle base(&attrs, Metric::kJaccard, 0.4);
  RunBoundarySweep(base, 90, "jaccard");
}

TEST(SelfJoin, WeightedThresholdBoundaryBitIdentity) {
  AttributeTable attrs = RandomWeightedTable(70, 8, 25, 5);
  for (Metric m : {Metric::kWeightedJaccard, Metric::kCosine}) {
    SimilarityOracle base(&attrs, m, 0.4);
    RunBoundarySweep(base, 70, MetricName(m));
  }
}

TEST(SelfJoin, AnnotatedBoundaryBothBands) {
  // Serve and cover thresholds pinned to realized scores and their ULP
  // neighbors: active/reserve band membership must match brute exactly.
  AttributeTable attrs = AttributeTable::ForGeo(RandomPoints(70, 13));
  SimilarityOracle base(&attrs, Metric::kEuclideanDistance, 0.3);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> scores = RealizedScores(base, 70, 4);
  ASSERT_GE(scores.size(), 2u);
  const double lo = scores.front();  // strict (cover) candidate
  for (double s : scores) {
    if (!(s > lo)) continue;
    for (double serve : {std::nextafter(s, -inf), s, std::nextafter(s, inf)}) {
      for (double cover : {std::nextafter(lo, -inf), lo,
                           std::nextafter(lo, inf)}) {
        if (!(cover > 0.0) || !(serve > cover)) continue;
        SimilarityOracle oracle = base.WithThreshold(serve);
        ExpectBruteAndFilteredIdentical(
            oracle, 70, cover,
            "annotated serve=" + std::to_string(serve) +
                " cover=" + std::to_string(cover));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Degenerate inputs.
// ---------------------------------------------------------------------------

TEST(SelfJoin, DuplicatePointsCollapseToBulkSkips) {
  // All vertices at one point: every pair is similar, the grid certifies
  // the whole pair space in O(1) operations, and the index is empty.
  std::vector<GeoPoint> points(500, GeoPoint{3.0, -1.0});
  AttributeTable attrs = AttributeTable::ForGeo(std::move(points));
  SimilarityOracle oracle(&attrs, Metric::kEuclideanDistance, 1.0);
  JoinOutcome filtered = RunJoin(oracle, 500, JoinStrategy::kFiltered);
  ExpectCounterInvariants(filtered.report, 500, "duplicate points");
  EXPECT_EQ(filtered.report.oracle_calls, 0u);
  EXPECT_EQ(filtered.index.num_pairs(), 0u);
  ExpectBruteAndFilteredIdentical(
      oracle, 500, std::numeric_limits<double>::quiet_NaN(), "duplicates");
}

TEST(SelfJoin, TwoFarClustersCertifyDissimilarWithoutOracle) {
  std::vector<GeoPoint> points;
  for (int i = 0; i < 40; ++i) points.push_back({0.0, 0.0});
  for (int i = 0; i < 40; ++i) points.push_back({100.0, 0.0});
  AttributeTable attrs = AttributeTable::ForGeo(std::move(points));
  SimilarityOracle oracle(&attrs, Metric::kEuclideanDistance, 1.0);
  JoinOutcome filtered = RunJoin(oracle, 80, JoinStrategy::kFiltered);
  ExpectCounterInvariants(filtered.report, 80, "two clusters");
  EXPECT_EQ(filtered.report.oracle_calls, 0u);
  EXPECT_EQ(filtered.index.num_pairs(), 40u * 40u);
  ExpectBruteAndFilteredIdentical(
      oracle, 80, std::numeric_limits<double>::quiet_NaN(), "two clusters");
}

TEST(SelfJoin, EmptyAndSingleTokenVectors) {
  // Empty vectors score exactly 0.0 against everything (including each
  // other), so with t > 0 they are dissimilar to all partners; single-token
  // vectors exercise the shortest possible prefix.
  std::vector<SparseVector> vectors;
  vectors.emplace_back(std::vector<uint32_t>{});            // empty
  vectors.emplace_back(std::vector<uint32_t>{});            // empty
  vectors.emplace_back(std::vector<uint32_t>{7});           // single token
  vectors.emplace_back(std::vector<uint32_t>{7});           // identical single
  vectors.emplace_back(std::vector<uint32_t>{9});           // disjoint single
  vectors.emplace_back(std::vector<uint32_t>{7, 9, 11});
  AttributeTable attrs = AttributeTable::ForVectors(std::move(vectors));
  const VertexId n = 6;
  for (Metric m :
       {Metric::kJaccard, Metric::kWeightedJaccard, Metric::kCosine}) {
    for (double t : {0.25, 0.5, 1.0}) {
      SimilarityOracle oracle(&attrs, m, t);
      ExpectBruteAndFilteredIdentical(
          oracle, n, std::numeric_limits<double>::quiet_NaN(),
          MetricName(m) + " degenerate t=" + std::to_string(t));
    }
  }
}

TEST(SelfJoin, TinyMemberSets) {
  AttributeTable attrs = AttributeTable::ForGeo(RandomPoints(2, 1));
  SimilarityOracle oracle(&attrs, Metric::kEuclideanDistance, 0.5);
  for (VertexId n : {0u, 1u, 2u}) {
    for (JoinStrategy s : {JoinStrategy::kBrute, JoinStrategy::kFiltered}) {
      JoinOutcome out =
          RunJoin(oracle, n, s, std::numeric_limits<double>::quiet_NaN());
      ASSERT_FALSE(out.aborted);
      ExpectCounterInvariants(out.report, n, "tiny n=" + std::to_string(n));
    }
  }
}

TEST(SelfJoin, NonFiniteCoordinatesFallBackToBrute) {
  std::vector<GeoPoint> points = RandomPoints(50, 17);
  points[13].x = std::numeric_limits<double>::infinity();
  AttributeTable attrs = AttributeTable::ForGeo(std::move(points));
  SimilarityOracle oracle(&attrs, Metric::kEuclideanDistance, 0.3);
  JoinOutcome filtered = RunJoin(oracle, 50, JoinStrategy::kFiltered);
  EXPECT_FALSE(filtered.report.filtered);
  ExpectBruteAndFilteredIdentical(
      oracle, 50, std::numeric_limits<double>::quiet_NaN(), "non-finite");
}

TEST(SelfJoin, BruteTilingIsInvisible) {
  // The brute sweep must visit every unordered pair exactly once for any
  // tile size: 3-row tiles cut 40 members into 14 blocks, the last ragged.
  constexpr VertexId kN = 40;
  AttributeTable attrs = AttributeTable::ForGeo(RandomPoints(kN, 9));
  SimilarityOracle oracle(&attrs, Metric::kEuclideanDistance, 0.5);
  for (double cover : {std::numeric_limits<double>::quiet_NaN(), 0.3}) {
    const std::string where = "cover=" + std::to_string(cover);
    JoinOutcome whole = RunJoin(oracle, kN, JoinStrategy::kBrute, cover);
    JoinOutcome tiled = RunJoin(oracle, kN, JoinStrategy::kBrute, cover,
                                /*threads=*/1, /*tile_size=*/3);
    ASSERT_FALSE(whole.aborted) << where;
    ASSERT_FALSE(tiled.aborted) << where;
    EXPECT_FALSE(whole.report.filtered) << where;
    EXPECT_FALSE(tiled.report.filtered) << where;
    ExpectCounterInvariants(tiled.report, kN, where + " tiled");
    EXPECT_GT(whole.index.num_pairs(), 0u) << where;
    EXPECT_EQ(whole.index.num_reserve_pairs() > 0, !std::isnan(cover))
        << where;
    ExpectIndexIdentical(whole.index, tiled.index, where);
  }
}

// ---------------------------------------------------------------------------
// Parallel determinism: the built index and the counters are identical for
// every thread count.
// ---------------------------------------------------------------------------

TEST(SelfJoin, ParallelJoinIsDeterministic) {
  AttributeTable attrs = AttributeTable::ForGeo(RandomPoints(600, 21));
  SimilarityOracle oracle(&attrs, Metric::kEuclideanDistance, 0.08);
  for (double cover : {std::numeric_limits<double>::quiet_NaN(), 0.02}) {
    JoinOutcome serial = RunJoin(oracle, 600, JoinStrategy::kFiltered, cover,
                                 /*threads=*/1);
    for (uint32_t threads : {2u, 4u, 16u}) {
      JoinOutcome parallel = RunJoin(oracle, 600, JoinStrategy::kFiltered,
                                     cover, threads);
      ASSERT_FALSE(parallel.aborted);
      EXPECT_EQ(parallel.report.total_pairs, serial.report.total_pairs);
      EXPECT_EQ(parallel.report.candidate_pairs,
                serial.report.candidate_pairs);
      EXPECT_EQ(parallel.report.pruned_pairs, serial.report.pruned_pairs);
      EXPECT_EQ(parallel.report.oracle_calls, serial.report.oracle_calls);
      ExpectIndexIdentical(serial.index, parallel.index,
                           "threads=" + std::to_string(threads));
    }
  }
}

// ---------------------------------------------------------------------------
// Work accounting.
// ---------------------------------------------------------------------------

TEST(SelfJoin, PipelineReportThreadsJoinCounters) {
  Dataset data = test::MakeRandomGeo(300, 900, 77);
  SimilarityOracle oracle(&data.attributes, Metric::kEuclideanDistance, 0.1);
  // The preparation runs the filtered join; its report carries the counters.
  PipelineOptions pipe;
  pipe.k = 2;
  PreparedWorkspace ws;
  PreprocessReport report;
  ASSERT_TRUE(PrepareWorkspace(data.graph, oracle, pipe, &ws, &report).ok());
  EXPECT_EQ(report.pruned_pairs + report.oracle_calls, report.pairs_evaluated);

  // The brute join, driven directly, evaluates every pair.
  JoinOutcome brute = RunJoin(oracle, 300, JoinStrategy::kBrute);
  ASSERT_FALSE(brute.aborted);
  EXPECT_EQ(brute.report.oracle_calls, brute.report.total_pairs);
  EXPECT_EQ(brute.report.pruned_pairs, 0u);
}

}  // namespace
}  // namespace krcore
