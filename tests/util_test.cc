#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "util/logging.h"
#include "util/options.h"
#include "util/random.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/timer.h"

namespace krcore {
namespace {

TEST(Status, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status s = Status::DeadlineExceeded("budget");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsDeadlineExceeded());
  EXPECT_EQ(s.ToString(), "DEADLINE_EXCEEDED: budget");
}

TEST(Status, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(Rng, DeterministicFromSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, PowerLawRespectsBounds) {
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.NextPowerLaw(1, 100, 2.5);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 100);
  }
}

TEST(Rng, PowerLawSkewsSmall) {
  Rng rng(17);
  int small = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextPowerLaw(1, 1000, 2.5) <= 3) ++small;
  }
  // For alpha=2.5 most of the mass is at the very bottom.
  EXPECT_GT(small, n / 2);
}

TEST(Rng, ZipfRespectsBoundsAndSkew) {
  Rng rng(19);
  int zeros = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    uint64_t v = rng.NextZipf(50, 1.5);
    EXPECT_LT(v, 50u);
    if (v == 0) ++zeros;
  }
  EXPECT_GT(zeros, n / 10);  // rank 0 dominates
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(21);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Stats, AccumulatorBasics) {
  StatsAccumulator acc;
  acc.Add(1.0);
  acc.Add(3.0);
  acc.Add(5.0);
  EXPECT_EQ(acc.count(), 3);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
  EXPECT_NEAR(acc.variance(), 8.0 / 3.0, 1e-9);
}

TEST(Stats, EmptyAccumulatorIsZero) {
  StatsAccumulator acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.stddev(), 0.0);
}

TEST(Stats, QuantileEndpointsAndMedian) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
}

TEST(Stats, QuantileInterpolates) {
  std::vector<double> v{0.0, 10.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.5);
}

TEST(Stats, HistogramBinsAndClamps) {
  Histogram h(0.0, 10.0, 5);
  h.Add(-1.0);   // clamped into bin 0
  h.Add(0.5);
  h.Add(9.9);
  h.Add(25.0);   // clamped into last bin
  EXPECT_EQ(h.total(), 4);
  EXPECT_EQ(h.bin_count(0), 2);
  EXPECT_EQ(h.bin_count(4), 2);
}

TEST(Timer, MeasuresElapsed) {
  Timer t;
  volatile double x = 0.0;
  for (int i = 0; i < 100000; ++i) x += std::sqrt(static_cast<double>(i));
  EXPECT_GE(t.ElapsedSeconds(), 0.0);
}

TEST(Deadline, InfiniteNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.IsInfinite());
  EXPECT_FALSE(d.Expired());
}

TEST(Deadline, PastDeadlineExpires) {
  Deadline d = Deadline::AfterSeconds(-1.0);
  EXPECT_TRUE(d.Expired());
}

TEST(Options, ParsesFormsAndDefaults) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "2.5", "pos1",
                        "--flag", "--gamma=-3", "--delta=1e-3"};
  OptionParser p(8, const_cast<char**>(argv));
  EXPECT_EQ(p.GetInt("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(p.GetDouble("beta", 0.0), 2.5);
  EXPECT_EQ(p.GetInt("gamma", 0), -3);
  EXPECT_DOUBLE_EQ(p.GetDouble("delta", 0.0), 1e-3);
  EXPECT_TRUE(p.GetBool("flag"));
  EXPECT_EQ(p.GetString("missing", "dflt"), "dflt");
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "pos1");
}

/// Parses `args` as if they followed the program name on a command line.
OptionParser Parse(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return OptionParser(static_cast<int>(args.size()),
                      const_cast<char**>(args.data()));
}

TEST(OptionsDeathTest, RejectsTrailingGarbage) {
  OptionParser p = Parse({"--k=5x", "--r=6abc"});
  EXPECT_EXIT(p.GetInt("k", 0), ::testing::ExitedWithCode(2),
              "invalid value for --k: '5x'");
  EXPECT_EXIT(p.GetDouble("r", 0.0), ::testing::ExitedWithCode(2),
              "invalid value for --r: '6abc'");
}

TEST(OptionsDeathTest, RejectsEmptyValues) {
  OptionParser p = Parse({"--k=", "--r="});
  EXPECT_EXIT(p.GetInt("k", 0), ::testing::ExitedWithCode(2),
              "invalid value for --k: ''");
  EXPECT_EXIT(p.GetDouble("r", 0.0), ::testing::ExitedWithCode(2),
              "invalid value for --r: ''");
}

TEST(OptionsDeathTest, RejectsNonNumericValues) {
  // A bare --seed stores "true", which is no number either.
  OptionParser p = Parse({"--threads=abc", "--scale=fast", "--seed"});
  EXPECT_EXIT(p.GetInt("threads", 1), ::testing::ExitedWithCode(2),
              "invalid value for --threads: 'abc'");
  EXPECT_EXIT(p.GetDouble("scale", 1.0), ::testing::ExitedWithCode(2),
              "invalid value for --scale: 'fast'");
  EXPECT_EXIT(p.GetInt("seed", 1), ::testing::ExitedWithCode(2),
              "invalid value for --seed: 'true'");
}

TEST(OptionsDeathTest, RejectsIntegersOutOfRange) {
  OptionParser p = Parse({"--seed=99999999999999999999"});
  EXPECT_EXIT(p.GetInt("seed", 1), ::testing::ExitedWithCode(2),
              "invalid value for --seed: '99999999999999999999'");
}

}  // namespace
}  // namespace krcore
