#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "core/krcore_types.h"
#include "core/pipeline.h"
#include "core/workspace_update.h"
#include "server/serve.h"
#include "util/field_table.h"
#include "util/json.h"
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
                        "--flag", "--gamma=-3", "--delta=1e-3",
                        "--big=4294967295"};
  OptionParser p(9, const_cast<char**>(argv));
  EXPECT_EQ(p.GetInt("alpha", 0), 3);
  EXPECT_EQ(p.GetUint32("alpha", 0), 3u);
  EXPECT_EQ(p.GetUint32("big", 0), 4294967295u);
  EXPECT_EQ(p.GetUint32("missing", 7), 7u);
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
  OptionParser p = Parse(
      {"--seed=99999999999999999999", "--threads=-1", "--k=4294967296"});
  EXPECT_EXIT(p.GetInt("seed", 1), ::testing::ExitedWithCode(2),
              "invalid value for --seed: '99999999999999999999'");
  EXPECT_EXIT(p.GetUint32("threads", 1), ::testing::ExitedWithCode(2),
              "invalid value for --threads: '-1'");
  EXPECT_EXIT(p.GetUint32("k", 3), ::testing::ExitedWithCode(2),
              "invalid value for --k: '4294967296'");
}

TEST(OptionsDeathTest, RejectsFlagsNoCallRead) {
  // A misspelt or removed flag is refused, not run with the default.
  OptionParser p = Parse({"--k=5", "--dataset=gowalla", "--thread=4",
                          "--split_depth=3", "--snapshot_out"});
  EXPECT_EQ(p.GetUint32("k", 3), 5u);
  EXPECT_TRUE(p.Has("dataset"));
  EXPECT_FALSE(p.GetBool("stream"));  // read but absent: no flag to refuse
  EXPECT_EXIT(p.RejectUnknown(), ::testing::ExitedWithCode(2),
              "unknown flag --snapshot_out\nunknown flag --split_depth\n"
              "unknown flag --thread\n");
  // Reading the rest accepts the line.
  EXPECT_EQ(p.GetUint32("thread", 1), 4u);
  EXPECT_EQ(p.GetUint32("split_depth", 0), 3u);
  EXPECT_TRUE(p.Has("snapshot_out"));
  p.RejectUnknown();
}

TEST(OptionsDeathTest, RejectsEveryFlagWhenNoneIsRead) {
  OptionParser p = Parse({"--help"});
  EXPECT_EXIT(p.RejectUnknown(), ::testing::ExitedWithCode(2),
              "unknown flag --help");
  Parse({"positional"}).RejectUnknown();
}

TEST(JsonWriter, TracksCommasAndEscapes) {
  JsonWriter w;
  w.BeginObject()
      .Member("s", "a\"b\\c\n\x01")
      .Member("n", uint32_t{7})
      .Member("b", false)
      .Member("d", 0.1 + 0.2)
      .Key("a")
      .BeginArray()
      .Value(1)
      .BeginObject()
      .EndObject()
      .BeginArray()
      .EndArray()
      .EndArray()
      .EndObject();
  EXPECT_EQ(w.Take(),
            R"({"s":"a\"b\\c\n\u0001","n":7,"b":false,)"
            R"("d":0.30000000000000004,"a":[1,{},[]]})");
}

/// Field i of a table gets i (counters) or i + 1/3 (doubles, which need
/// all 17 significant digits to read back), offset by `base`.
template <typename S>
S FillDistinct(uint64_t base) {
  S s;
  uint64_t i = base;
  std::apply(
      [&](const auto&... f) {
        ((s.*f.member = std::is_floating_point_v<
                            std::remove_reference_t<decltype(s.*f.member)>>
                            ? i++ + 1.0 / 3.0
                            : i++),
         ...);
      },
      S::Fields());
  return s;
}

/// Checks a report's table against the member names spelled out by hand,
/// that ToJson carries every member with its exact value, and that
/// MergeFrom (when `merge` is set) sums every field except `max_fields`,
/// which take the max.
template <typename S>
void ExpectTableCoversReport(const std::vector<std::string>& names,
                             const std::set<std::string>& max_fields) {
  // Every member is 8 bytes, so an untabled member changes the size.
  size_t table_bytes = 0;
  std::vector<std::string> keys;
  std::apply(
      [&](const auto&... f) {
        ((table_bytes += sizeof(S{}.*f.member), keys.push_back(f.key)), ...);
      },
      S::Fields());
  EXPECT_EQ(keys, names);
  EXPECT_EQ(table_bytes, sizeof(S));

  const S a = FillDistinct<S>(1);
  const std::string json = a.ToJson();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  std::apply(
      [&](const auto&... f) {
        auto check = [&](const char* key, double expected) {
          const std::string needle = std::string("\"") + key + "\":";
          const size_t at = json.find(needle);
          ASSERT_NE(at, std::string::npos) << key << " missing from " << json;
          EXPECT_EQ(std::strtod(json.c_str() + at + needle.size(), nullptr),
                    expected)
              << key;
        };
        (check(f.key, static_cast<double>(a.*f.member)), ...);
      },
      S::Fields());

  if constexpr (requires(S x) { x.MergeFrom(x); }) {
    const S b = FillDistinct<S>(1000);
    S merged = a;
    merged.MergeFrom(b);
    std::apply(
        [&](const auto&... f) {
          auto check = [&](const char* key, auto got, auto x, auto y) {
            EXPECT_EQ(got, max_fields.count(key) ? std::max(x, y) : x + y)
                << key;
          };
          (check(f.key, merged.*f.member, a.*f.member, b.*f.member), ...);
        },
        S::Fields());
  }
}

TEST(FieldTable, EveryReportCounterReachesJsonAndMerge) {
  ExpectTableCoversReport<MiningStats>(
      {"search_nodes",          "expand_branches",
       "shrink_branches",       "emitted_candidates",
       "maximal_found",         "early_terminations",
       "bound_prunes",          "bound_naive_prunes",
       "bound_cache_hits",      "bound_expensive_prunes",
       "bound_recomputes",      "promotions",
       "maximal_check_calls",   "maximal_check_nodes",
       "components",            "tasks_spawned",
       "task_steals",           "prepare_pair_sweeps",
       "prepare_derivations",   "oracle_calls",
       "derive_r_restrictions", "score_filtered_pairs",
       "prepare_seconds",       "seconds"},
      {"prepare_seconds", "seconds"});
  ExpectTableCoversReport<UpdateReport>(
      {"batches", "updates_applied", "sim_edges_added", "sim_edges_removed",
       "vertices_peeled", "vertices_promoted", "components_reused",
       "components_rebuilt", "rows_rebuilt", "pairs_from_cache",
       "pairs_from_oracle", "fallback_rebuilds", "rolled_back_batches",
       "seconds"},
      {});
  ExpectTableCoversReport<PreprocessReport>(
      {"components", "vertices", "edges", "pairs_evaluated",
       "candidate_pairs", "pruned_pairs", "oracle_calls", "dissimilar_pairs",
       "reserve_pairs", "score_filtered_pairs", "dissimilar_density",
       "index_bytes", "peak_bytes", "seconds"},
      {});
  ExpectTableCoversReport<SessionReport>(
      {"lines_read", "queries_submitted", "responses_written", "parse_errors",
       "admin_commands"},
      {});

  // The counter MiningStats::ToString once dropped, and the wall-clock
  // merge rule, spelled out.
  MiningStats a, b;
  a.maximal_check_nodes = 5;
  b.maximal_check_nodes = 7;
  a.seconds = 2.0;
  b.seconds = 3.0;
  a.MergeFrom(b);
  EXPECT_EQ(a.maximal_check_nodes, 12u);
  EXPECT_EQ(a.seconds, 3.0);
  EXPECT_NE(a.ToJson().find("\"maximal_check_nodes\":12"), std::string::npos);
}

}  // namespace
}  // namespace krcore
