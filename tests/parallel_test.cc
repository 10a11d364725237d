#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "test_helpers.h"

#if defined(__SANITIZE_THREAD__)
#define KRCORE_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define KRCORE_TEST_TSAN 1
#endif
#endif

namespace krcore {
namespace {

TEST(ParallelFor, CoversEveryIndexOnce) {
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    std::vector<std::atomic<uint32_t>> hits(257);
    for (auto& h : hits) h.store(0);
    ParallelFor(threads, hits.size(),
                [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, ZeroCountIsANoop) {
  ParallelFor(4, 0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ParallelOptions, ResolveZeroMeansHardware) {
  ParallelOptions p;
  p.num_threads = 0;
  EXPECT_GE(p.Resolve(), 1u);
  p.num_threads = 3;
  EXPECT_EQ(p.Resolve(), 3u);
}

TEST(ParallelOptions, ZeroReportingHostStillResolvesToOne) {
  // std::thread::hardware_concurrency() is allowed to return 0 ("not
  // computable"); the resolution seam must clamp that to one worker, never
  // zero, for every consumer (TaskPool sizing, ParallelFor fan-out, sweep
  // cell concurrency).
  EXPECT_EQ(ResolveThreadCount(0, 0), 1u);
  EXPECT_EQ(ResolveThreadCount(0, 8), 8u);
  EXPECT_EQ(ResolveThreadCount(1, 0), 1u);
  EXPECT_EQ(ResolveThreadCount(5, 0), 5u);
}

TEST(ParallelOptions, MiningWithZeroThreadsOptionStillWorks) {
  // num_threads = 0 flows through Resolve() into every driver; whatever the
  // host reports (including 0), the run must complete and match sequential.
  auto dataset = test::MakeRandomGeo(60, 300, 21);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.4);
  EnumOptions seq = AdvEnumOptions(2);
  EnumOptions all_cores = seq;
  all_cores.parallel.num_threads = 0;
  auto a = EnumerateMaximalCores(dataset.graph, oracle, seq);
  auto b = EnumerateMaximalCores(dataset.graph, oracle, all_cores);
  ASSERT_TRUE(a.status.ok());
  ASSERT_TRUE(b.status.ok());
  EXPECT_EQ(a.cores, b.cores);
}

TEST(TaskPoolTest, ZeroRequestedThreadsClampsToOneWorker) {
  TaskPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> ran{0};
  pool.Submit([&ran] { ran.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, ZeroThreadsBehavesSequentially) {
  std::vector<int> hits(17, 0);
  ParallelFor(0, hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1);
}

TEST(TaskPoolTest, RunsEverySubmittedTask) {
  for (uint32_t threads : {1u, 2u, 4u}) {
    TaskPool pool(threads);
    std::vector<std::atomic<uint32_t>> hits(193);
    for (auto& h : hits) h.store(0);
    for (size_t i = 0; i < hits.size(); ++i) {
      pool.Submit([&hits, i] { hits[i].fetch_add(1); });
    }
    pool.Wait();
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1u) << "task " << i << " threads " << threads;
    }
    EXPECT_EQ(pool.tasks_spawned(), hits.size());
  }
}

TEST(TaskPoolTest, TasksCanSpawnTasks) {
  // A binary recursion tree spawned entirely from inside tasks: Wait() must
  // cover the transitive closure, not just the initial submission.
  TaskPool pool(4);
  std::atomic<uint32_t> leaves{0};
  std::function<void(uint32_t)> recurse = [&](uint32_t depth) {
    if (depth == 0) {
      leaves.fetch_add(1);
      return;
    }
    pool.Submit([&, depth] { recurse(depth - 1); });
    recurse(depth - 1);
  };
  pool.Submit([&] { recurse(6); });
  pool.Wait();
  EXPECT_EQ(leaves.load(), 64u);
  EXPECT_EQ(pool.tasks_spawned(), 64u);  // 1 root + 63 internal spawns
}

TEST(TaskPoolTest, WaitWithNoTasksReturnsImmediately) {
  TaskPool pool(2);
  pool.Wait();
  EXPECT_EQ(pool.tasks_spawned(), 0u);
  EXPECT_EQ(pool.tasks_stolen(), 0u);
}

TEST(TaskPoolTest, WaitCanBeReusedAcrossBatches) {
  TaskPool pool(3);
  std::atomic<uint32_t> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { count.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), 10u * (batch + 1));
  }
}

TEST(TaskPoolTest, ThisThreadsPoolIsKeptAndRebuiltOnCountChange) {
  TaskPool* two = &TaskPool::ForThisThread(2);
  EXPECT_EQ(two->num_threads(), 2u);
  EXPECT_EQ(&TaskPool::ForThisThread(2), two);
  EXPECT_EQ(TaskPool::ForThisThread(4).num_threads(), 4u);
  EXPECT_EQ(TaskPool::ForThisThread(2).num_threads(), 2u);

  // 2 -> 4 -> 2 threads: each search runs on a pool of its own size and
  // finds the same cores.
  auto dataset = test::MakeRandomGeo(60, 260, 4);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  EnumOptions opts = AdvEnumOptions(2);
  const auto sequential = EnumerateMaximalCores(dataset.graph, oracle, opts);
  ASSERT_TRUE(sequential.status.ok());
  for (uint32_t threads : {2u, 4u, 2u}) {
    opts.parallel.num_threads = threads;
    auto parallel = EnumerateMaximalCores(dataset.graph, oracle, opts);
    ASSERT_TRUE(parallel.status.ok());
    EXPECT_EQ(parallel.cores, sequential.cores) << "threads=" << threads;
    EXPECT_EQ(TaskPool::ForThisThread(threads).num_threads(), threads);
  }
}

TEST(TaskPoolTest, EachCallingThreadOwnsItsPool) {
  TaskPool* here = &TaskPool::ForThisThread(2);
  TaskPool* there = nullptr;
  std::thread([&there] { there = &TaskPool::ForThisThread(2); }).join();
  EXPECT_NE(here, there);
}

/// Disjoint 4-cliques, each one similarity group: every component is a
/// (k,r)-core at its root, so its search never branches.
test::GroupedSimilarity DisjointCliques(VertexId cliques) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::vector<uint32_t> group_of;
  for (VertexId c = 0; c < cliques; ++c) {
    for (VertexId a = 0; a < 4; ++a) {
      group_of.push_back(c);
      for (VertexId b = a + 1; b < 4; ++b) {
        edges.push_back({4 * c + a, 4 * c + b});
      }
    }
  }
  return test::MakeGrouped(4 * cliques, edges, group_of);
}

TEST(ParallelEnum, TaskCountersArePerCall) {
  // A forking call first, on this thread's persistent pool...
  auto dataset = test::MakeRandomGeo(60, 260, 0);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  EnumOptions opts = AdvEnumOptions(2);
  opts.parallel.num_threads = 2;
  auto forking = EnumerateMaximalCores(dataset.graph, oracle, opts);
  ASSERT_TRUE(forking.status.ok());
  ASSERT_GT(forking.stats.tasks_spawned, forking.stats.components);

  // ...then one whose components never branch: one root task each.
  auto cliques = DisjointCliques(5);
  auto flat = EnumerateMaximalCores(cliques.graph, cliques.MakeOracle(), opts);
  ASSERT_TRUE(flat.status.ok());
  EXPECT_EQ(flat.cores.size(), 5u);
  EXPECT_EQ(flat.stats.components, 5u);
  EXPECT_EQ(flat.stats.tasks_spawned, 5u);
  EXPECT_LE(flat.stats.task_steals, 5u);
}

/// Fork safety: a process forked after this thread built its pool has none
/// of the pool's workers. The child must neither reuse the pool nor join
/// it on exit; either would hang, which the alarm turns into a failure.
class SearchPoolDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "fast";  // fork, no re-exec
    opts_.parallel.num_threads = 2;
    parent_ = EnumerateMaximalCores(dataset_.graph, oracle_, opts_);
    ASSERT_TRUE(parent_.status.ok());
    ASSERT_GT(parent_.stats.tasks_spawned, 0u);
  }

  Dataset dataset_ = test::MakeRandomGeo(60, 260, 2);
  SimilarityOracle oracle_{&dataset_.attributes, dataset_.metric, 0.45};
  EnumOptions opts_ = AdvEnumOptions(2);
  MaximalCoresResult parent_;
};

TEST_F(SearchPoolDeathTest, ForkedChildSearchesAgain) {
#ifdef KRCORE_TEST_TSAN
  GTEST_SKIP() << "ThreadSanitizer cannot run threads started after a "
                  "multi-threaded fork";
#endif
  auto search_again = [this] {
    alarm(30);
    auto child = EnumerateMaximalCores(dataset_.graph, oracle_, opts_);
    std::exit(child.status.ok() && child.cores == parent_.cores ? 0 : 1);
  };
  EXPECT_EXIT(search_again(), ::testing::ExitedWithCode(0), "");
}

TEST_F(SearchPoolDeathTest, ForkedChildExits) {
  auto exit_at_once = [] {
    alarm(30);
    std::exit(2);
  };
  EXPECT_EXIT(exit_at_once(), ::testing::ExitedWithCode(2), "");
}

TEST(ParallelPipeline, ThreadCountDoesNotChangeComponents) {
  auto dataset = test::MakeRandomGeo(120, 500, 77);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  PipelineOptions opts;
  opts.k = 2;
  std::vector<ComponentContext> seq, par;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &seq).ok());
  opts.num_threads = 4;
  ASSERT_TRUE(PrepareComponents(dataset.graph, oracle, opts, &par).ok());
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_EQ(seq[i].size(), par[i].size());
    EXPECT_EQ(seq[i].to_parent, par[i].to_parent);
    EXPECT_EQ(seq[i].num_dissimilar_pairs(), par[i].num_dissimilar_pairs());
    for (VertexId u = 0; u < seq[i].size(); ++u) {
      auto a = seq[i].dissimilar[u];
      auto b = par[i].dissimilar[u];
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }
}

/// Acceptance requirement: enumeration with num_threads > 1 produces
/// byte-identical sorted result sets to the sequential path.
class ParallelEnumSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelEnumSweep, ThreadsDoNotChangeMaximalCores) {
  for (bool geo : {true, false}) {
    Dataset dataset = geo ? test::MakeRandomGeo(60, 260, GetParam())
                          : test::MakeRandomKeyword(60, 260, GetParam());
    double r = geo ? 0.4 : 0.25;
    SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
    EnumOptions opts = AdvEnumOptions(2);
    auto sequential = EnumerateMaximalCores(dataset.graph, oracle, opts);
    ASSERT_TRUE(sequential.status.ok());
    for (uint32_t threads : {2u, 4u, 7u}) {
      opts.parallel.num_threads = threads;
      auto parallel = EnumerateMaximalCores(dataset.graph, oracle, opts);
      ASSERT_TRUE(parallel.status.ok());
      EXPECT_EQ(parallel.cores, sequential.cores)
          << "threads=" << threads << " geo=" << geo
          << " seed=" << GetParam();
      EXPECT_EQ(parallel.stats.components, sequential.stats.components);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelEnumSweep,
                         ::testing::Range<uint64_t>(0, 6));

TEST(ParallelEnum, BasicVariantAlsoDeterministic) {
  auto dataset = test::MakeRandomGeo(50, 220, 3);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  EnumOptions opts = BasicEnumOptions(2);
  auto sequential = EnumerateMaximalCores(dataset.graph, oracle, opts);
  ASSERT_TRUE(sequential.status.ok());
  opts.parallel.num_threads = 4;
  auto parallel = EnumerateMaximalCores(dataset.graph, oracle, opts);
  ASSERT_TRUE(parallel.status.ok());
  EXPECT_EQ(parallel.cores, sequential.cores);
}

class ParallelMaxSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelMaxSweep, ThreadsDoNotChangeMaximumSize) {
  auto dataset = test::MakeRandomGeo(60, 260, GetParam());
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  MaxOptions opts = AdvMaxOptions(2);
  auto sequential = FindMaximumCore(dataset.graph, oracle, opts);
  ASSERT_TRUE(sequential.status.ok());
  for (uint32_t threads : {2u, 4u}) {
    opts.parallel.num_threads = threads;
    auto parallel = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(parallel.status.ok());
    // The maximum *size* is schedule-independent (the set may differ among
    // equal-sized maxima; see MaxOptions::parallel).
    EXPECT_EQ(parallel.best.size(), sequential.best.size())
        << "threads=" << threads << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParallelMaxSweep,
                         ::testing::Range<uint64_t>(0, 6));

/// Acceptance requirement for intra-component splitting: with subtree
/// tasks forked whenever a worker is free, the enumeration result set is
/// byte-identical to the 1-thread run, and the maximum size matches. Every
/// multi-threaded run must actually fork subtrees: more tasks than
/// components.
class SubtreeSplitSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SubtreeSplitSweep, EnumIdenticalAcrossThreads) {
  auto dataset = test::MakeRandomGeo(60, 260, GetParam());
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  EnumOptions opts = AdvEnumOptions(2);
  auto sequential = EnumerateMaximalCores(dataset.graph, oracle, opts);
  ASSERT_TRUE(sequential.status.ok());
  for (uint32_t threads : {2u, 4u}) {
    opts.parallel.num_threads = threads;
    auto parallel = EnumerateMaximalCores(dataset.graph, oracle, opts);
    ASSERT_TRUE(parallel.status.ok());
    EXPECT_EQ(parallel.cores, sequential.cores)
        << "threads=" << threads << " seed=" << GetParam();
    EXPECT_GT(parallel.stats.tasks_spawned, parallel.stats.components)
        << "threads=" << threads << " seed=" << GetParam();
  }
}

TEST_P(SubtreeSplitSweep, MaxSizeIdenticalAcrossThreads) {
  auto dataset = test::MakeRandomGeo(60, 260, GetParam());
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  MaxOptions opts = AdvMaxOptions(2);
  auto sequential = FindMaximumCore(dataset.graph, oracle, opts);
  ASSERT_TRUE(sequential.status.ok());
  for (uint32_t threads : {2u, 4u}) {
    opts.parallel.num_threads = threads;
    auto parallel = FindMaximumCore(dataset.graph, oracle, opts);
    ASSERT_TRUE(parallel.status.ok());
    EXPECT_EQ(parallel.best.size(), sequential.best.size())
        << "threads=" << threads << " seed=" << GetParam();
    EXPECT_GT(parallel.stats.tasks_spawned, parallel.stats.components)
        << "threads=" << threads << " seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SubtreeSplitSweep,
                         ::testing::Range<uint64_t>(0, 6));

TEST(SubtreeSplit, BasicEnumAlsoIdenticalWithSplitting) {
  auto dataset = test::MakeRandomGeo(50, 220, 3);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.45);
  EnumOptions opts = BasicEnumOptions(2);
  auto sequential = EnumerateMaximalCores(dataset.graph, oracle, opts);
  ASSERT_TRUE(sequential.status.ok());
  for (uint32_t threads : {2u, 4u}) {
    opts.parallel.num_threads = threads;
    auto parallel = EnumerateMaximalCores(dataset.graph, oracle, opts);
    ASSERT_TRUE(parallel.status.ok());
    EXPECT_EQ(parallel.cores, sequential.cores) << "threads=" << threads;
    EXPECT_GT(parallel.stats.tasks_spawned, parallel.stats.components)
        << "threads=" << threads;
  }
}

TEST(ParallelEnum, DeadlineStillPropagates) {
  auto dataset = test::MakeRandomGeo(40, 200, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.8);
  EnumOptions opts = AdvEnumOptions(2);
  opts.deadline = Deadline::AfterSeconds(-1.0);
  opts.parallel.num_threads = 4;
  auto result = EnumerateMaximalCores(dataset.graph, oracle, opts);
  EXPECT_TRUE(result.status.IsDeadlineExceeded());
}

}  // namespace
}  // namespace krcore
