#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ingest/edge_coalescer.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/live_workspace.h"
#include "snapshot/workspace_snapshot.h"
#include "test_helpers.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace krcore {
namespace {

using EdgeSet = EdgeSetMirror;

/// Published workspaces carry the updater's batch version counter while a
/// cold preparation always starts at 0 — everything else must match
/// bit-identically. Normalize the version, then run the full structural
/// diff from test_helpers.h.
std::string DiffAgainstCold(const PreparedWorkspace& published,
                            const PreparedWorkspace& cold) {
  PreparedWorkspace normalized = published;
  normalized.version = cold.version;
  return test::DiffWorkspaces(normalized, cold);
}

PreparedWorkspace ColdPrepare(const Graph& g, const SimilarityOracle& oracle,
                              uint32_t k) {
  PipelineOptions prep;
  prep.k = k;
  PreparedWorkspace ws;
  Status s = PrepareWorkspace(g, oracle, prep, &ws);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return ws;
}

/// Mixed batch against the current mirror state: removes of existing edges
/// plus inserts of random (possibly already-present) pairs.
std::vector<EdgeUpdate> RandomBatch(const EdgeSet& edges, size_t inserts,
                                    size_t removes, Rng* rng) {
  std::vector<EdgeUpdate> batch;
  std::vector<std::pair<VertexId, VertexId>> existing(edges.edges().begin(),
                                                      edges.edges().end());
  const VertexId n = edges.num_vertices();
  for (size_t i = 0; i < removes && !existing.empty(); ++i) {
    const auto& e = existing[rng->NextBounded(existing.size())];
    batch.push_back(EdgeUpdate::Remove(e.first, e.second));
  }
  for (size_t i = 0; i < inserts; ++i) {
    VertexId u = static_cast<VertexId>(rng->NextBounded(n));
    VertexId v = static_cast<VertexId>(rng->NextBounded(n));
    if (u == v) v = (v + 1) % n;
    batch.push_back(EdgeUpdate::Insert(u, v));
  }
  return batch;
}

// --- EdgeBatchCoalescer unit contracts --------------------------------------

TEST(EdgeCoalescer, MergesDuplicateInsertsAcrossOrientations) {
  EdgeBatchCoalescer c(10);
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(1, 2)).ok());
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(2, 1)).ok());
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(1, 2)).ok());
  EXPECT_EQ(c.pending(), 1u);
  std::vector<EdgeUpdate> out = c.Drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, EdgeUpdate::Kind::kInsert);
  EXPECT_EQ(c.stats().merged, 2u);
  EXPECT_EQ(c.stats().emitted, 1u);
  EXPECT_EQ(c.pending(), 0u);  // Drain resets
}

TEST(EdgeCoalescer, InsertThenDeleteCollapsesToLatestOp) {
  // Without a presence oracle the coalescer cannot prove the remove is a
  // no-op, so latest-wins must still emit it (state-independent
  // equivalence: replaying {remove} == replaying {insert, remove} on any
  // graph that did not contain the edge... and on one that did).
  EdgeBatchCoalescer c(10);
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(3, 4)).ok());
  ASSERT_TRUE(c.Add(EdgeUpdate::Remove(3, 4)).ok());
  std::vector<EdgeUpdate> out = c.Drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, EdgeUpdate::Kind::kRemove);
  EXPECT_EQ(c.stats().annihilated, 1u);
}

TEST(EdgeCoalescer, PresenceOracleDropsNoOps) {
  // Pre-batch edge set: {0,1} present, everything else absent.
  auto presence = [](VertexId u, VertexId v) {
    return (u == 0 && v == 1) || (u == 1 && v == 0);
  };
  EdgeBatchCoalescer c(10, presence);
  // Insert of a present edge: dead.
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(0, 1)).ok());
  // Remove of an absent edge: dead (the insert-then-delete churn pattern
  // after the overwrite already swallowed the insert).
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(2, 3)).ok());
  ASSERT_TRUE(c.Add(EdgeUpdate::Remove(2, 3)).ok());
  // A real change survives.
  ASSERT_TRUE(c.Add(EdgeUpdate::Remove(0, 2)).ok());
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(4, 5)).ok());
  std::vector<EdgeUpdate> out = c.Drain();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].kind, EdgeUpdate::Kind::kInsert);
  EXPECT_EQ(out[0].u, 4u);
  EXPECT_EQ(out[0].v, 5u);
  // {0,1} insert + {2,3} remove + {0,2} remove dropped at Drain; the
  // {2,3} insert was annihilated at Add time.
  EXPECT_EQ(c.stats().annihilated, 1u);
  EXPECT_EQ(c.stats().dropped_noops, 3u);
  EXPECT_EQ(c.stats().emitted, 1u);
}

TEST(EdgeCoalescer, EmitsInFirstArrivalOrder) {
  EdgeBatchCoalescer c(10);
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(1, 2)).ok());
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(3, 4)).ok());
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(5, 6)).ok());
  ASSERT_TRUE(c.Add(EdgeUpdate::Remove(2, 1)).ok());  // overwrites slot 0
  std::vector<EdgeUpdate> out = c.Drain();
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].kind, EdgeUpdate::Kind::kRemove);  // first arrival, last op
  EXPECT_EQ(out[1].u, 3u);
  EXPECT_EQ(out[2].u, 5u);
}

TEST(EdgeCoalescer, RejectsMalformedWithoutPoisoningPending) {
  EdgeBatchCoalescer c(10);
  ASSERT_TRUE(c.Add(EdgeUpdate::Insert(1, 2)).ok());
  EXPECT_TRUE(c.Add(EdgeUpdate::Insert(3, 3)).IsInvalidArgument());
  EXPECT_TRUE(c.Add(EdgeUpdate::Insert(4, 10)).IsInvalidArgument());
  EXPECT_TRUE(c.Add(EdgeUpdate::Remove(10, 4)).IsInvalidArgument());
  EXPECT_EQ(c.stats().rejected, 3u);
  EXPECT_EQ(c.pending(), 1u);
  EXPECT_EQ(c.Drain().size(), 1u);
}

TEST(EdgeCoalescer, RandomizedReplayEquivalence) {
  // The equivalence bar from the header: replaying Drain()'s output yields
  // the same edge set as replaying the raw stream — with `presence` bound
  // to the actual pre-batch graph, and without presence for ANY state.
  const VertexId n = 24;
  Rng rng(97);
  GraphBuilder builder(n);
  for (int i = 0; i < 40; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(n));
    VertexId v = static_cast<VertexId>(rng.NextBounded(n));
    if (u != v) builder.AddEdge(u, v);
  }
  const Graph start = builder.Build();

  for (int round = 0; round < 8; ++round) {
    std::vector<EdgeUpdate> raw;
    for (int i = 0; i < 60; ++i) {
      VertexId u = static_cast<VertexId>(rng.NextBounded(n));
      VertexId v = static_cast<VertexId>(rng.NextBounded(n));
      if (u == v) continue;
      raw.push_back(rng.NextBounded(2) ? EdgeUpdate::Insert(u, v)
                                       : EdgeUpdate::Remove(u, v));
    }
    EdgeSet raw_replay(start);
    raw_replay.Apply(raw);

    // With presence bound to the pre-batch edge set.
    EdgeSet pre(start);
    EdgeBatchCoalescer with(n, [&pre](VertexId u, VertexId v) {
      return pre.edges().count({std::min(u, v), std::max(u, v)}) > 0;
    });
    ASSERT_TRUE(with.Add(std::span<const EdgeUpdate>(raw)).ok());
    EdgeSet with_replay(start);
    with_replay.Apply(with.Drain());
    EXPECT_EQ(with_replay.edges(), raw_replay.edges()) << "round " << round;

    // Without presence the coalesced batch must be state-independent:
    // replay both streams from a DIFFERENT starting graph too.
    EdgeBatchCoalescer without(n);
    ASSERT_TRUE(without.Add(std::span<const EdgeUpdate>(raw)).ok());
    const std::vector<EdgeUpdate> coalesced = without.Drain();
    EdgeSet a(start), b(start);
    a.Apply(raw);
    b.Apply(coalesced);
    EXPECT_EQ(a.edges(), b.edges()) << "round " << round;
    Graph empty = GraphBuilder(n).Build();
    EdgeSet c(empty), d(empty);
    c.Apply(raw);
    d.Apply(coalesced);
    EXPECT_EQ(c.edges(), d.edges()) << "round " << round << " (empty start)";
  }
}

// --- LiveWorkspace epoch semantics ------------------------------------------

TEST(LiveWorkspace, PublishBumpsEpochAndSkipsWhenClean) {
  Dataset dataset = test::MakeRandomKeyword(60, 200, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  LiveWorkspace live(dataset.graph, oracle,
                     ColdPrepare(dataset.graph, oracle, 2));

  PublishedVersion v0 = live.Current();
  EXPECT_EQ(v0.epoch, 0u);
  EXPECT_EQ(v0.batches_applied, 0u);

  // Publish with nothing applied: no epoch bump, same substrate.
  live.Publish();
  PublishedVersion still = live.Current();
  EXPECT_EQ(still.epoch, 0u);
  EXPECT_EQ(still.workspace.get(), v0.workspace.get());

  // A real batch then Publish: new epoch, new substrate, position advanced.
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(0, 1),
                                   EdgeUpdate::Insert(0, 2)};
  UpdateOptions options;
  ASSERT_TRUE(live.Apply(batch, options).ok());
  live.Publish();
  PublishedVersion v1 = live.Current();
  EXPECT_EQ(v1.epoch, 1u);
  EXPECT_EQ(v1.batches_applied, 1u);
  EXPECT_EQ(v1.updates_applied, 2u);
  EXPECT_NE(v1.workspace.get(), v0.workspace.get());

  // Position-only advance (a fully coalesced-away batch): epoch moves, the
  // substrate is reused without a copy.
  ASSERT_TRUE(live.Apply({}, options, /*batches_consumed=*/3,
                         /*raw_updates_consumed=*/7)
                  .ok());
  live.Publish();
  PublishedVersion v2 = live.Current();
  EXPECT_EQ(v2.epoch, 2u);
  EXPECT_EQ(v2.batches_applied, 4u);
  EXPECT_EQ(v2.updates_applied, 9u);
  EXPECT_EQ(v2.workspace.get(), v1.workspace.get());
}

TEST(LiveWorkspace, StalenessTracksUnpublishedBatches) {
  Dataset dataset = test::MakeRandomKeyword(60, 200, 6);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  LiveWorkspace live(dataset.graph, oracle,
                     ColdPrepare(dataset.graph, oracle, 2));
  EXPECT_EQ(live.Staleness().batches, 0u);
  EXPECT_EQ(live.Staleness().seconds, 0.0);

  UpdateOptions options;
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(1, 2)};
  ASSERT_TRUE(live.Apply(batch, options).ok());
  ASSERT_TRUE(live.Apply({}, options, 2, 0).ok());
  StalenessReport lag = live.Staleness();
  EXPECT_EQ(lag.batches, 3u);
  EXPECT_GE(lag.seconds, 0.0);

  live.Publish();
  EXPECT_EQ(live.Staleness().batches, 0u);
  EXPECT_EQ(live.Staleness().seconds, 0.0);
}

TEST(LiveWorkspace, ReadersKeepTheirVersionPinned) {
  Dataset dataset = test::MakeRandomKeyword(60, 200, 7);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  PreparedWorkspace initial = ColdPrepare(dataset.graph, oracle, 2);
  LiveWorkspace live(dataset.graph, oracle, initial);

  PublishedVersion pinned = live.Current();
  UpdateOptions options;
  for (int b = 0; b < 3; ++b) {
    std::vector<EdgeUpdate> batch = {
        EdgeUpdate::Insert(static_cast<VertexId>(b), 10),
        EdgeUpdate::Remove(static_cast<VertexId>(b), 11)};
    ASSERT_TRUE(live.Apply(batch, options).ok());
    live.Publish();
  }
  EXPECT_EQ(live.Current().epoch, 3u);
  // The pinned epoch-0 substrate is still exactly the initial preparation,
  // no matter what the writer shipped since.
  EXPECT_EQ(pinned.epoch, 0u);
  EXPECT_EQ(DiffAgainstCold(*pinned.workspace, initial), "");
}

// --- IngestPipeline: concurrent read consistency (the TSan centerpiece) -----

TEST(IngestPipeline, ConcurrentReadersAlwaysSeeAnExactPrefix) {
  // A writer streams 24 client batches through the pipeline while reader
  // threads continuously resolve the published version. Every version a
  // reader ever observes must be bit-identical to a cold PrepareWorkspace
  // of the graph after exactly the first `batches_applied` submitted
  // batches — the whole point of epoch publication: no torn reads, no
  // half-applied repairs, ever.
  constexpr int kBatches = 24;
  constexpr uint32_t kK = 2;
  Dataset dataset = test::MakeRandomKeyword(90, 420, 17);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);

  Rng rng(404);
  EdgeSet mirror(dataset.graph);
  std::vector<std::vector<EdgeUpdate>> batches;
  std::vector<PreparedWorkspace> truth;
  std::vector<uint64_t> prefix_updates = {0};
  truth.push_back(ColdPrepare(dataset.graph, oracle, kK));
  for (int b = 0; b < kBatches; ++b) {
    batches.push_back(RandomBatch(mirror, 3, 3, &rng));
    for (const EdgeUpdate& upd : batches.back()) mirror.Apply(upd);
    truth.push_back(ColdPrepare(mirror.Build(), oracle, kK));
    prefix_updates.push_back(prefix_updates.back() + batches.back().size());
  }

  LiveWorkspace live(dataset.graph, oracle,
                     ColdPrepare(dataset.graph, oracle, kK));
  IngestOptions options;
  // Small window bounds so the stream spans several repairs and epochs
  // even when the writer outruns the submitter.
  options.initial_batch_target = 4;
  options.min_batch_target = 4;
  options.max_batch_target = 16;
  options.publish_every_applies = 1;
  IngestPipeline pipeline(&live, options);
  pipeline.Start();

  std::atomic<bool> done{false};
  struct ReaderResult {
    std::string failure;
    uint64_t epochs_seen = 0;
  };
  std::vector<ReaderResult> results(3);
  std::vector<std::thread> readers;
  for (size_t i = 0; i < results.size(); ++i) {
    readers.emplace_back([&, i] {
      ReaderResult& r = results[i];
      uint64_t last_epoch = UINT64_MAX;
      while (!done.load(std::memory_order_acquire)) {
        PublishedVersion v = live.Current();
        if (v.epoch == last_epoch) {
          std::this_thread::yield();
          continue;
        }
        last_epoch = v.epoch;
        ++r.epochs_seen;
        if (v.batches_applied > kBatches) {
          r.failure = "position beyond the submitted stream";
          return;
        }
        if (v.updates_applied != prefix_updates[v.batches_applied]) {
          r.failure = "update count does not match the batch prefix at epoch " +
                      std::to_string(v.epoch);
          return;
        }
        std::string diff =
            DiffAgainstCold(*v.workspace, truth[v.batches_applied]);
        if (!diff.empty()) {
          r.failure = "epoch " + std::to_string(v.epoch) + " (prefix " +
                      std::to_string(v.batches_applied) + " batches): " + diff;
          return;
        }
      }
    });
  }

  for (int b = 0; b < kBatches; ++b) {
    ASSERT_TRUE(pipeline.Submit(batches[b]).ok());
    if (b % 4 == 3) {
      // Let the writer catch up so readers observe intermediate epochs
      // instead of one giant coalesced repair.
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  pipeline.Flush();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  pipeline.Stop();

  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].failure, "") << "reader " << i;
    EXPECT_GE(results[i].epochs_seen, 1u) << "reader " << i;
  }

  PublishedVersion final_version = live.Current();
  EXPECT_EQ(final_version.batches_applied, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(final_version.updates_applied, prefix_updates.back());
  EXPECT_EQ(DiffAgainstCold(*final_version.workspace, truth.back()), "");

  IngestStatsSnapshot stats = pipeline.Stats();
  EXPECT_EQ(stats.submitted_batches, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.rolled_back_batches, 0u);
  EXPECT_EQ(stats.published_stream_batches, static_cast<uint64_t>(kBatches));
  EXPECT_LE(stats.emitted_updates, stats.submitted_updates);
  EXPECT_EQ(stats.staleness_batches, 0u);  // flushed
}

// --- IngestPipeline: rollback, quarantine, lifecycle ------------------------

class IngestFailpoints : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::DisableAll(); }
  void TearDown() override { Failpoints::DisableAll(); }
};

TEST_F(IngestFailpoints, RollbackLeavesPublishedUntouchedAndStreamFlowing) {
  Dataset dataset = test::MakeRandomKeyword(90, 420, 23);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  LiveWorkspace live(dataset.graph, oracle,
                     ColdPrepare(dataset.graph, oracle, 2));
  IngestPipeline pipeline(&live, IngestOptions{});
  pipeline.Start();

  Rng rng(31);
  EdgeSet mirror(dataset.graph);

  // Batch 1 lands normally. Submit+Flush one at a time so each repair
  // covers exactly one client batch.
  std::vector<EdgeUpdate> batch1 = RandomBatch(mirror, 4, 4, &rng);
  ASSERT_TRUE(pipeline.Submit(batch1).ok());
  pipeline.Flush();
  for (const EdgeUpdate& upd : batch1) mirror.Apply(upd);
  PublishedVersion before = live.Current();
  ASSERT_EQ(before.batches_applied, 1u);

  // Batch 2 dies at the commit fence: all-or-nothing rollback, the batch
  // is dropped (at-most-once), the published substrate is byte-identical —
  // in fact the very same immutable version object, reused without a copy.
  Failpoints::Enable("update/before_commit", FailpointSpec::Once());
  std::vector<EdgeUpdate> batch2 = RandomBatch(mirror, 4, 4, &rng);
  ASSERT_TRUE(pipeline.Submit(batch2).ok());
  pipeline.Flush();
  ASSERT_EQ(Failpoints::StatsFor("update/before_commit").fired, 1u)
      << "the failpoint never fired — the rollback path went unexercised";
  PublishedVersion after = live.Current();
  EXPECT_EQ(after.workspace.get(), before.workspace.get());
  EXPECT_EQ(after.batches_applied, 2u);  // position covers the dropped batch
  EXPECT_EQ(after.epoch, before.epoch + 1);
  EXPECT_EQ(pipeline.Stats().rolled_back_batches, 1u);

  // Batch 3 proceeds; the final state is the prefix MINUS the dropped
  // batch — bit-identical to a cold preparation of (batch1 + batch3).
  std::vector<EdgeUpdate> batch3 = RandomBatch(mirror, 4, 4, &rng);
  ASSERT_TRUE(pipeline.Submit(batch3).ok());
  pipeline.Flush();
  for (const EdgeUpdate& upd : batch3) mirror.Apply(upd);
  PublishedVersion final_version = live.Current();
  EXPECT_EQ(final_version.batches_applied, 3u);
  EXPECT_EQ(
      DiffAgainstCold(*final_version.workspace,
                      ColdPrepare(mirror.Build(), oracle, 2)),
      "");
  pipeline.Stop();
}

TEST(IngestPipeline, MalformedUpdatesAreQuarantinedNotFatal) {
  Dataset dataset = test::MakeRandomKeyword(40, 120, 9);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  LiveWorkspace live(dataset.graph, oracle,
                     ColdPrepare(dataset.graph, oracle, 2));
  IngestPipeline pipeline(&live, IngestOptions{});
  pipeline.Start();

  EdgeSet mirror(dataset.graph);
  std::vector<EdgeUpdate> batch = {
      EdgeUpdate::Insert(5, 5),    // self-loop
      EdgeUpdate::Insert(3, 7),    // fine
      EdgeUpdate::Insert(99, 1),   // out of range (n = 40)
  };
  ASSERT_TRUE(pipeline.Submit(batch).ok());
  pipeline.Flush();
  mirror.Apply(EdgeUpdate::Insert(3, 7));

  IngestStatsSnapshot stats = pipeline.Stats();
  EXPECT_EQ(stats.rejected_updates, 2u);
  EXPECT_EQ(stats.rolled_back_batches, 0u);
  EXPECT_EQ(
      DiffAgainstCold(*live.Current().workspace,
                      ColdPrepare(mirror.Build(), oracle, 2)),
      "");
  pipeline.Stop();
}

TEST(IngestPipeline, EmptyBatchAdvancesPositionWithoutACopy) {
  Dataset dataset = test::MakeRandomKeyword(40, 120, 10);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  LiveWorkspace live(dataset.graph, oracle,
                     ColdPrepare(dataset.graph, oracle, 2));
  IngestPipeline pipeline(&live, IngestOptions{});
  pipeline.Start();

  PublishedVersion before = live.Current();
  ASSERT_TRUE(pipeline.Submit({}).ok());
  pipeline.Flush();
  PublishedVersion after = live.Current();
  EXPECT_EQ(after.batches_applied, 1u);
  EXPECT_EQ(after.workspace.get(), before.workspace.get());
  pipeline.Stop();
}

TEST(IngestPipeline, StopIsIdempotentAndSubmitAfterStopFails) {
  Dataset dataset = test::MakeRandomKeyword(40, 120, 11);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  LiveWorkspace live(dataset.graph, oracle,
                     ColdPrepare(dataset.graph, oracle, 2));
  IngestPipeline pipeline(&live, IngestOptions{});
  pipeline.Flush();  // never started: returns immediately, no deadlock
  pipeline.Start();
  std::vector<EdgeUpdate> batch = {EdgeUpdate::Insert(1, 2)};
  ASSERT_TRUE(pipeline.Submit(batch).ok());
  pipeline.Stop();
  pipeline.Stop();  // idempotent
  EXPECT_TRUE(pipeline.Submit(batch).IsResourceExhausted());
  pipeline.Flush();  // writer gone: returns immediately
  // Stop() drained and published everything first.
  EXPECT_EQ(live.Current().batches_applied, 1u);
}

TEST(IngestPipeline, CheckpointsAreLoadableSnapshotsOfThePublishedVersion) {
  Dataset dataset = test::MakeRandomKeyword(60, 200, 12);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.5);
  LiveWorkspace live(dataset.graph, oracle,
                     ColdPrepare(dataset.graph, oracle, 2));
  IngestOptions options;
  options.checkpoint_path = ::testing::TempDir() + "/ingest_ckpt.krws";
  options.checkpoint_every_applies = 1;
  IngestPipeline pipeline(&live, options);
  pipeline.Start();

  Rng rng(55);
  EdgeSet mirror(dataset.graph);
  for (int b = 0; b < 3; ++b) {
    std::vector<EdgeUpdate> batch = RandomBatch(mirror, 3, 3, &rng);
    for (const EdgeUpdate& upd : batch) mirror.Apply(upd);
    ASSERT_TRUE(pipeline.Submit(batch).ok());
  }
  pipeline.Stop();  // final forced checkpoint of the final publication

  IngestStatsSnapshot stats = pipeline.Stats();
  EXPECT_GE(stats.checkpoints_written, 1u);
  EXPECT_EQ(stats.checkpoint_failures, 0u);

  PreparedWorkspace loaded;
  Status s = LoadWorkspaceSnapshot(options.checkpoint_path, &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(test::DiffWorkspaces(loaded, *live.Current().workspace), "");
  std::remove(options.checkpoint_path.c_str());
}

TEST(IngestPipeline, StatsSnapshotSerializesEveryCounter) {
  IngestStatsSnapshot stats;
  stats.submitted_batches = 3;
  stats.published_stream_updates = 14;
  stats.apply_seconds = 0.5;
  stats.max_staleness_seconds = 1.2345678901234;  // > 6 significant digits
  const std::string json = stats.ToJson();
  for (const char* key :
       {"submitted_batches", "rejected_updates", "annihilated_updates",
        "applied_batches", "rolled_back_batches", "published_epoch",
        "published_stream_batches", "checkpoints_written", "queued_updates",
        "batch_target", "staleness_batches", "max_staleness_seconds",
        "updates_per_second"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
  }
  EXPECT_DOUBLE_EQ(stats.UpdatesPerSecond(), 28.0);

  // Doubles round-trip exactly, not at the stream's default 6 digits.
  const std::string key = "\"max_staleness_seconds\":";
  const size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(std::strtod(json.c_str() + at + key.size(), nullptr),
            stats.max_staleness_seconds)
      << json;
}

}  // namespace
}  // namespace krcore
