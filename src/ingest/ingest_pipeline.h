#ifndef KRCORE_INGEST_INGEST_PIPELINE_H_
#define KRCORE_INGEST_INGEST_PIPELINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/workspace_update.h"
#include "ingest/edge_coalescer.h"
#include "ingest/live_workspace.h"
#include "util/field_table.h"
#include "util/status.h"

namespace krcore {

struct IngestOptions {
  /// Passed through to every repair batch (dirty-fraction fallback
  /// threshold, join strategy; per-batch deadline is writer-side only —
  /// an expired batch rolls back and is dropped, see `rolled_back`).
  UpdateOptions update;

  /// Adaptive batch sizing: the writer merges whole submitted batches into
  /// one repair until the RAW update count reaches the current target,
  /// then applies. The target starts at `initial_batch_target` and adapts
  /// between the min/max bounds against two observed signals:
  ///   - a repair that tripped the dirty-fraction fallback (full component
  ///     re-sweep instead of incremental repair) halves the target —
  ///     smaller batches keep the touched fraction under the threshold
  ///     where incremental repair beats re-sweeping;
  ///   - a full-target repair that finished under `target_apply_seconds`
  ///     doubles it — coalescing works better on longer windows and the
  ///     per-batch fixed costs amortize.
  uint32_t initial_batch_target = 256;
  uint32_t min_batch_target = 16;
  uint32_t max_batch_target = 65536;
  double target_apply_seconds = 0.05;

  /// Publication cadence = the staleness bound: the published version
  /// never trails the successor by more than this many APPLIED repair
  /// batches (each covering at most ~max_batch_target submitted updates).
  /// 1 = publish after every repair.
  uint32_t publish_every_applies = 1;

  /// Submit() blocks (backpressure) while this many raw updates are queued.
  size_t max_queued_updates = 1 << 20;

  /// Non-empty: every `checkpoint_every_applies` successful repairs, the
  /// latest published version is streamed crash-atomically to this path
  /// (PR 7 SaveWorkspaceSnapshot: temp file + POSIX rename, so a crash
  /// mid-checkpoint leaves the previous file loadable). Failures are
  /// counted, not fatal — the pipeline outlives a full disk.
  std::string checkpoint_path;
  uint32_t checkpoint_every_applies = 64;
};

/// Point-in-time counters for the whole pipeline; all monotonic except the
/// instantaneous gauges (queue depth, batch target, staleness).
struct IngestStatsSnapshot {
  // Intake.
  uint64_t submitted_batches = 0;
  uint64_t submitted_updates = 0;
  uint64_t rejected_updates = 0;  // malformed (self-loop / out-of-range)
  // Coalescing (see EdgeBatchCoalescer::Stats).
  uint64_t merged_updates = 0;
  uint64_t annihilated_updates = 0;
  uint64_t dropped_noop_updates = 0;
  uint64_t emitted_updates = 0;  // what the repair engine actually saw
  // Repair.
  uint64_t applied_batches = 0;     // successful repair batches
  uint64_t rolled_back_batches = 0; // aborted + dropped (failpoint/deadline)
  uint64_t fallback_rebuilds = 0;
  double apply_seconds = 0.0;
  // Publication.
  uint64_t publishes = 0;
  double publish_seconds = 0.0;
  uint64_t published_epoch = 0;
  uint64_t published_stream_batches = 0;  // stream position (client batches)
  uint64_t published_stream_updates = 0;
  // Checkpointing.
  uint64_t checkpoints_written = 0;
  uint64_t checkpoint_failures = 0;
  // Gauges.
  uint64_t queued_updates = 0;
  uint32_t batch_target = 0;
  uint64_t staleness_batches = 0;  // applied-but-unpublished repair batches
  double staleness_seconds = 0.0;
  double max_staleness_seconds = 0.0;  // high-water mark since Start()

  /// Sustained repair throughput: raw updates consumed per second of
  /// writer busy time (apply + publish). 0 before the first repair.
  double UpdatesPerSecond() const;

  /// The Fields() object plus the computed `updates_per_second`.
  std::string ToJson() const;

  static constexpr auto Fields() {
    using S = IngestStatsSnapshot;
    return std::tuple{
        Field{"submitted_batches", &S::submitted_batches},
        Field{"submitted_updates", &S::submitted_updates},
        Field{"rejected_updates", &S::rejected_updates},
        Field{"merged_updates", &S::merged_updates},
        Field{"annihilated_updates", &S::annihilated_updates},
        Field{"dropped_noop_updates", &S::dropped_noop_updates},
        Field{"emitted_updates", &S::emitted_updates},
        Field{"applied_batches", &S::applied_batches},
        Field{"rolled_back_batches", &S::rolled_back_batches},
        Field{"fallback_rebuilds", &S::fallback_rebuilds},
        Field{"apply_seconds", &S::apply_seconds},
        Field{"publishes", &S::publishes},
        Field{"publish_seconds", &S::publish_seconds},
        Field{"published_epoch", &S::published_epoch},
        Field{"published_stream_batches", &S::published_stream_batches},
        Field{"published_stream_updates", &S::published_stream_updates},
        Field{"checkpoints_written", &S::checkpoints_written},
        Field{"checkpoint_failures", &S::checkpoint_failures},
        Field{"queued_updates", &S::queued_updates},
        Field{"batch_target", &S::batch_target},
        Field{"staleness_batches", &S::staleness_batches},
        Field{"staleness_seconds", &S::staleness_seconds},
        Field{"max_staleness_seconds", &S::max_staleness_seconds},
    };
  }
};

/// The continuous-ingestion driver: a dedicated writer thread that drains
/// submitted edge batches through the coalescer into LiveWorkspace repairs
/// and publications, with adaptive batch sizing, bounded-staleness
/// publication, backpressure, and optional crash-atomic checkpointing.
///
/// Ordering and delivery contract:
///   - submitted batches are consumed in submission order; the coalescer
///     may merge several into one repair (latest-wins per edge — exactly
///     equivalent to replaying them in order, see EdgeBatchCoalescer);
///   - a repair that rolls back (injected failpoint, per-batch deadline)
///     drops the batches it covered and counts them in
///     `rolled_back_batches` — at-most-once delivery. The published
///     version is untouched by the failure (the successor rolled back
///     bit-identically) and later batches proceed. Callers that need
///     exactly-once resubmit on a rolled_back_batches increase;
///   - malformed updates (self-loops, out-of-range ids) are quarantined
///     individually (`rejected_updates`) instead of poisoning their batch.
///
/// Thread contract: Submit/Flush/Stats from any thread; Start/Stop from
/// one owner thread. Readers never touch the pipeline — they resolve
/// versions straight from the LiveWorkspace.
class IngestPipeline {
 public:
  /// `live` must outlive the pipeline. The pipeline is the sole writer to
  /// it between Start() and Stop().
  IngestPipeline(LiveWorkspace* live, const IngestOptions& options);
  ~IngestPipeline();  // calls Stop()

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  void Start();

  /// Drains the queue, applies and publishes everything, writes a final
  /// checkpoint (when configured), and joins the writer. Idempotent.
  void Stop();

  /// Enqueues one batch, blocking while the queue holds more than
  /// `max_queued_updates` raw updates (backpressure beats unbounded
  /// memory). ResourceExhausted after Stop(). An empty batch is accepted
  /// and advances the stream position without repair work.
  Status Submit(std::span<const EdgeUpdate> batch);

  /// Blocks until everything submitted so far is applied AND published
  /// (staleness zero at return, barring concurrent submitters).
  void Flush();

  IngestStatsSnapshot Stats() const;

 private:
  void WriterLoop();
  /// Merges queued batches (up to the adaptive target) into one repair +
  /// publication/checkpoint checks. Enters and leaves with queue_mu_ held;
  /// drops it for the heavy work so submitters keep flowing.
  void DrainAndApply(std::unique_lock<std::mutex>& lock);
  // Both called by the writer with queue_mu_ NOT held.
  void MaybePublish(bool force);
  void MaybeCheckpoint(bool force);

  LiveWorkspace* live_;
  IngestOptions options_;
  EdgeBatchCoalescer coalescer_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;   // writer waits: work or stop
  std::condition_variable space_cv_;   // submitters wait: room or flush done
  std::deque<std::vector<EdgeUpdate>> queue_;
  size_t queued_updates_ = 0;
  bool stop_requested_ = false;
  bool started_ = false;
  bool writer_exited_ = false;
  uint64_t flush_requested_ = 0;  // generation counters: Flush() waits
  uint64_t flush_completed_ = 0;  // until completed catches requested

  // Writer-private pacing state (only the writer thread touches these).
  uint32_t batch_target_ = 0;
  uint32_t applies_since_publish_ = 0;
  uint32_t applies_since_checkpoint_ = 0;
  uint64_t last_checkpoint_epoch_ = UINT64_MAX;  // sentinel: none yet

  mutable std::mutex stats_mu_;
  IngestStatsSnapshot stats_;

  std::thread writer_;
};

}  // namespace krcore

#endif  // KRCORE_INGEST_INGEST_PIPELINE_H_
