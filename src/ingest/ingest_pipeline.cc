#include "ingest/ingest_pipeline.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "snapshot/workspace_snapshot.h"
#include "util/json.h"

namespace krcore {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

double IngestStatsSnapshot::UpdatesPerSecond() const {
  const double busy = apply_seconds + publish_seconds;
  if (busy <= 0.0) return 0.0;
  return static_cast<double>(published_stream_updates) / busy;
}

std::string IngestStatsSnapshot::ToJson() const {
  std::ostringstream out;
  out << "{";
  out << "\"submitted_batches\":" << submitted_batches;
  out << ",\"submitted_updates\":" << submitted_updates;
  out << ",\"rejected_updates\":" << rejected_updates;
  out << ",\"merged_updates\":" << merged_updates;
  out << ",\"annihilated_updates\":" << annihilated_updates;
  out << ",\"dropped_noop_updates\":" << dropped_noop_updates;
  out << ",\"emitted_updates\":" << emitted_updates;
  out << ",\"applied_batches\":" << applied_batches;
  out << ",\"rolled_back_batches\":" << rolled_back_batches;
  out << ",\"fallback_rebuilds\":" << fallback_rebuilds;
  out << ",\"apply_seconds\":" << JsonDouble(apply_seconds);
  out << ",\"publishes\":" << publishes;
  out << ",\"publish_seconds\":" << JsonDouble(publish_seconds);
  out << ",\"published_epoch\":" << published_epoch;
  out << ",\"published_stream_batches\":" << published_stream_batches;
  out << ",\"published_stream_updates\":" << published_stream_updates;
  out << ",\"checkpoints_written\":" << checkpoints_written;
  out << ",\"checkpoint_failures\":" << checkpoint_failures;
  out << ",\"queued_updates\":" << queued_updates;
  out << ",\"batch_target\":" << batch_target;
  out << ",\"staleness_batches\":" << staleness_batches;
  out << ",\"staleness_seconds\":" << JsonDouble(staleness_seconds);
  out << ",\"max_staleness_seconds\":" << JsonDouble(max_staleness_seconds);
  out << ",\"updates_per_second\":" << JsonDouble(UpdatesPerSecond());
  out << "}";
  return out.str();
}

IngestPipeline::IngestPipeline(LiveWorkspace* live,
                               const IngestOptions& options)
    : live_(live),
      options_(options),
      // The presence oracle sees the successor's applied-but-unpublished
      // similarity-filtered edge set. That is the exact membership test
      // for no-op dropping: for a similar pair it equals raw-edge
      // membership, and for a dissimilar pair both insert and remove are
      // structural no-ops anyway (preparation filters the edge out), so
      // "absent" makes the coalescer drop the remove and the updater
      // ignore the insert — either way the workspace effect is identical
      // to replaying the raw stream.
      coalescer_(live->num_vertices(),
                 [live](VertexId u, VertexId v) {
                   return live->HasSimilarEdge(u, v);
                 }),
      batch_target_(std::clamp(options.initial_batch_target,
                               options.min_batch_target,
                               options.max_batch_target)) {}

IngestPipeline::~IngestPipeline() { Stop(); }

void IngestPipeline::Start() {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (started_ || stop_requested_) return;
  started_ = true;
  writer_ = std::thread(&IngestPipeline::WriterLoop, this);
}

void IngestPipeline::Stop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stop_requested_) {
      // Second caller (or the destructor after an explicit Stop): the
      // writer is already winding down; fall through to join.
    }
    stop_requested_ = true;
    queue_cv_.notify_all();
    space_cv_.notify_all();
  }
  if (writer_.joinable()) writer_.join();
}

Status IngestPipeline::Submit(std::span<const EdgeUpdate> batch) {
  std::unique_lock<std::mutex> lock(queue_mu_);
  space_cv_.wait(lock, [&] {
    return stop_requested_ || queued_updates_ < options_.max_queued_updates;
  });
  if (stop_requested_) {
    return Status::ResourceExhausted(
        "ingest pipeline is stopped; batch not accepted");
  }
  queued_updates_ += batch.size();
  queue_.emplace_back(batch.begin(), batch.end());
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    ++stats_.submitted_batches;
    stats_.submitted_updates += batch.size();
  }
  queue_cv_.notify_one();
  return Status::OK();
}

void IngestPipeline::Flush() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  if (!started_ || writer_exited_) return;  // no writer to flush against
  const uint64_t gen = ++flush_requested_;
  queue_cv_.notify_all();
  space_cv_.wait(lock,
                 [&] { return flush_completed_ >= gen || writer_exited_; });
}

IngestStatsSnapshot IngestPipeline::Stats() const {
  // Lock order everywhere: queue_mu_ before stats_mu_.
  std::lock_guard<std::mutex> qlock(queue_mu_);
  IngestStatsSnapshot snap;
  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    snap = stats_;
  }
  snap.queued_updates = queued_updates_;
  snap.batch_target = batch_target_;
  const StalenessReport staleness = live_->Staleness();
  snap.staleness_batches = staleness.batches;
  snap.staleness_seconds = staleness.seconds;
  snap.max_staleness_seconds =
      std::max(snap.max_staleness_seconds, staleness.seconds);
  return snap;
}

void IngestPipeline::WriterLoop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  while (true) {
    queue_cv_.wait(lock, [&] {
      return stop_requested_ || !queue_.empty() ||
             flush_requested_ > flush_completed_;
    });
    if (!queue_.empty()) {
      DrainAndApply(lock);
      continue;  // re-check: more work, a flush, or stop may be pending
    }
    if (flush_requested_ > flush_completed_) {
      const uint64_t gen = flush_requested_;
      lock.unlock();
      MaybePublish(/*force=*/true);
      lock.lock();
      flush_completed_ = gen;
      space_cv_.notify_all();
      continue;
    }
    if (stop_requested_) {
      lock.unlock();
      MaybePublish(/*force=*/true);
      MaybeCheckpoint(/*force=*/true);
      lock.lock();
      // Everything is drained and published — any pending Flush() is
      // satisfied by construction.
      flush_completed_ = flush_requested_;
      writer_exited_ = true;
      space_cv_.notify_all();
      return;
    }
  }
}

void IngestPipeline::DrainAndApply(std::unique_lock<std::mutex>& lock) {
  // Take whole submitted batches — never a partial one — so every stream
  // position the pipeline ever publishes lands on a client batch boundary
  // (ingest_test precomputes its ground-truth workspaces at exactly those
  // boundaries). At least one batch is taken even if it alone overshoots
  // the adaptive target.
  std::vector<std::vector<EdgeUpdate>> batches;
  size_t raw = 0;
  while (!queue_.empty() && (batches.empty() || raw < batch_target_)) {
    raw += queue_.front().size();
    batches.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  queued_updates_ -= raw;
  lock.unlock();
  space_cv_.notify_all();  // room freed for blocked submitters

  const EdgeBatchCoalescer::Stats before = coalescer_.stats();
  for (const auto& batch : batches) {
    for (const EdgeUpdate& update : batch) {
      // Malformed updates are quarantined individually (counted below via
      // the stats delta) instead of poisoning their whole batch.
      (void)coalescer_.Add(update);
    }
  }
  const std::vector<EdgeUpdate> coalesced = coalescer_.Drain();
  const EdgeBatchCoalescer::Stats after = coalescer_.stats();

  UpdateReport report;
  const Clock::time_point apply_start = Clock::now();
  Status applied = live_->Apply(coalesced, options_.update, batches.size(),
                                raw, &report);
  if (!applied.ok()) {
    // All-or-nothing rollback (deadline, failpoint): the successor is
    // bit-identical to its pre-batch state and nothing can leak into a
    // publication. Drop the covered batches (at-most-once) but still
    // advance the stream position so staleness and Flush() stay truthful.
    (void)live_->Apply({}, options_.update, batches.size(), raw, nullptr);
  }
  const double apply_seconds = SecondsSince(apply_start);

  {
    std::lock_guard<std::mutex> slock(stats_mu_);
    stats_.rejected_updates += after.rejected - before.rejected;
    stats_.merged_updates += after.merged - before.merged;
    stats_.annihilated_updates += after.annihilated - before.annihilated;
    stats_.dropped_noop_updates += after.dropped_noops - before.dropped_noops;
    stats_.emitted_updates += after.emitted - before.emitted;
    stats_.apply_seconds += apply_seconds;
    if (applied.ok()) {
      ++stats_.applied_batches;
      stats_.fallback_rebuilds += report.fallback_rebuilds;
    } else {
      stats_.rolled_back_batches += batches.size();
    }
  }

  // Adaptive pacing: a tripped dirty-fraction fallback (or an aborted
  // batch) says the window was too wide — halve it so incremental repair
  // stays cheaper than re-sweeping. A full-width window that repaired
  // under the latency target says the opposite — widen it so coalescing
  // sees more churn and fixed costs amortize.
  if (applied.ok() && report.fallback_rebuilds == 0) {
    if (raw >= batch_target_ && apply_seconds < options_.target_apply_seconds) {
      batch_target_ = std::min(options_.max_batch_target, batch_target_ * 2);
    }
  } else {
    batch_target_ = std::max(options_.min_batch_target, batch_target_ / 2);
  }

  ++applies_since_publish_;
  ++applies_since_checkpoint_;
  MaybePublish(/*force=*/false);
  MaybeCheckpoint(/*force=*/false);
  lock.lock();
}

void IngestPipeline::MaybePublish(bool force) {
  if (applies_since_publish_ == 0) return;
  if (!force && applies_since_publish_ < options_.publish_every_applies) {
    return;
  }
  // Staleness peaks right before a publication — sample the high-water
  // mark here.
  const StalenessReport pre = live_->Staleness();
  const Clock::time_point start = Clock::now();
  live_->Publish();
  const double publish_seconds = SecondsSince(start);
  const PublishedVersion version = live_->Current();
  applies_since_publish_ = 0;
  std::lock_guard<std::mutex> slock(stats_mu_);
  if (version.epoch != stats_.published_epoch || stats_.publishes == 0) {
    ++stats_.publishes;
  }
  stats_.publish_seconds += publish_seconds;
  stats_.published_epoch = version.epoch;
  stats_.published_stream_batches = version.batches_applied;
  stats_.published_stream_updates = version.updates_applied;
  stats_.max_staleness_seconds =
      std::max(stats_.max_staleness_seconds, pre.seconds);
}

void IngestPipeline::MaybeCheckpoint(bool force) {
  if (options_.checkpoint_path.empty()) return;
  if (!force &&
      applies_since_checkpoint_ < options_.checkpoint_every_applies) {
    return;
  }
  applies_since_checkpoint_ = 0;
  const PublishedVersion version = live_->Current();
  if (version.epoch == last_checkpoint_epoch_) return;  // nothing new
  // PR 7 crash-atomic save: temp file + rename, so a crash mid-write
  // leaves the previous checkpoint loadable.
  Status saved =
      SaveWorkspaceSnapshot(*version.workspace, options_.checkpoint_path);
  std::lock_guard<std::mutex> slock(stats_mu_);
  if (saved.ok()) {
    ++stats_.checkpoints_written;
    last_checkpoint_epoch_ = version.epoch;
  } else {
    ++stats_.checkpoint_failures;
  }
}

}  // namespace krcore
