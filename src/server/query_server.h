#ifndef KRCORE_SERVER_QUERY_SERVER_H_
#define KRCORE_SERVER_QUERY_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/parallel.h"
#include "server/protocol.h"
#include "server/workspace_registry.h"
#include "util/field_table.h"
#include "util/status.h"

namespace krcore {

/// Configuration of the staged query executor.
struct ServerOptions {
  /// Admission bound: queries admitted but not yet responded (coalesced
  /// followers are free — they add no execution). A full server rejects
  /// with ResourceExhausted instead of queueing unboundedly.
  uint32_t queue_capacity = 64;
  /// Stage workers. One each already pipelines: query B derives while
  /// query A mines.
  uint32_t derive_threads = 1;
  uint32_t mine_threads = 1;
  /// Deadline applied to requests that carry no timeout of their own,
  /// measured from admission. <= 0 means no default deadline.
  double default_timeout_seconds = 60.0;
  /// Share one derivation + one mining pass among concurrently admitted
  /// identical cells (same workspace, op, k, r, limit).
  bool coalesce = true;
  /// Per-query mining parallelism (the existing work-stealing TaskPool).
  ParallelOptions parallel;
  /// Search configuration templates; k, deadline and parallel are
  /// overwritten per query.
  EnumOptions enumerate = AdvEnumOptions(1);
  MaxOptions maximum = AdvMaxOptions(1);
};

/// Per-stage instrumentation counters (MiningStats-style: plain summed
/// integers plus wall-clock accumulators; snapshot via QueryServer::Stats).
struct ServerStageStats {
  uint64_t entered = 0;    // jobs a stage worker picked up
  uint64_t completed = 0;  // jobs that left the stage successfully
  uint64_t failed = 0;     // jobs the stage failed (fault, error, deadline)
  double wait_seconds = 0.0;     // summed time jobs sat queued before it
  double service_seconds = 0.0;  // summed stage execution time
  uint64_t max_queue_depth = 0;  // high-water mark of its input queue

  static constexpr auto Fields() {
    using S = ServerStageStats;
    return std::tuple{
        Field{"entered", &S::entered},
        Field{"completed", &S::completed},
        Field{"failed", &S::failed},
        Field{"wait_seconds", &S::wait_seconds},
        Field{"service_seconds", &S::service_seconds},
        Field{"max_queue_depth", &S::max_queue_depth},
    };
  }
};

/// One consistent snapshot of the server's counters.
struct ServerStatsSnapshot {
  uint64_t received = 0;            // Submit calls
  uint64_t admitted = 0;            // entered the pipeline as a new job
  uint64_t coalesce_hits = 0;       // requests attached to an in-flight job
  uint64_t rejected_queue_full = 0; // ResourceExhausted at admission
  uint64_t rejected_unservable = 0; // unknown workspace / (k,r) out of range
  uint64_t deadline_expired = 0;    // responses with DeadlineExceeded
  uint64_t injected_faults = 0;     // responses failed by a server/* failpoint
  uint64_t completed_ok = 0;        // responses with OK
  uint64_t queue_depth = 0;         // jobs in flight right now
  ServerStageStats derive;
  ServerStageStats mine;
  /// Registry contents at snapshot time: serving identity plus load
  /// observability (snapshot version, load seconds, lazy/mmap mode).
  std::vector<WorkspaceRegistry::Entry> workspaces;

  /// The JSON stats dump (one object, stable key order), served by the
  /// transport's `stats` command and krcore_server --stats: the Fields()
  /// counters, then `derive`, `mine` and the `workspaces` entries.
  std::string ToJson() const;

  static constexpr auto Fields() {
    using S = ServerStatsSnapshot;
    return std::tuple{
        Field{"received", &S::received},
        Field{"admitted", &S::admitted},
        Field{"coalesce_hits", &S::coalesce_hits},
        Field{"rejected_queue_full", &S::rejected_queue_full},
        Field{"rejected_unservable", &S::rejected_unservable},
        Field{"deadline_expired", &S::deadline_expired},
        Field{"injected_faults", &S::injected_faults},
        Field{"completed_ok", &S::completed_ok},
        Field{"queue_depth", &S::queue_depth},
    };
  }
};

/// The long-lived query server: a staged executor over a WorkspaceRegistry.
///
///   parse -> admit -> derive -> mine -> respond
///
/// Parsing lives in the transport (server/protocol.h, server/serve.h).
/// Admission (Submit) validates the request against the registry, applies
/// the queue bound, and coalesces identical in-flight cells: concurrently
/// admitted requests for the same (workspace, op, k, r, limit) share ONE
/// derivation and ONE mining pass whose response fans out to every waiter
/// (the coalesced execution runs under the leader's deadline). The derive
/// stage turns the registered base workspace into the query's (k, r) cell
/// via DeriveWorkspace — zero oracle calls, see core/pipeline.h — and feeds
/// the mine stage, which runs the branch-and-bound engines with per-query
/// deadlines on the configured TaskPool parallelism. Stages run on their
/// own worker threads, so a slow mine overlaps the next query's derive.
///
/// Failure injection: the `server/admit`, `server/derive`, `server/mine`
/// and `server/respond` failpoints (util/failpoint.h) fire at the stage
/// boundaries; a fired site fails only the affected query with a clean
/// INTERNAL response — the server keeps serving.
///
/// Thread safety: Submit may be called from any number of threads. The
/// registry may be mutated concurrently (Replace/Remove); in-flight queries
/// keep the substrate they resolved at admission.
class QueryServer {
 public:
  QueryServer(const WorkspaceRegistry* registry, const ServerOptions& options);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Spawns the stage workers. Submit before Start queues work.
  void Start();

  /// Stops accepting, drains every in-flight job, then joins the workers.
  /// Idempotent; the destructor calls it.
  void Stop();

  /// Admission keeps accepting (and coalescing) but stage workers pick up
  /// no new jobs until Resume — the drain/hold point for admin operations,
  /// and what lets tests line up concurrent duplicate cells
  /// deterministically.
  void Pause();
  void Resume();

  /// Admits `request` (or rejects it with an immediately ready response).
  /// The returned future resolves exactly once; it never throws.
  std::shared_future<QueryResponse> Submit(const QueryRequest& request);

  /// Submit + wait: the synchronous client call.
  QueryResponse Execute(const QueryRequest& request);

  /// Blocks until every admitted job has been responded to.
  void Drain();

  ServerStatsSnapshot Stats() const;

  const WorkspaceRegistry* registry() const { return registry_; }
  const ServerOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Waiter {
    std::string id;
    bool coalesced = false;
    Clock::time_point admitted_at;
    std::promise<QueryResponse> promise;
  };

  /// One admitted execution: the leader's request plus every coalesced
  /// waiter. Moves derive_queue_ -> mine_queue_ -> responded.
  struct Job {
    QueryRequest request;  // r resolved to the served threshold
    Deadline deadline;
    std::string key;
    std::shared_ptr<const PreparedWorkspace> base;
    /// Live-serving metadata sampled at admission (see
    /// WorkspaceRegistry::Resolved); copied onto every waiter's response.
    bool live = false;
    uint64_t epoch = 0;
    StalenessReport staleness;
    /// Filled by the derive stage when the cell differs from the base's
    /// identity; otherwise the base components serve directly.
    PreparedWorkspace derived;
    bool needs_derive = false;
    /// Set when a server/* failpoint failed this job (stats attribution).
    bool injected_fault = false;
    Clock::time_point derive_enqueued_at{};
    Clock::time_point mine_enqueued_at{};
    Clock::time_point exec_started_at{};
    double derive_seconds = 0.0;
    std::vector<Waiter> waiters;
  };

  void DeriveLoop();
  void MineLoop();
  /// Pops the next job from `queue` honoring pause/stop; false = shut down.
  bool NextJob(std::deque<std::shared_ptr<Job>>* queue,
               std::condition_variable* cv, std::shared_ptr<Job>* out);
  /// Runs the mining/derive-op payload for `job` into `response`.
  void ExecuteJob(Job* job, QueryResponse* response);
  /// Removes the job from the in-flight map and fulfills every waiter with
  /// a per-waiter copy of `response`.
  void Respond(const std::shared_ptr<Job>& job, QueryResponse response);
  /// Ready-made failure response for pre-admission rejections.
  std::shared_future<QueryResponse> Reject(const QueryRequest& request,
                                           Status status);

  const WorkspaceRegistry* registry_;
  const ServerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable derive_cv_;
  std::condition_variable mine_cv_;
  std::condition_variable drained_cv_;
  std::deque<std::shared_ptr<Job>> derive_queue_;
  std::deque<std::shared_ptr<Job>> mine_queue_;
  /// Coalescing map: key -> in-flight job (erased at respond time, under
  /// mu_, so a request can never attach to an already-responded job).
  std::unordered_map<std::string, std::shared_ptr<Job>> inflight_;
  uint64_t jobs_inflight_ = 0;
  bool started_ = false;
  bool paused_ = false;
  bool stop_accepting_ = false;
  bool stop_workers_ = false;
  ServerStatsSnapshot stats_;
  std::vector<std::thread> workers_;
};

}  // namespace krcore

#endif  // KRCORE_SERVER_QUERY_SERVER_H_
