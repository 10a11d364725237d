#ifndef KRCORE_CORE_SEARCH_DRIVER_H_
#define KRCORE_CORE_SEARCH_DRIVER_H_

// The M/C/E set-enumeration that AdvEnum (Algorithm 3) and AdvMax
// (Algorithm 5) share: per-component jobs, the branch step, subtree forking
// onto the calling thread's TaskPool, emission of the components of M ∪ C,
// and the component loop. The two searches differ only in their extra
// pruning, the branch they visit first and what they do with a (k,r)-core,
// which each supplies as a SearchTask subclass. Internal to enumerate.cc /
// maximum.cc.

#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/early_termination.h"
#include "core/krcore_types.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/search_context.h"
#include "core/search_order.h"
#include "graph/connectivity.h"
#include "util/logging.h"
#include "util/timer.h"

namespace krcore {

/// State shared by every task of one component: the root task and every
/// subtree it forks. Tasks merge their stats and first error here when they
/// finish.
template <typename Options, typename Sink>
struct ComponentJob {
  ComponentJob(const ComponentContext& c, const Options& o, Sink* s,
               std::atomic<bool>* f, TaskPool* p)
      : comp(c), options(o), sink(s), failed(f), pool(p) {}

  const ComponentContext& comp;
  const Options& options;
  /// Where the component's cores go. Tasks reach it concurrently; a sink
  /// that is not thread-safe itself is guarded by `mu`.
  Sink* sink;
  std::atomic<bool>* failed;  // any task of any component errored: drain
  TaskPool* pool;             // null = sequential (no subtree forking)

  std::mutex mu;
  MiningStats stats;
  Status status;  // first non-OK of any task

  void Finish(const MiningStats& task_stats, const Status& task_status) {
    if (!task_status.ok()) failed->store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    stats.MergeFrom(task_stats);
    if (status.ok() && !task_status.ok()) status = task_status;
  }
};

/// The per-node state a search without one passes down its chain.
struct NoFrame {};

/// Seed of the VertexOrder::kRandom vertex order.
constexpr uint64_t kRandomOrderSeed = 7;

/// One task of a component's branch-and-bound: the component root or a
/// forked subtree. It owns its SearchContext and all per-task scratch, so
/// tasks share nothing mutable but the job and the sink.
///
/// `Derived` (CRTP, so the node path makes no virtual call) supplies:
///  - `Derived(Job*, SearchContext)`, the constructor for both task kinds;
///  - `static bool TracksExcluded(const Options&)`: whether E is needed;
///  - `static constexpr bool kSumBranches` for SearchOrderPolicy::Choose and
///    `static constexpr const char* kBudgetExpired`, the deadline message;
///  - `bool Prune(Frame*)`: its cutoffs after early termination (true =
///    prune the node); it may update the node's frame, which both children
///    inherit by value;
///  - `Status EmitCore(const std::vector<VertexId>& local_core)`: what it
///    does with one connected (k,r)-core.
template <typename Derived, typename Opts, typename Sink, typename Frame>
class SearchTask {
 public:
  using Options = Opts;
  using Job = ComponentJob<Options, Sink>;

  /// Runs the component root: the retention fixpoint, then the whole tree.
  void RunRoot() { Finish(Promote() ? Visit(Frame{}) : Status::OK()); }

 protected:
  SearchTask(Job* job, SearchContext ctx, BranchOrder branch_order)
      : job_(job),
        ctx_(std::move(ctx)),
        policy_(job->options.order, branch_order, job->options.lambda,
                kRandomOrderSeed),
        et_checker_(job->comp) {}

  const Options& options() const { return job_->options; }

  /// `local_core` in sorted parent ids.
  VertexSet ParentIds(const std::vector<VertexId>& local_core) const {
    VertexSet parent_ids;
    parent_ids.reserve(local_core.size());
    for (VertexId v : local_core) parent_ids.push_back(job_->comp.to_parent[v]);
    std::sort(parent_ids.begin(), parent_ids.end());
    return parent_ids;
  }

  Job* const job_;
  SearchContext ctx_;
  MiningStats stats_;

 private:
  Derived& derived() { return static_cast<Derived&>(*this); }

  void Finish(const Status& s) { job_->Finish(stats_, s); }

  /// Runs a forked subtree: applies the branch the parent deferred, then
  /// explores the subtree.
  void RunBranch(bool expand, VertexId u, Frame frame) {
    Finish(Step(expand, u) ? Visit(frame) : Status::OK());
  }

  /// The retention rule (Thm 4 / Remark 1) to its fixpoint; false when the
  /// branch died.
  bool Promote() {
    return !options().use_retention ||
           ctx_.PromoteSimilarityFree(&stats_.promotions);
  }

  /// Applies one branch decision on u; false when the branch died.
  bool Step(bool expand, VertexId u) {
    bool alive;
    if (expand) {
      ++stats_.expand_branches;
      alive = ctx_.Expand(u);
    } else {
      ++stats_.shrink_branches;
      alive = ctx_.Shrink(u);
    }
    return alive && Promote();
  }

  /// Visits one child inline and backtracks.
  Status Branch(bool expand, VertexId u, const Frame& frame) {
    size_t mark = ctx_.Mark();
    Status s = Step(expand, u) ? Visit(frame) : Status::OK();
    ctx_.RewindTo(mark);
    return s;
  }

  /// One search node: prune, emit or branch.
  Status Visit(Frame frame) {
    if ((stats_.search_nodes++ & 0x3F) == 0 && options().deadline.Expired()) {
      return Status::DeadlineExceeded(Derived::kBudgetExpired);
    }
    // Another task failed (deadline): drain quickly, its status wins.
    if (job_->failed->load(std::memory_order_relaxed)) return Status::OK();
    KRCORE_DCHECK(!ctx_.dead());

    // Early termination (Theorem 5): every core of this subtree extends to
    // a strictly larger one found elsewhere.
    if (options().use_early_termination && et_checker_.CanTerminate(ctx_)) {
      ++stats_.early_terminations;
      return Status::OK();
    }
    if (derived().Prune(&frame)) return Status::OK();

    // Emission condition: with retention, C == SF(C) makes M ∪ C a
    // (k,r)-core (Theorem 4); without retention we only emit at C == ∅.
    const bool emit = options().use_retention
                          ? ctx_.CandidatesAllSimilarityFree()
                          : ctx_.c_list().empty();
    if (emit) return Emit();

    // Branch on a vertex of C \ SF(C) (Thm 4), or of all of C.
    const BranchChoice choice = policy_.Choose(
        ctx_, /*restrict_to_non_sf=*/options().use_retention,
        Derived::kSumBranches);
    const VertexId u = choice.vertex;
    const bool first = choice.expand_first;
    if (job_->pool != nullptr && job_->pool->HasFreeWorker()) {
      // A worker is free: fork the second-visited branch onto the pool and
      // continue the first inline. Otherwise a fork would only queue a full
      // state copy, so both branches run inline.
      Spawn(!first, u, frame);
      return Branch(first, u, frame);
    }
    if (Status s = Branch(first, u, frame); !s.ok()) return s;
    return Branch(!first, u, frame);
  }

  void Spawn(bool expand, VertexId u, const Frame& frame) {
    // std::function requires copyable captures; box the forked context.
    auto forked = std::make_shared<SearchContext>(ctx_.Fork());
    Job* job = job_;
    job->pool->Submit([job, forked, expand, u, frame] {
      if (job->failed->load(std::memory_order_relaxed)) return;
      Derived task(job, std::move(*forked));
      task.RunBranch(expand, u, frame);
    });
  }

  /// Emits the connected components of M ∪ C. With M non-empty the
  /// connectivity reduction guarantees a single component.
  Status Emit() {
    if (!ctx_.m_list().empty()) {
      std::vector<VertexId> mc = ctx_.MaterializeMC();
      KRCORE_DCHECK(IsConnectedSubset(job_->comp.graph, mc));
      ++stats_.emitted_candidates;
      return derived().EmitCore(mc);
    }
    for (const auto& local_core :
         ComponentsOfSubset(job_->comp.graph, ctx_.MaterializeMC())) {
      ++stats_.emitted_candidates;
      if (Status s = derived().EmitCore(local_core); !s.ok()) return s;
    }
    return Status::OK();
  }

  SearchOrderPolicy policy_;
  EarlyTerminationChecker et_checker_;
};

/// Searches every component with `Task`, on the calling thread's persistent
/// TaskPool (TaskPool::ForThisThread) for the component roots and the subtrees
/// they fork when options.parallel resolves to more than one thread, else
/// inline in component order, stopping at the first failure. Component i's
/// cores go to `sink_for(i)`; a component for which `skip(comp)` holds when it
/// would start is not searched. Each component passes the first-touch
/// validation gate (mapped snapshots) before its root task walks any row, so a
/// corrupt component fails only the runs that reach it.
///
/// Adds the per-component stats to `*stats` in component order, stopping
/// after the first failed component, whose status goes to `*status` — the
/// shape of a sequential run, whatever the schedule. Returns how many
/// components that covers: the caller keeps the output of exactly those.
template <typename Task, typename SinkFor, typename Skip>
size_t SearchComponents(const std::vector<ComponentContext>& components,
                        const typename Task::Options& options, SinkFor sink_for,
                        Skip skip, MiningStats* stats, Status* status) {
  using Job = typename Task::Job;
  const uint32_t threads = options.parallel.Resolve();
  TaskPool* pool = threads > 1 ? &TaskPool::ForThisThread(threads) : nullptr;
  std::atomic<bool> failed{false};
  std::deque<Job> jobs;
  for (size_t i = 0; i < components.size(); ++i) {
    jobs.emplace_back(components[i], options, sink_for(i), &failed, pool);
  }

  auto run_root = [&options](Job* job) {
    if (Status s = job->comp.EnsureValid(); !s.ok()) {
      job->Finish(MiningStats(), s);
      return;
    }
    Task root(job, SearchContext(job->comp, options.k,
                                 Task::TracksExcluded(options)));
    root.RunRoot();
  };
  if (!pool) {
    for (Job& job : jobs) {
      if (skip(job.comp)) continue;
      run_root(&job);
      if (!job.status.ok()) break;
    }
  } else {
    // The pool outlives this call: report only this call's tasks.
    const uint64_t spawned_before = pool->tasks_spawned();
    const uint64_t stolen_before = pool->tasks_stolen();
    for (Job& job : jobs) {
      pool->Submit([job = &job, &failed, &skip, &run_root] {
        if (failed.load(std::memory_order_relaxed) || skip(job->comp)) return;
        run_root(job);
      });
    }
    pool->Wait();
    stats->tasks_spawned = pool->tasks_spawned() - spawned_before;
    stats->task_steals = pool->tasks_stolen() - stolen_before;
  }

  size_t searched = 0;
  for (const Job& job : jobs) {
    ++searched;
    ++stats->components;
    stats->MergeFrom(job.stats);
    if (!job.status.ok()) {
      *status = job.status;
      break;
    }
  }
  return searched;
}

/// The (graph, oracle) entry points: prepares `g` at options.k, runs
/// `search` on the components and adds the preparation's accounting.
template <typename Result, typename Options, typename Search>
Result PrepareAndSearch(const Graph& g, const SimilarityOracle& oracle,
                        const Options& options, Search search) {
  Timer timer;
  std::vector<ComponentContext> components;
  PreprocessReport prep_report;
  Status prepared =
      PrepareComponents(g, oracle, MiningPipelineOptions(options, options.k),
                        &components, &prep_report);
  const double prepare_seconds = timer.ElapsedSeconds();
  Result result;
  if (prepared.ok()) {
    result = search(components);
  } else {
    result.status = prepared;
  }
  result.stats.prepare_pair_sweeps = 1;
  result.stats.oracle_calls = prep_report.oracle_calls;
  result.stats.prepare_seconds = prepare_seconds;
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace krcore

#endif  // KRCORE_CORE_SEARCH_DRIVER_H_
