#include "core/enumerate.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/early_termination.h"
#include "core/maximal_check.h"
#include "core/parallel.h"
#include "core/result_set.h"
#include "core/search_context.h"
#include "core/search_order.h"
#include "graph/connectivity.h"
#include "util/logging.h"

namespace krcore {
namespace {

/// A task's position in the component's fork tree: the root task has an
/// empty path; a task forked as the parent's n-th spawn appends n. Paths are
/// unique, and merging the per-task ResultSets in lexicographic path order
/// keeps the merge independent of worker scheduling. (Completed-run output
/// is byte-identical across thread counts regardless: enumeration explores
/// the same search space however it is split, and the final
/// FilterNonMaximal + TakeSorted canonicalize the set.)
using TaskPath = std::vector<uint32_t>;

/// Shared per-component enumeration state; every task of the component
/// deposits its (path, results) part and merges stats/status here.
struct EnumJob {
  EnumJob(const ComponentContext& c, const EnumOptions& o,
          std::atomic<bool>* f)
      : comp(c), options(o), failed(f) {}

  const ComponentContext& comp;
  const EnumOptions& options;
  std::atomic<bool>* failed;  // any task of any component errored: drain
  TaskPool* pool = nullptr;   // null = sequential (no subtree forking)

  std::mutex mu;
  MiningStats stats;
  Status status;  // first non-OK of any task
  std::vector<std::pair<TaskPath, ResultSet>> parts;

  void Finish(const MiningStats& task_stats, const Status& task_status,
              TaskPath path, ResultSet results) {
    if (!task_status.ok()) failed->store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    stats.MergeFrom(task_stats);
    if (status.ok() && !task_status.ok()) status = task_status;
    parts.emplace_back(std::move(path), std::move(results));
  }
};

/// One task of the per-component recursive enumerator implementing
/// Algorithm 3 (and, with the advanced features disabled, the pruned
/// Algorithm 1 baseline): either the component root or a forked subtree.
class ComponentEnumerator {
 public:
  /// Root task: fresh context over the whole component.
  explicit ComponentEnumerator(std::shared_ptr<EnumJob> job)
      : ComponentEnumerator(std::move(job), /*placeholder=*/0) {}

  /// Subtree task: adopts a forked context at `depth`; Run(expand, u)
  /// applies the deferred branch op first.
  ComponentEnumerator(std::shared_ptr<EnumJob> job, SearchContext&& ctx,
                      uint32_t depth, TaskPath path)
      : job_(std::move(job)),
        ctx_(std::move(ctx)),
        depth_(depth),
        path_(std::move(path)),
        policy_(job_->options.order, BranchOrder::kExpandFirst,
                job_->options.lambda, job_->options.seed),
        et_checker_(job_->comp),
        maximal_checker_(job_->comp) {}

  void RunRoot() {
    // Root node: the whole component is C; apply the validation rules that
    // hold before any branching.
    Status s = Status::OK();
    bool alive = true;
    if (options().use_retention) {
      alive = ctx_.PromoteSimilarityFree(&stats_.promotions);
    }
    if (alive) s = Visit(depth_);
    job_->Finish(stats_, s, std::move(path_), std::move(results_));
  }

  void RunBranch(bool expand, VertexId u) {
    Status s = Status::OK();
    bool alive;
    if (expand) {
      ++stats_.expand_branches;
      alive = ctx_.Expand(u);
    } else {
      ++stats_.shrink_branches;
      alive = ctx_.Shrink(u);
    }
    if (alive && options().use_retention) {
      alive = ctx_.PromoteSimilarityFree(&stats_.promotions);
    }
    if (alive) s = Visit(depth_);
    job_->Finish(stats_, s, std::move(path_), std::move(results_));
  }

 private:
  ComponentEnumerator(std::shared_ptr<EnumJob> job, int /*placeholder*/)
      : job_(std::move(job)),
        ctx_(job_->comp, job_->options.k,
             /*track_excluded=*/job_->options.use_early_termination ||
                 job_->options.use_smart_maximal_check),
        policy_(job_->options.order, BranchOrder::kExpandFirst,
                job_->options.lambda, job_->options.seed),
        et_checker_(job_->comp),
        maximal_checker_(job_->comp) {}

  const EnumOptions& options() const { return job_->options; }

  /// One search node: prune/terminate/emit or branch (Algorithm 3).
  Status Visit(uint32_t depth) {
    if ((stats_.search_nodes++ & 0x3F) == 0 && options().deadline.Expired()) {
      return Status::DeadlineExceeded("enumeration budget expired");
    }
    // Another task failed (deadline): drain quickly, its status wins.
    if (job_->failed->load(std::memory_order_relaxed)) return Status::OK();
    KRCORE_DCHECK(!ctx_.dead());

    // Early termination (Theorem 5).
    if (options().use_early_termination && et_checker_.CanTerminate(ctx_)) {
      ++stats_.early_terminations;
      return Status::OK();
    }

    // Emission condition: with retention, C == SF(C) makes M ∪ C a
    // (k,r)-core (Theorem 4); without retention we only emit at C == ∅.
    bool emit = options().use_retention ? ctx_.CandidatesAllSimilarityFree()
                                        : ctx_.c_list().empty();
    if (emit) {
      return Emit();
    }

    // Choose the branching vertex among C \ SF(C) (Thm 4) or all of C.
    BranchChoice choice =
        policy_.Choose(ctx_, /*restrict_to_non_sf=*/options().use_retention,
                       /*sum_branches=*/true);
    if (options().use_retention) {
      stats_.retained_skips += ctx_.sf_count();
    }
    VertexId u = choice.vertex;

    if (job_->pool != nullptr && depth < options().parallel.split_depth &&
        job_->pool->BacklogLow()) {
      // Fork the shrink branch onto the shared pool; continue the expand
      // branch inline. Enumeration explores both branches regardless, so
      // the forked task's results are the same set it would have produced
      // sequentially — the path tag fixes the merge order and the final
      // canonical sort makes the output schedule-independent. Skipped when
      // the pool already has a backlog: queued forks are dead weight (each
      // holds a full state copy).
      Spawn(/*expand=*/false, u, depth + 1);
      size_t mark = ctx_.Mark();
      ++stats_.expand_branches;
      bool alive = ctx_.Expand(u);
      if (alive && options().use_retention) {
        alive = ctx_.PromoteSimilarityFree(&stats_.promotions);
      }
      Status s = alive ? Visit(depth + 1) : Status::OK();
      ctx_.RewindTo(mark);
      return s;
    }

    // Expand branch.
    {
      size_t mark = ctx_.Mark();
      ++stats_.expand_branches;
      bool alive = ctx_.Expand(u);
      if (alive && options().use_retention) {
        alive = ctx_.PromoteSimilarityFree(&stats_.promotions);
      }
      Status s = alive ? Visit(depth + 1) : Status::OK();
      ctx_.RewindTo(mark);
      if (!s.ok()) return s;
    }

    // Shrink branch.
    {
      size_t mark = ctx_.Mark();
      ++stats_.shrink_branches;
      bool alive = ctx_.Shrink(u);
      if (alive && options().use_retention) {
        alive = ctx_.PromoteSimilarityFree(&stats_.promotions);
      }
      Status s = alive ? Visit(depth + 1) : Status::OK();
      ctx_.RewindTo(mark);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  void Spawn(bool expand, VertexId u, uint32_t depth) {
    TaskPath child_path = path_;
    child_path.push_back(spawn_seq_++);
    // std::function requires copyable captures; box the moveable state.
    auto forked = std::make_shared<SearchContext>(ctx_.Fork());
    auto boxed_path = std::make_shared<TaskPath>(std::move(child_path));
    auto job = job_;
    job_->pool->Submit([job, forked, boxed_path, expand, u, depth]() mutable {
      if (job->failed->load(std::memory_order_relaxed)) {
        job->Finish(MiningStats(), Status::OK(), std::move(*boxed_path),
                    ResultSet());
        return;
      }
      ComponentEnumerator task(job, std::move(*forked), depth,
                               std::move(*boxed_path));
      task.RunBranch(expand, u);
    });
  }

  /// Emits the connected components of M ∪ C as candidate (k,r)-cores,
  /// running the smart maximal check when enabled. With M non-empty the
  /// connectivity reduction guarantees a single component.
  Status Emit() {
    if (!ctx_.m_list().empty()) {
      std::vector<VertexId> mc = ctx_.MaterializeMC();
      KRCORE_DCHECK(IsConnectedSubset(job_->comp.graph, mc));
      return EmitCore(mc);
    }
    for (const auto& local_core :
         ComponentsOfSubset(job_->comp.graph, ctx_.MaterializeMC())) {
      Status s = EmitCore(local_core);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  /// Records one connected (k,r)-core unless the maximal check rejects it.
  Status EmitCore(const std::vector<VertexId>& local_core) {
    ++stats_.emitted_candidates;
    if (options().use_smart_maximal_check) {
      ++stats_.maximal_check_calls;
      MaximalVerdict verdict = maximal_checker_.Check(
          ctx_, local_core, options().maximal_check_order, options().lambda,
          options().deadline, &stats_.maximal_check_nodes);
      if (verdict == MaximalVerdict::kDeadlineExceeded) {
        return Status::DeadlineExceeded("maximal check budget expired");
      }
      if (verdict == MaximalVerdict::kNotMaximal) return Status::OK();
    }
    VertexSet parent_ids;
    parent_ids.reserve(local_core.size());
    for (VertexId v : local_core) parent_ids.push_back(job_->comp.to_parent[v]);
    std::sort(parent_ids.begin(), parent_ids.end());
    results_.Insert(std::move(parent_ids));
    return Status::OK();
  }

  std::shared_ptr<EnumJob> job_;
  SearchContext ctx_;
  uint32_t depth_ = 0;
  TaskPath path_;
  uint32_t spawn_seq_ = 0;
  MiningStats stats_;
  ResultSet results_;
  SearchOrderPolicy policy_;
  EarlyTerminationChecker et_checker_;
  MaximalCheckSearcher maximal_checker_;
};

}  // namespace

MaximalCoresResult EnumerateMaximalCores(const Graph& g,
                                         const SimilarityOracle& oracle,
                                         const EnumOptions& options) {
  Timer timer;
  const uint32_t threads = options.parallel.Resolve();
  PipelineOptions pipe;
  pipe.k = options.k;
  pipe.preprocess = options.preprocess;
  pipe.preprocess.num_threads = threads;
  pipe.join_strategy = options.join_strategy;
  pipe.deadline = options.deadline;
  std::vector<ComponentContext> components;
  PreprocessReport prep_report;
  Status prepared = PrepareComponents(g, oracle, pipe, &components,
                                      &prep_report);
  const double prepare_seconds = timer.ElapsedSeconds();
  if (!prepared.ok()) {
    MaximalCoresResult result;
    result.status = prepared;
    result.stats.prepare_pair_sweeps = 1;
    result.stats.oracle_calls = prep_report.oracle_calls;
    result.stats.prepare_seconds = prepare_seconds;
    result.stats.seconds = prepare_seconds;
    return result;
  }

  MaximalCoresResult result = EnumerateMaximalCores(components, options);
  result.stats.prepare_pair_sweeps = 1;
  result.stats.oracle_calls = prep_report.oracle_calls;
  result.stats.prepare_seconds = prepare_seconds;
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

MaximalCoresResult EnumerateMaximalCores(
    const std::vector<ComponentContext>& components,
    const EnumOptions& options) {
  MaximalCoresResult result;
  Timer timer;
  const uint32_t threads = options.parallel.Resolve();

  std::atomic<bool> failed{false};
  std::vector<std::shared_ptr<EnumJob>> jobs;
  jobs.reserve(components.size());
  for (const auto& comp : components) {
    jobs.push_back(std::make_shared<EnumJob>(comp, options, &failed));
  }

  if (threads <= 1) {
    for (auto& job : jobs) {
      // First-touch validation gate for mmap-served components: the
      // enumerator's constructor already walks rows, so the verdict must
      // land before it exists. A corrupt component fails only the queries
      // that touch it.
      if (Status s = job->comp.EnsureValid(); !s.ok()) {
        job->Finish(MiningStats(), s, TaskPath{}, ResultSet());
        break;
      }
      ComponentEnumerator root(job);
      root.RunRoot();
      if (!job->status.ok()) break;
    }
  } else {
    // One pool for component roots and the subtree tasks they fork (Sec 4.1
    // makes components independent; split_depth subdivides the big ones).
    TaskPool pool(threads);
    for (auto& job : jobs) {
      job->pool = &pool;
      pool.Submit([job, &failed] {
        if (failed.load(std::memory_order_relaxed)) return;
        if (Status s = job->comp.EnsureValid(); !s.ok()) {
          job->Finish(MiningStats(), s, TaskPath{}, ResultSet());
          return;
        }
        ComponentEnumerator root(job);
        root.RunRoot();
      });
    }
    pool.Wait();
    result.stats.tasks_spawned = pool.tasks_spawned();
    result.stats.task_steals = pool.tasks_stolen();
  }

  // Merge in component order — and inside a component in task-path order —
  // stopping at the first failing component like a sequential run does (its
  // partial results are kept, later components' are dropped). A timed-out
  // run's partial set is schedule-dependent (see EnumOptions::parallel).
  ResultSet results;
  for (auto& job : jobs) {
    ++result.stats.components;
    result.stats.MergeFrom(job->stats);
    std::sort(job->parts.begin(), job->parts.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto& part : job->parts) {
      for (auto& core : part.second.TakeSorted()) {
        results.Insert(std::move(core));
      }
    }
    if (!job->status.ok()) {
      result.status = job->status;
      break;
    }
  }

  // Variants without the smart maximal check filter non-maximal cores the
  // naive way (Algorithm 1 lines 6-8). The smart check makes this a no-op,
  // but emitted results from *different* branches can still duplicate or
  // nest across components of a C == SF(C) emission with empty M; the filter
  // keeps the output canonical in all configurations.
  results.FilterNonMaximal();
  result.cores = results.TakeSorted();
  result.stats.maximal_found = result.cores.size();
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

EnumOptions BasicEnumOptions(uint32_t k) {
  EnumOptions o;
  o.k = k;
  o.use_retention = false;
  o.use_early_termination = false;
  o.use_smart_maximal_check = false;
  o.order = VertexOrder::kDelta1ThenDelta2;
  return o;
}

EnumOptions AdvEnumOptions(uint32_t k) {
  EnumOptions o;
  o.k = k;
  return o;
}

}  // namespace krcore
