#include "core/maximum.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/early_termination.h"
#include "core/greedy_seed.h"
#include "core/parallel.h"
#include "core/pipeline.h"
#include "core/search_context.h"
#include "core/search_order.h"
#include "core/size_bounds.h"
#include "graph/connectivity.h"
#include "util/logging.h"

namespace krcore {
namespace {

/// The incumbent best core, shared by every search task. The size is
/// readable lock-free (it is the bound-pruning hot path, polled at every
/// search node); the vertex set itself is guarded by a mutex and only
/// touched on the rare strictly-better / tie-breaking emissions.
class SharedBest {
 public:
  uint64_t Size() const { return size_.load(std::memory_order_relaxed); }

  /// Installs `candidate` (sorted parent ids) when strictly larger than the
  /// incumbent, or equal-sized and lexicographically smaller — the latter
  /// makes the reported set stable across work-stealing schedules whenever
  /// the competing maxima are all discovered.
  void Offer(VertexSet candidate) {
    std::lock_guard<std::mutex> lock(mu_);
    if (candidate.size() > best_.size() ||
        (candidate.size() == best_.size() && !best_.empty() &&
         candidate < best_)) {
      best_ = std::move(candidate);
      size_.store(best_.size(), std::memory_order_relaxed);
    }
  }

  VertexSet Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(best_);
  }

 private:
  // The incumbent size is polled at every search node by every worker, so
  // it must own its cache line: sharing one with the mutex (or the vector's
  // header, which Offer rewrites) would make each rare emission invalidate
  // the line for all pollers — the false-sharing suspect ROADMAP names for
  // the missing multicore speedup on the bound-pruning hot path.
  alignas(64) std::atomic<uint64_t> size_{0};
  alignas(64) std::mutex mu_;
  VertexSet best_;
};

/// Cached expensive-tier bound, inherited *down* the recursion by value: a
/// value computed at a node stays a valid upper bound for every descendant
/// (M ∪ C only shrinks along a root-to-leaf chain), and because each child
/// receives its own copy, backtracking restores the ancestor's cache for the
/// sibling automatically — a sibling subtree must never see a bound computed
/// inside the other branch.
struct BoundCache {
  uint64_t value = UINT64_MAX;  // nothing computed yet
  uint32_t nodes_since = 0;     // nodes on this chain since the last compute
};

/// Shared per-component search state. Every task of the component — the root
/// and all forked subtrees — holds the same job; tasks merge their local
/// stats and first error under the job mutex when they finish.
struct MaxJob {
  MaxJob(const ComponentContext& c, const MaxOptions& o, SharedBest* b,
         std::atomic<bool>* f)
      : comp(c), options(o), best(b), failed(f) {}

  const ComponentContext& comp;
  const MaxOptions& options;
  SharedBest* best;
  std::atomic<bool>* failed;  // any task of any component errored: drain
  TaskPool* pool = nullptr;   // null = sequential (no subtree forking)

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

/// One task of the per-component branch-and-bound for the maximum (k,r)-core
/// (Algorithm 5): either the component root or a forked subtree. Owns its
/// SearchContext and all per-task scratch (policy Rng, bound computer, early
/// termination checker), so tasks share nothing mutable but SharedBest and
/// the job accumulators.
class ComponentMaximizer {
 public:
  /// Root task: fresh context over the whole component.
  explicit ComponentMaximizer(std::shared_ptr<MaxJob> job)
      : ComponentMaximizer(
            std::move(job),
            // Delegation needs the job pointer before the member init; read
            // it from the argument of the delegated-to constructor instead.
            /*placeholder=*/0) {}

  /// Subtree task: adopts a forked context at `depth` with the ancestor's
  /// bound cache; Run(expand, u) applies the pending branch op first.
  ComponentMaximizer(std::shared_ptr<MaxJob> job, SearchContext&& ctx,
                     uint32_t depth, BoundCache cache)
      : job_(std::move(job)),
        ctx_(std::move(ctx)),
        depth_(depth),
        cache_(cache),
        policy_(job_->options.order, job_->options.branch_order,
                job_->options.lambda, job_->options.seed),
        et_checker_(job_->comp),
        bound_computer_(job_->comp) {}

  /// Runs the root task: retention fixpoint then the full tree.
  void RunRoot() {
    Status s = Status::OK();
    bool alive = true;
    if (options().use_retention) {
      alive = ctx_.PromoteSimilarityFree(&stats_.promotions);
    }
    if (alive) s = Visit(depth_, cache_);
    job_->Finish(stats_, s);
  }

  /// Runs a forked subtree task: applies the branch op the parent deferred,
  /// then explores the subtree.
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
    if (alive) s = Visit(depth_, cache_);
    job_->Finish(stats_, s);
  }

 private:
  ComponentMaximizer(std::shared_ptr<MaxJob> job, int /*placeholder*/)
      : job_(std::move(job)),
        ctx_(job_->comp, job_->options.k,
             /*track_excluded=*/job_->options.use_early_termination),
        policy_(job_->options.order, job_->options.branch_order,
                job_->options.lambda, job_->options.seed),
        et_checker_(job_->comp),
        bound_computer_(job_->comp) {}

  const MaxOptions& options() const { return job_->options; }

  /// One search node. `cache` travels by value so each branch inherits the
  /// tightest ancestor bound and backtracking needs no undo.
  Status Visit(uint32_t depth, BoundCache cache) {
    if ((stats_.search_nodes++ & 0x3F) == 0 && options().deadline.Expired()) {
      return Status::DeadlineExceeded("maximum search budget expired");
    }
    // Another task failed (deadline): drain quickly, its status wins.
    if (job_->failed->load(std::memory_order_relaxed)) return Status::OK();
    KRCORE_DCHECK(!ctx_.dead());

    // Early termination (Theorem 5): any core from this subtree extends to a
    // strictly larger one elsewhere; it cannot be the (unique-size) maximum.
    if (options().use_early_termination && et_checker_.CanTerminate(ctx_)) {
      ++stats_.early_terminations;
      return Status::OK();
    }

    // Upper-bound cutoff (Algorithm 5 line 2), tiered: the free |M|+|C|
    // check runs first, then the cached expensive value, and only when
    // neither settles the node is the expensive tier recomputed — and only
    // if M ∪ C shrank below the cached bound or the refresh interval hit.
    const uint64_t incumbent = job_->best->Size();
    const uint64_t naive = bound_computer_.Naive(ctx_);
    if (naive <= incumbent) {
      ++stats_.bound_naive_prunes;
      ++stats_.bound_prunes;
      return Status::OK();
    }
    if (options().bound != SizeBoundKind::kNaive) {
      if (cache.value <= incumbent) {
        ++stats_.bound_cache_hits;
        ++stats_.bound_prunes;
        return Status::OK();
      }
      ++cache.nodes_since;
      if (naive < cache.value || cache.nodes_since >= options().bound_refresh) {
        cache.value = bound_computer_.Compute(ctx_, options().bound);
        cache.nodes_since = 0;
        ++stats_.bound_recomputes;
        if (cache.value <= incumbent) {
          ++stats_.bound_expensive_prunes;
          ++stats_.bound_prunes;
          return Status::OK();
        }
      }
    }

    // Emission (Theorem 4).
    bool emit = options().use_retention ? ctx_.CandidatesAllSimilarityFree()
                                        : ctx_.c_list().empty();
    if (emit) {
      Emit();
      return Status::OK();
    }

    BranchChoice choice =
        policy_.Choose(ctx_, /*restrict_to_non_sf=*/options().use_retention,
                       /*sum_branches=*/false);
    VertexId u = choice.vertex;

    if (job_->pool != nullptr && depth < options().parallel.split_depth &&
        job_->pool->BacklogLow()) {
      // Fork the second-visited branch onto the shared pool and continue the
      // first-visited branch inline — the incumbent stays live across tasks
      // through SharedBest, so cross-task pruning matches the sequential
      // schedule's intent. Skipped when the pool already has a backlog:
      // queued forks are dead weight (each holds a full state copy).
      Spawn(/*expand=*/!choice.expand_first, u, depth + 1, cache);
      size_t mark = ctx_.Mark();
      bool alive;
      if (choice.expand_first) {
        ++stats_.expand_branches;
        alive = ctx_.Expand(u);
      } else {
        ++stats_.shrink_branches;
        alive = ctx_.Shrink(u);
      }
      if (alive && options().use_retention) {
        alive = ctx_.PromoteSimilarityFree(&stats_.promotions);
      }
      Status s = alive ? Visit(depth + 1, cache) : Status::OK();
      ctx_.RewindTo(mark);
      return s;
    }

    for (int round = 0; round < 2; ++round) {
      bool expanding = (round == 0) == choice.expand_first;
      size_t mark = ctx_.Mark();
      bool alive;
      if (expanding) {
        ++stats_.expand_branches;
        alive = ctx_.Expand(u);
      } else {
        ++stats_.shrink_branches;
        alive = ctx_.Shrink(u);
      }
      if (alive && options().use_retention) {
        alive = ctx_.PromoteSimilarityFree(&stats_.promotions);
      }
      Status s = alive ? Visit(depth + 1, cache) : Status::OK();
      ctx_.RewindTo(mark);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  void Spawn(bool expand, VertexId u, uint32_t depth, BoundCache cache) {
    // std::function requires copyable captures; box the forked context.
    auto forked = std::make_shared<SearchContext>(ctx_.Fork());
    auto job = job_;
    job_->pool->Submit([job, forked, expand, u, depth, cache]() mutable {
      if (job->failed->load(std::memory_order_relaxed)) {
        job->Finish(MiningStats(), Status::OK());
        return;
      }
      ComponentMaximizer task(job, std::move(*forked), depth, cache);
      task.RunBranch(expand, u);
    });
  }

  /// Offers the connected components of M ∪ C to the incumbent. With M
  /// non-empty the connectivity reduction guarantees a single component.
  void Emit() {
    if (!ctx_.m_list().empty()) {
      std::vector<VertexId> mc = ctx_.MaterializeMC();
      KRCORE_DCHECK(IsConnectedSubset(job_->comp.graph, mc));
      EmitCore(mc);
      return;
    }
    for (const auto& local_core :
         ComponentsOfSubset(job_->comp.graph, ctx_.MaterializeMC())) {
      EmitCore(local_core);
    }
  }

  /// Offers one connected (k,r)-core unless it is below the incumbent.
  void EmitCore(const std::vector<VertexId>& local_core) {
    ++stats_.emitted_candidates;
    if (local_core.size() < job_->best->Size()) return;
    VertexSet parent_ids;
    parent_ids.reserve(local_core.size());
    for (VertexId v : local_core) parent_ids.push_back(job_->comp.to_parent[v]);
    std::sort(parent_ids.begin(), parent_ids.end());
    job_->best->Offer(std::move(parent_ids));
  }

  std::shared_ptr<MaxJob> job_;
  SearchContext ctx_;
  uint32_t depth_ = 0;
  BoundCache cache_;
  MiningStats stats_;
  SearchOrderPolicy policy_;
  EarlyTerminationChecker et_checker_;
  SizeBoundComputer bound_computer_;
};

}  // namespace

MaximumCoreResult FindMaximumCore(const Graph& g,
                                  const SimilarityOracle& oracle,
                                  const MaxOptions& options) {
  Timer timer;
  const uint32_t threads = options.parallel.Resolve();
  PipelineOptions pipe;
  pipe.k = options.k;
  pipe.preprocess = options.preprocess;
  pipe.preprocess.num_threads = threads;
  pipe.join_strategy = options.join_strategy;
  pipe.deadline = options.deadline;
  pipe.order_by_max_degree = true;  // search the densest part first
  std::vector<ComponentContext> components;
  PreprocessReport prep_report;
  Status prepared = PrepareComponents(g, oracle, pipe, &components,
                                      &prep_report);
  const double prepare_seconds = timer.ElapsedSeconds();
  if (!prepared.ok()) {
    MaximumCoreResult result;
    result.status = prepared;
    result.stats.prepare_pair_sweeps = 1;
    result.stats.oracle_calls = prep_report.oracle_calls;
    result.stats.prepare_seconds = prepare_seconds;
    result.stats.seconds = prepare_seconds;
    return result;
  }

  MaximumCoreResult result = FindMaximumCore(components, options);
  result.stats.prepare_pair_sweeps = 1;
  result.stats.oracle_calls = prep_report.oracle_calls;
  result.stats.prepare_seconds = prepare_seconds;
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

MaximumCoreResult FindMaximumCore(
    const std::vector<ComponentContext>& components,
    const MaxOptions& options) {
  MaximumCoreResult result;
  Timer timer;
  KRCORE_CHECK(options.bound_refresh > 0) << "bound_refresh must be positive";
  const uint32_t threads = options.parallel.Resolve();

  SharedBest best;
  if (options.use_seed_incumbent && !components.empty()) {
    // Seed the incumbent from the densest component (most structure edges)
    // so every task prunes against a real core from its very first node.
    size_t densest = 0;
    for (size_t i = 1; i < components.size(); ++i) {
      if (components[i].graph.num_edges() >
          components[densest].graph.num_edges()) {
        densest = i;
      }
    }
    // The greedy seeder reads rows; a corrupt mapped component simply
    // forfeits the seed here — its own job below reports the error.
    if (components[densest].EnsureValid().ok()) {
      VertexSet seed =
          GreedySeedCore(components[densest], options.k, options.deadline);
      if (!seed.empty()) best.Offer(std::move(seed));
    }
  }

  std::atomic<bool> failed{false};
  std::vector<std::shared_ptr<MaxJob>> jobs;
  jobs.reserve(components.size());
  for (const auto& comp : components) {
    jobs.push_back(std::make_shared<MaxJob>(comp, options, &best, &failed));
  }

  if (threads <= 1) {
    for (auto& job : jobs) {
      // A whole component can be skipped when even its total size cannot
      // beat the incumbent.
      if (job->comp.size() <= best.Size()) continue;
      // First-touch validation gate (mmap-served components) — must land
      // before the maximizer's constructor walks rows.
      if (Status s = job->comp.EnsureValid(); !s.ok()) {
        job->Finish(MiningStats(), s);
        break;
      }
      ComponentMaximizer root(job);
      root.RunRoot();
      if (!job->status.ok()) break;
    }
  } else {
    // One pool for everything: component roots and the subtrees they fork
    // compete for the same workers, so the skewed one-giant-component case
    // still saturates every core.
    TaskPool pool(threads);
    for (auto& job : jobs) {
      job->pool = &pool;
      pool.Submit([job, &best, &failed] {
        if (failed.load(std::memory_order_relaxed)) return;
        if (job->comp.size() <= best.Size()) return;
        if (Status s = job->comp.EnsureValid(); !s.ok()) {
          job->Finish(MiningStats(), s);
          return;
        }
        ComponentMaximizer root(job);
        root.RunRoot();
      });
    }
    pool.Wait();
    result.stats.tasks_spawned = pool.tasks_spawned();
    result.stats.task_steals = pool.tasks_stolen();
  }

  // Merge stats in component order and stop at the first failure, so a
  // timed-out run reports the same shape of counters as a sequential run
  // (which stops searching there). The shared best itself is unaffected.
  for (auto& job : jobs) {
    ++result.stats.components;
    result.stats.MergeFrom(job->stats);
    if (!job->status.ok()) {
      result.status = job->status;
      break;
    }
  }
  result.best = best.Take();
  result.stats.maximal_found = result.best.empty() ? 0 : 1;
  result.stats.seconds = timer.ElapsedSeconds();
  return result;
}

MaxOptions BasicMaxOptions(uint32_t k) {
  MaxOptions o;
  o.k = k;
  o.bound = SizeBoundKind::kNaive;
  return o;
}

MaxOptions AdvMaxOptions(uint32_t k) {
  MaxOptions o;
  o.k = k;
  o.bound = SizeBoundKind::kDoubleKcore;
  return o;
}

}  // namespace krcore
