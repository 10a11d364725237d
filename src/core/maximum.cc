#include "core/maximum.h"

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

#include "core/greedy_seed.h"
#include "core/search_driver.h"
#include "core/size_bounds.h"

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

/// One task of AdvMax (Algorithm 5): prunes by the tiered size bound
/// against the shared incumbent, visits the branch the policy's
/// branch_order picks first, and offers each core to the incumbent.
class ComponentMaximizer
    : public SearchTask<ComponentMaximizer, MaxOptions, SharedBest,
                        BoundCache> {
 public:
  static constexpr bool kSumBranches = false;
  static constexpr const char* kBudgetExpired =
      "maximum search budget expired";
  static bool TracksExcluded(const MaxOptions& o) {
    return o.use_early_termination;
  }

  ComponentMaximizer(Job* job, SearchContext ctx)
      : SearchTask(job, std::move(ctx), job->options.branch_order),
        bound_computer_(job->comp) {}

 private:
  friend SearchTask;

  /// Upper-bound cutoff (Algorithm 5 line 2), tiered: the free |M|+|C|
  /// check runs first, then the cached expensive value, and only when
  /// neither settles the node is the expensive tier recomputed — and only
  /// if M ∪ C shrank below the cached bound or the refresh interval hit.
  /// `cache` is this node's copy, which both children inherit.
  bool Prune(BoundCache* cache) {
    const uint64_t incumbent = job_->sink->Size();
    const uint64_t naive = bound_computer_.Naive(ctx_);
    if (naive <= incumbent) {
      ++stats_.bound_naive_prunes;
      ++stats_.bound_prunes;
      return true;
    }
    if (options().bound == SizeBoundKind::kNaive) return false;
    if (cache->value <= incumbent) {
      ++stats_.bound_cache_hits;
      ++stats_.bound_prunes;
      return true;
    }
    ++cache->nodes_since;
    if (naive < cache->value ||
        cache->nodes_since >= options().bound_refresh) {
      cache->value = bound_computer_.Compute(ctx_, options().bound);
      cache->nodes_since = 0;
      ++stats_.bound_recomputes;
      if (cache->value <= incumbent) {
        ++stats_.bound_expensive_prunes;
        ++stats_.bound_prunes;
        return true;
      }
    }
    return false;
  }

  /// Offers one connected (k,r)-core unless it is below the incumbent.
  Status EmitCore(const std::vector<VertexId>& local_core) {
    if (local_core.size() >= job_->sink->Size()) {
      job_->sink->Offer(ParentIds(local_core));
    }
    return Status::OK();
  }

  SizeBoundComputer bound_computer_;
};

}  // namespace

MaximumCoreResult FindMaximumCore(const Graph& g,
                                  const SimilarityOracle& oracle,
                                  const MaxOptions& options) {
  return PrepareAndSearch<MaximumCoreResult>(
      g, oracle, options,
      [&options](const std::vector<ComponentContext>& components) {
        return FindMaximumCore(components, options);
      });
}

MaximumCoreResult FindMaximumCore(
    const std::vector<ComponentContext>& components,
    const MaxOptions& options) {
  MaximumCoreResult result;
  Timer timer;
  KRCORE_CHECK(options.bound_refresh > 0) << "bound_refresh must be positive";

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

  // A whole component is skipped when even its total size cannot beat the
  // incumbent.
  SearchComponents<ComponentMaximizer>(
      components, options, [&best](size_t) { return &best; },
      [&best](const ComponentContext& comp) {
        return comp.size() <= best.Size();
      },
      &result.stats, &result.status);
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
