#include "core/enumerate.h"

#include <mutex>
#include <utility>
#include <vector>

#include "core/maximal_check.h"
#include "core/result_set.h"
#include "core/search_driver.h"

namespace krcore {
namespace {

/// One task of AdvEnum (Algorithm 3) or, with the advanced features off, of
/// the pruned Algorithm 1 baseline. It adds no cutoff to early termination,
/// visits the expand branch first (so it forks the shrink branch), and
/// keeps each core the smart maximal check (Theorem 6) accepts.
class ComponentEnumerator
    : public SearchTask<ComponentEnumerator, EnumOptions, ResultSet, NoFrame> {
 public:
  static constexpr bool kSumBranches = true;
  static constexpr const char* kBudgetExpired = "enumeration budget expired";
  static bool TracksExcluded(const EnumOptions& o) {
    return o.use_early_termination || o.use_smart_maximal_check;
  }

  ComponentEnumerator(Job* job, SearchContext ctx)
      : SearchTask(job, std::move(ctx), BranchOrder::kExpandFirst),
        maximal_checker_(job->comp) {}

 private:
  friend SearchTask;

  bool Prune(NoFrame*) { return false; }

  /// Records one connected (k,r)-core unless the maximal check rejects it.
  Status EmitCore(const std::vector<VertexId>& local_core) {
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
    VertexSet core = ParentIds(local_core);
    std::lock_guard<std::mutex> lock(job_->mu);
    job_->sink->Insert(std::move(core));
    return Status::OK();
  }

  MaximalCheckSearcher maximal_checker_;
};

}  // namespace

MaximalCoresResult EnumerateMaximalCores(const Graph& g,
                                         const SimilarityOracle& oracle,
                                         const EnumOptions& options) {
  return PrepareAndSearch<MaximalCoresResult>(
      g, oracle, options,
      [&options](const std::vector<ComponentContext>& components) {
        return EnumerateMaximalCores(components, options);
      });
}

MaximalCoresResult EnumerateMaximalCores(
    const std::vector<ComponentContext>& components,
    const EnumOptions& options) {
  MaximalCoresResult result;
  Timer timer;
  std::vector<ResultSet> found(components.size());
  const size_t searched = SearchComponents<ComponentEnumerator>(
      components, options, [&found](size_t i) { return &found[i]; },
      [](const ComponentContext&) { return false; }, &result.stats,
      &result.status);

  // A failed run keeps the cores of the components up to the failed one,
  // like a sequential run that stops there; the set is schedule-dependent
  // (see EnumOptions::parallel).
  ResultSet results;
  for (size_t i = 0; i < searched; ++i) {
    for (auto& core : found[i].TakeSorted()) results.Insert(std::move(core));
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
