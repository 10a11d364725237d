#include "core/krcore_types.h"

#include <algorithm>
#include <sstream>

namespace krcore {

std::string VertexOrderName(VertexOrder o) {
  switch (o) {
    case VertexOrder::kRandom:
      return "random";
    case VertexOrder::kDegree:
      return "degree";
    case VertexOrder::kDelta1:
      return "delta1";
    case VertexOrder::kDelta2:
      return "delta2";
    case VertexOrder::kDelta1ThenDelta2:
      return "delta1-then-delta2";
    case VertexOrder::kLambdaCombo:
      return "lambda*delta1-delta2";
  }
  return "unknown";
}

std::string BranchOrderName(BranchOrder o) {
  switch (o) {
    case BranchOrder::kAdaptive:
      return "adaptive";
    case BranchOrder::kExpandFirst:
      return "expand-first";
    case BranchOrder::kShrinkFirst:
      return "shrink-first";
  }
  return "unknown";
}

std::string SizeBoundName(SizeBoundKind b) {
  switch (b) {
    case SizeBoundKind::kNaive:
      return "|M|+|C|";
    case SizeBoundKind::kColor:
      return "color";
    case SizeBoundKind::kKcore:
      return "kcore";
    case SizeBoundKind::kColorPlusKcore:
      return "color+kcore";
    case SizeBoundKind::kDoubleKcore:
      return "double-kcore";
  }
  return "unknown";
}

void MiningStats::MergeFrom(const MiningStats& other) {
  search_nodes += other.search_nodes;
  expand_branches += other.expand_branches;
  shrink_branches += other.shrink_branches;
  emitted_candidates += other.emitted_candidates;
  maximal_found += other.maximal_found;
  early_terminations += other.early_terminations;
  bound_prunes += other.bound_prunes;
  bound_naive_prunes += other.bound_naive_prunes;
  bound_cache_hits += other.bound_cache_hits;
  bound_expensive_prunes += other.bound_expensive_prunes;
  bound_recomputes += other.bound_recomputes;
  promotions += other.promotions;
  maximal_check_calls += other.maximal_check_calls;
  maximal_check_nodes += other.maximal_check_nodes;
  components += other.components;
  tasks_spawned += other.tasks_spawned;
  task_steals += other.task_steals;
  prepare_pair_sweeps += other.prepare_pair_sweeps;
  prepare_derivations += other.prepare_derivations;
  oracle_calls += other.oracle_calls;
  derive_r_restrictions += other.derive_r_restrictions;
  score_filtered_pairs += other.score_filtered_pairs;
  // Wall-clock fields: workers of one run overlap in time, so the merged
  // wall estimate is the max, never the sum (see the header comment).
  prepare_seconds = std::max(prepare_seconds, other.prepare_seconds);
  seconds = std::max(seconds, other.seconds);
}

std::string MiningStats::ToString() const {
  std::ostringstream os;
  os << "nodes=" << search_nodes << " expand=" << expand_branches
     << " shrink=" << shrink_branches << " emitted=" << emitted_candidates
     << " maximal=" << maximal_found << " et=" << early_terminations
     << " bound_prunes=" << bound_prunes
     << " (naive=" << bound_naive_prunes << " cache=" << bound_cache_hits
     << " expensive=" << bound_expensive_prunes
     << " recomputes=" << bound_recomputes << ")"
     << " promotions=" << promotions << " mc_calls=" << maximal_check_calls
     << " comps=" << components << " tasks=" << tasks_spawned
     << " steals=" << task_steals << " sweeps=" << prepare_pair_sweeps
     << " oracle_calls=" << oracle_calls
     << " derived=" << prepare_derivations
     << " r_restrict=" << derive_r_restrictions
     << " score_filtered=" << score_filtered_pairs;
  os << " prep_sec=" << prepare_seconds << " sec=" << seconds;
  return os.str();
}

}  // namespace krcore
