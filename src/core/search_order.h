#ifndef KRCORE_CORE_SEARCH_ORDER_H_
#define KRCORE_CORE_SEARCH_ORDER_H_

#include <cstdint>

#include "core/krcore_types.h"
#include "core/search_context.h"
#include "util/random.h"

namespace krcore {

/// A branching decision: which candidate vertex to split on, and which
/// branch (expand or shrink) to explore first.
struct BranchChoice {
  VertexId vertex = kInvalidVertex;
  bool expand_first = true;
};

/// Implements the vertex and branch visiting orders of Sec 7. For the
/// measurement-based orders, the Δ1 (relative drop in dissimilar pairs) and
/// Δ2 (relative drop in edges) of each branch are *estimated within two hops
/// of the candidate* (Sec 7.2): the directly pruned vertices plus the
/// structure-peel victims among their neighbors, without simulating the full
/// cascade.
class SearchOrderPolicy {
 public:
  SearchOrderPolicy(VertexOrder order, BranchOrder branch_order, double lambda,
                    uint64_t seed)
      : order_(order),
        branch_order_(branch_order),
        lambda_(lambda),
        rng_(seed) {}

  /// Picks the next branching vertex among C \ SF(C) (or among all of C when
  /// `restrict_to_non_sf` is false, as in BasicEnum which does not apply the
  /// retention rule). Requires at least one eligible candidate.
  ///
  /// `sum_branches` selects the enumeration flavor (score = expand score +
  /// shrink score, branch order irrelevant, Sec 7.3) versus the maximum
  /// flavor (score = best branch, explore that branch first, Sec 7.2).
  BranchChoice Choose(const SearchContext& ctx, bool restrict_to_non_sf,
                      bool sum_branches);

 private:
  struct DeltaEstimate {
    double d1_expand = 0.0, d2_expand = 0.0;
    double d1_shrink = 0.0, d2_shrink = 0.0;
  };
  /// Records, for every candidate x, dp_c(x) and the two-hop estimate of
  /// what removing x costs: DP(C) and edges lost with x and with its
  /// neighbors on C's degree-k boundary. Every EstimateDeltas call of one
  /// Choose reads these.
  void SnapshotCandidates(const SearchContext& ctx);
  DeltaEstimate EstimateDeltas(const SearchContext& ctx, VertexId u) const;

  VertexOrder order_;
  BranchOrder branch_order_;
  double lambda_;
  Rng rng_;
  std::vector<VertexId> scratch_eligible_;
  // Per-Choose candidate snapshot (indexed by vertex; valid for C members).
  std::vector<uint32_t> dp_c_;
  std::vector<uint64_t> drop_dp_, drop_edges_;
  std::vector<uint64_t> boundary_;  // {y ∈ C : deg_mc(y) == k} as bits
};

}  // namespace krcore

#endif  // KRCORE_CORE_SEARCH_ORDER_H_
