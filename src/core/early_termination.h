#ifndef KRCORE_CORE_EARLY_TERMINATION_H_
#define KRCORE_CORE_EARLY_TERMINATION_H_

#include <cstdint>
#include <vector>

#include "core/search_context.h"

namespace krcore {

/// Theorem 5: decides whether the current search node can be abandoned
/// because every (k,r)-core derivable from (M, C) extends to a strictly
/// larger one using excluded vertices, hence none is maximal.
///
/// Condition (i): some u ∈ SF_C(E) (excluded, similar to all of C — and to
/// all of M by the E invariant) has deg(u, M) >= k; attaching u to any
/// derived core R keeps both constraints and connectivity (k >= 1 edges into
/// M ⊆ R).
///
/// Condition (ii): some U ⊆ SF_{C∪E}(E) has deg(u, M ∪ U) >= k for every
/// u ∈ U; computed with an anchored peel (pin M, peel the similarity-free
/// excluded vertices below degree k). To preserve correctness under the
/// connectivity requirement (which the paper leaves implicit), survivors in
/// components of M ∪ U not containing an M vertex are ignored.
///
/// Instantiate once per component: the checker owns reusable scratch
/// buffers, so each call is allocation-free.
class EarlyTerminationChecker {
 public:
  explicit EarlyTerminationChecker(const ComponentContext& comp);

  /// True iff the node rooted at ctx's current (M, C, E) can be abandoned.
  bool CanTerminate(const SearchContext& ctx);

 private:
  /// The same test as word loops over the dense kernel's bits.
  bool CanTerminateDense(const SearchContext& ctx);

  const ComponentContext& comp_;
  std::vector<uint64_t> bits_;  // dense: U, M ∪ U, BFS reached/frontier/next
  std::vector<uint8_t> role_;       // 0 = out, 1 = candidate, 2 = anchored M
  std::vector<uint32_t> deg_;
  std::vector<VertexId> candidates_;
  std::vector<VertexId> worklist_;
  std::vector<VertexId> stack_;
  std::vector<uint32_t> seen_;
  uint32_t epoch_ = 0;
};

/// Convenience wrapper for one-off checks (tests).
bool CanTerminateEarly(const SearchContext& ctx);

}  // namespace krcore

#endif  // KRCORE_CORE_EARLY_TERMINATION_H_
