#ifndef KRCORE_CORE_MAXIMAL_CHECK_H_
#define KRCORE_CORE_MAXIMAL_CHECK_H_

#include <vector>

#include "core/krcore_types.h"
#include "core/search_context.h"
#include "util/timer.h"

namespace krcore {

enum class MaximalVerdict {
  kMaximal,
  kNotMaximal,
  kDeadlineExceeded,
};

/// Theorem 6 / Algorithm 4: decides whether a freshly generated (k,r)-core
/// (a connected component of M ∪ C at emission time, component-local ids)
/// is maximal, by searching for a strictly larger (k,r)-core inside
/// core ∪ E.
///
/// The search branches on *similarity conflicts only*: a valid extension U
/// never contains a dissimilar pair, so for a conflicted candidate w it
/// explores "keep w" (dropping w's dissimilar candidates) and "drop w".
/// When no conflicts remain, the answer is immediate — peel the candidates
/// to degree >= k with the core pinned; the core extends iff a survivor is
/// adjacent to it. Exponential only in the conflicts inside the filtered
/// excluded set (tiny in practice), never in |E|.
///
/// On the dense kernel every set is a bitset and every count a popcount
/// against the DenseRows; the sparse kernel walks the CSR rows. Both make the
/// same choices, so the node count is the same.
///
/// `order` selects the conflict-vertex heuristic compared in Fig 11(f):
/// kDegree (the paper's recommendation), kDelta1ThenDelta2 or kLambdaCombo;
/// anything else falls back to kDegree.
///
/// Instantiate once per component; calls reuse internal scratch buffers.
class MaximalCheckSearcher {
 public:
  explicit MaximalCheckSearcher(const ComponentContext& comp);

  MaximalVerdict Check(const SearchContext& ctx,
                       const std::vector<VertexId>& core, VertexOrder order,
                       double lambda, const Deadline& deadline,
                       uint64_t* nodes);

 private:
  void Peel(uint32_t k, std::vector<VertexId>& cand);
  /// Whether some candidate has a neighbor in the core.
  bool AnyAttached(const std::vector<VertexId>& cand);
  VertexId ChooseConflicted(const std::vector<VertexId>& cand,
                            VertexOrder order, double lambda);
  MaximalVerdict Search(const SearchContext& ctx, std::vector<VertexId> cand,
                        VertexOrder order, double lambda,
                        const Deadline& deadline, uint64_t* nodes);

  /// The same search as word loops over the dense kernel's rows: the core
  /// and each depth's candidates are bitsets in bits_.
  MaximalVerdict CheckDense(const SearchContext& ctx,
                            const std::vector<VertexId>& core,
                            VertexOrder order, double lambda,
                            const Deadline& deadline, uint64_t* nodes);
  MaximalVerdict SearchDense(const SearchContext& ctx, uint32_t depth,
                             VertexOrder order, double lambda,
                             const Deadline& deadline, uint64_t* nodes);
  /// Bitset i of bits_: 0 = core, 1 = candidates ∪ core of the current
  /// node, 2 + d = the candidates at recursion depth d.
  uint64_t* DenseSet(uint32_t i) { return bits_.data() + size_t{i} * words_; }

  const ComponentContext& comp_;
  std::vector<uint8_t> in_core_;
  std::vector<uint8_t> role_;
  std::vector<uint32_t> deg_;
  std::vector<VertexId> worklist_;
  uint64_t check_counter_ = 0;
  uint32_t words_ = 0;
  std::vector<uint64_t> bits_;
};

/// One-off convenience wrapper (tests).
MaximalVerdict CheckMaximal(const SearchContext& ctx,
                            const std::vector<VertexId>& core,
                            VertexOrder order, double lambda,
                            const Deadline& deadline, uint64_t* nodes);

}  // namespace krcore

#endif  // KRCORE_CORE_MAXIMAL_CHECK_H_
