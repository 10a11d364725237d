#ifndef KRCORE_CORE_SIZE_BOUNDS_H_
#define KRCORE_CORE_SIZE_BOUNDS_H_

#include <cstdint>
#include <vector>

#include "core/krcore_types.h"
#include "core/search_context.h"

namespace krcore {

/// Upper bounds on the size of any (k,r)-core inside the current M ∪ C of a
/// search context (Sec 6.2). All run on the component's similarity structure
/// without materializing the similarity graph: the per-vertex dissimilar
/// lists are its complement, and similarity degrees are derived as
/// |M ∪ C| - 1 - DP(u, M ∪ C).
///
/// Instantiate once per component; the computer owns reusable scratch so
/// per-node bound evaluation is allocation-free.
class SizeBoundComputer {
 public:
  explicit SizeBoundComputer(const ComponentContext& comp);

  /// Dispatches on `kind`.
  uint64_t Compute(const SearchContext& ctx, SizeBoundKind kind);

  /// |M| + |C| — the trivial bound used by BasicMax.
  uint64_t Naive(const SearchContext& ctx) const;

  /// Greedy-coloring bound: any (k,r)-core is a clique in the similarity
  /// graph, so the color count of a proper coloring bounds its size [31].
  /// Colors greedily in ascending-DP (descending similarity degree) order.
  uint64_t Color(const SearchContext& ctx);

  /// k-core bound: a c-clique is a (c-1)-core of the similarity graph, so
  /// (degeneracy of the similarity graph) + 1 bounds the clique size [31].
  uint64_t Kcore(const SearchContext& ctx);

  /// min(Color, Kcore) — the paper's Color+Kcore baseline.
  uint64_t ColorPlusKcore(const SearchContext& ctx);

  /// The paper's (k,k')-core bound (Definition 6 / Theorem 7 / Algorithm 6):
  /// the largest k' such that some U ⊆ M ∪ C induces a k-core on the
  /// structure graph and a k'-core on the similarity graph; any (k,r)-core
  /// R ⊆ M ∪ C has |R| <= k'_max + 1.
  ///
  /// Peels by *descending dissimilarity count* instead of ascending
  /// similarity degree — identical orders, since degsim(u) = |H|-1 - DP(u,H)
  /// — so only the sparse dissimilar lists are touched per removal.
  /// Structure violations cascade (KK'coreUpdate) at the current k' level;
  /// with structure_k = 0 the cascade is disabled and the result is the
  /// similarity-graph degeneracy + 1 (== Kcore). O(ne + nd) per call; on the
  /// dense kernel H is a bitset and each removal walks its rows & H.
  uint64_t KkPrime(const SearchContext& ctx, uint32_t structure_k);

 private:
  const ComponentContext& comp_;
  // Shared scratch (sized to the component).
  std::vector<char> in_h_;
  std::vector<uint64_t> h_bits_;  // dense kernel: H as a bitset
  std::vector<uint32_t> dp_;
  std::vector<uint32_t> deg_;
  std::vector<VertexId> members_;
  std::vector<VertexId> cascade_;
  std::vector<std::vector<VertexId>> buckets_;
  // Coloring scratch.
  std::vector<uint32_t> color_;
  std::vector<uint32_t> color_total_;
  std::vector<uint32_t> dis_with_color_;
};

/// One-off convenience wrappers (tests and small callers).
uint64_t NaiveSizeBound(const SearchContext& ctx);
uint64_t ColorSizeBound(const SearchContext& ctx);
uint64_t KcoreSizeBound(const SearchContext& ctx);
uint64_t ColorPlusKcoreSizeBound(const SearchContext& ctx);
uint64_t KkPrimeSizeBound(const SearchContext& ctx, uint32_t structure_k);
uint64_t ComputeSizeBound(const SearchContext& ctx, SizeBoundKind kind);

}  // namespace krcore

#endif  // KRCORE_CORE_SIZE_BOUNDS_H_
