#ifndef KRCORE_CORE_SEARCH_CONTEXT_H_
#define KRCORE_CORE_SEARCH_CONTEXT_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/krcore_types.h"
#include "core/pipeline.h"

namespace krcore {

/// Intrusive doubly-linked list over a fixed vertex universe, with O(1)
/// insert/remove. Used to iterate the M / C / E sets without scanning all
/// vertices. Removal anywhere and front-insertion are both reversible, so
/// the trail-based undo in SearchContext can restore membership.
class VertexList {
 public:
  void Init(VertexId n);
  void PushFront(VertexId u);
  void Remove(VertexId u);
  bool Contains(VertexId u) const { return prev_[u] != kNil; }
  VertexId size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Iteration: for (v = list.First(); v != kInvalidVertex; v = list.Next(v))
  VertexId First() const;
  VertexId Next(VertexId u) const;

  /// Copies the members into a vector, in iteration order.
  std::vector<VertexId> Materialize() const;

 private:
  static constexpr VertexId kNil = kInvalidVertex;
  // Slot n is the sentinel head.
  std::vector<VertexId> next_, prev_;
  VertexId head_ = kNil;
  VertexId size_ = 0;
};

/// Per-vertex search state (Table 1's M, C, E plus discarded).
enum class VertexState : uint8_t {
  kInC = 0,      // candidate
  kInM = 1,      // chosen
  kInE = 2,      // excluded but similar to all of M (relevant for Thm 5/6)
  kRemoved = 3,  // discarded and irrelevant
};

/// Word-level helpers over packed bit rows: bit v lives in word v / 64.
namespace bits {

inline uint32_t CountAnd(const uint64_t* a, const uint64_t* b,
                         uint32_t words) {
  uint32_t n = 0;
  for (uint32_t i = 0; i < words; ++i) n += std::popcount(a[i] & b[i]);
  return n;
}

inline bool Intersects(const uint64_t* a, const uint64_t* b,
                       uint32_t words) {
  for (uint32_t i = 0; i < words; ++i) {
    if (a[i] & b[i]) return true;
  }
  return false;
}

inline bool Test(const uint64_t* a, VertexId v) {
  return (a[v >> 6] >> (v & 63)) & 1;
}
inline void Set(uint64_t* a, VertexId v) {
  a[v >> 6] |= uint64_t{1} << (v & 63);
}
inline void Clear(uint64_t* a, VertexId v) {
  a[v >> 6] &= ~(uint64_t{1} << (v & 63));
}

/// Calls fn(v) for every bit v set in word(0), ..., word(words - 1), in
/// ascending order; fn returns false to stop early.
template <typename WordFn, typename Fn>
inline void ForEach(uint32_t words, WordFn word, Fn fn) {
  for (uint32_t i = 0; i < words; ++i) {
    for (uint64_t w = word(i); w != 0; w &= w - 1) {
      if (!fn(static_cast<VertexId>(i * 64 + std::countr_zero(w)))) return;
    }
  }
}

}  // namespace bits

/// A component's adjacency and dissimilarity as packed bit rows, `words`
/// words per row: bit v of row u is set iff (u, v) is an edge / a
/// dissimilar pair. Built once per search root and shared read-only by every
/// Fork of it.
struct DenseRows {
  explicit DenseRows(const ComponentContext& comp);

  uint32_t words;
  std::vector<uint64_t> adj, dis;
};

/// Branch-and-bound state for one component, implementing the candidate
/// pruning rules (Thms 2 and 3), the similarity/degree invariants
/// (Equations 1 and 2), the retention rule (Thm 4 / Remark 1) and the
/// excluded-set maintenance that Theorems 5 and 6 rely on.
///
/// Two kernels hold the same state, chosen from the component size alone:
///  - dense (at most kDenseVertexLimit vertices): M, C and E are bitsets
///    beside the component's DenseRows, and every per-vertex counter is a
///    popcount of a row against them;
///  - sparse (larger components): the counters are stored and updated along
///    the CSR rows on every membership change.
/// Both journal every state change on a trail, the sparse kernel also every
/// counter update; Mark()/RewindTo() give O(#changes) backtracking. The
/// trail also restores the M / C / E list order, which Choose's ties depend
/// on, so both kernels walk the identical search tree. All ids are
/// component-local.
class SearchContext {
 public:
  /// Components up to this size run the dense kernel.
  static constexpr VertexId kDenseVertexLimit = 256;

  /// `track_excluded` keeps E up to date (needed by early termination and the
  /// smart maximal check; BasicEnum turns it off).
  SearchContext(const ComponentContext& comp, uint32_t k, bool track_excluded);

  SearchContext(SearchContext&&) = default;
  SearchContext& operator=(SearchContext&&) = default;

  /// Deep copy of the M/C/E state with an *empty* trail: the copy behaves
  /// exactly like the original under any op sequence, but its
  /// Mark()/RewindTo() horizon starts at the fork point. The dense kernel's
  /// DenseRows are shared, not copied. This is what the parallel drivers
  /// hand to a forked subtree task — the task explores its branch on the
  /// copy while the original backtracks independently. Must not be called
  /// on a dead context.
  SearchContext Fork() const;

  const ComponentContext& component() const { return *comp_; }
  uint32_t k() const { return k_; }

  // ---- set access -------------------------------------------------------
  VertexState state(VertexId u) const { return state_[u]; }
  const VertexList& m_list() const { return m_list_; }
  const VertexList& c_list() const { return c_list_; }
  const VertexList& e_list() const { return e_list_; }

  /// Structure degree of u w.r.t. M ∪ C (valid while u ∈ M ∪ C).
  uint32_t deg_mc(VertexId u) const {
    if (!dense()) return deg_mc_[u];
    const uint64_t* row = adj_row(u);
    const uint64_t* m = m_bits();
    const uint64_t* c = c_bits();
    uint32_t n = 0;
    for (uint32_t i = 0; i < words_; ++i) {
      n += std::popcount(row[i] & (m[i] | c[i]));
    }
    return n;
  }
  /// Number of u's neighbors currently in M.
  uint32_t deg_m(VertexId u) const {
    return dense() ? bits::CountAnd(adj_row(u), m_bits(), words_) : deg_m_[u];
  }
  /// DP(u, C): number of u's dissimilar vertices currently in C.
  uint32_t dp_c(VertexId u) const {
    return dense() ? bits::CountAnd(dis_row(u), c_bits(), words_) : dp_c_[u];
  }
  /// dp_c(u) != 0, without counting.
  bool HasDissimilarInC(VertexId u) const {
    return dense() ? bits::Intersects(dis_row(u), c_bits(), words_)
                   : dp_c_[u] != 0;
  }
  /// DP(u, M).
  uint32_t dp_m(VertexId u) const {
    return dense() ? bits::CountAnd(dis_row(u), m_bits(), words_) : dp_m_[u];
  }
  /// DP(u, E) (0 when excluded tracking is off).
  uint32_t dp_e(VertexId u) const {
    return dense() ? bits::CountAnd(dis_row(u), e_bits(), words_) : dp_e_[u];
  }

  /// DP(C): number of dissimilar pairs with both endpoints in C.
  uint64_t dissimilar_pairs_c() const { return dp_pairs_c_; }
  /// |E(M ∪ C)|: edges with both endpoints in M ∪ C.
  uint64_t edges_mc() const { return edges_mc_; }

  bool dead() const { return dead_; }

  /// C == SF(C), i.e. DP(C) == 0: per Theorem 4, M ∪ C is then a
  /// (k,r)-core.
  bool CandidatesAllSimilarityFree() const { return dp_pairs_c_ == 0; }

  // ---- dense kernel bits (valid only when dense()) -------------------------
  bool dense() const { return words_ != 0; }
  /// Words per row and per set bitset.
  uint32_t words() const { return words_; }
  const uint64_t* adj_row(VertexId u) const {
    return rows_->adj.data() + size_t{u} * words_;
  }
  const uint64_t* dis_row(VertexId u) const {
    return rows_->dis.data() + size_t{u} * words_;
  }
  const uint64_t* c_bits() const { return set_bits_.data(); }
  const uint64_t* m_bits() const { return set_bits_.data() + words_; }
  const uint64_t* e_bits() const { return set_bits_.data() + 2 * words_; }

  // ---- branching operations ---------------------------------------------
  /// Expand branch: moves u from C to M, applies similarity pruning (Thm 3)
  /// against u, then the structure-peel cascade (Thm 2), then the
  /// M-connectivity reduction. Returns false iff the branch died (an M
  /// vertex lost the structure constraint or M became disconnected).
  bool Expand(VertexId u);

  /// Shrink branch: discards u from C (into E when similar to all of M and
  /// excluded tracking is on), then cascades. Returns false iff dead.
  bool Shrink(VertexId u);

  /// Remark 1: repeatedly moves every u ∈ SF(C) with deg(u, M) >= k straight
  /// into M. Returns false iff a cascade killed the branch. The number of
  /// promotions performed is added to *promotions (may be null).
  bool PromoteSimilarityFree(uint64_t* promotions);

  // ---- backtracking -------------------------------------------------------
  /// Returns a checkpoint token for RewindTo.
  size_t Mark() const { return trail_.size(); }
  /// Restores the exact state at Mark(); clears the dead flag.
  void RewindTo(size_t mark);

  /// Members of M ∪ C (sorted ascending).
  std::vector<VertexId> MaterializeMC() const;

 private:
  friend class SearchContextTestPeer;

  // Fork() is the only copy entry point: it resets the trail and scratch,
  // which a raw member-wise copy would silently share semantics with.
  SearchContext(const SearchContext&) = default;
  SearchContext& operator=(const SearchContext&) = delete;

  // The dense kernel's size limit; tests lower it to 0 to force the sparse
  // kernel or raise it to force the dense one.
  static inline std::atomic<VertexId> dense_limit_{kDenseVertexLimit};

  enum class Op : uint8_t {
    kState,     // payload: old state
    kDegMc,     // payload: applied delta (sparse kernel only, like the rest)
    kDegM,
    kDpC,
    kDpM,
    kDpE,
  };
  struct TrailEntry {
    Op op;
    VertexId u;
    int32_t delta;
  };

  // Low-level journaled mutators (forward direction).
  void ChangeState(VertexId u, VertexState s);
  void AdjustDegMc(VertexId u, int32_t d);
  void AdjustDegM(VertexId u, int32_t d);
  void AdjustDpC(VertexId u, int32_t d);
  void AdjustDpM(VertexId u, int32_t d);
  void AdjustDpE(VertexId u, int32_t d);

  // Shared by forward application and undo.
  void ApplyState(VertexId u, VertexState s);

  uint64_t* set_bits(VertexState s) {
    return set_bits_.data() + static_cast<size_t>(s) * words_;
  }

  /// Discards u from C: destination E or Removed, dp/deg updates, enqueues
  /// under-degree neighbors. Never called for M vertices.
  void DiscardFromC(VertexId u);
  /// Drops u out of E (it became dissimilar to M).
  void DropFromE(VertexId u);
  /// Moves u from C to M with all counter updates and similarity pruning.
  void MoveToM(VertexId u);
  /// For a neighbor v ∈ M ∪ C of a vertex that just left M ∪ C: queues v
  /// for peeling (Thm 2) when it fell below degree k, or kills the branch
  /// when v ∈ M.
  void CheckSupport(VertexId v);
  /// Processes the pending structure-peel worklist until empty or dead.
  void DrainPeel();
  /// Marks the part of M ∪ C reachable from the first M vertex; returns true
  /// iff that is all of M ∪ C. Reached() then tells members apart.
  bool MarkReachableFromM();
  bool Reached(VertexId u) const {
    return dense() ? bits::Test(bfs_bits_.data(), u)
                   : bfs_mark_[u] == bfs_epoch_;
  }
  /// Discards C vertices unreachable from M (when M is non-empty); kills the
  /// branch when M itself is not connected within M ∪ C. Loops with DrainPeel
  /// until a fixpoint.
  void EnforceConnectivity();

  const ComponentContext* comp_;
  uint32_t k_;
  bool track_excluded_;

  std::vector<VertexState> state_;
  VertexList m_list_, c_list_, e_list_;
  uint64_t dp_pairs_c_ = 0;
  uint64_t edges_mc_ = 0;
  bool dead_ = false;

  // Dense kernel: shared rows and the C, M, E bitsets in VertexState order.
  std::shared_ptr<const DenseRows> rows_;
  uint32_t words_ = 0;
  std::vector<uint64_t> set_bits_;

  // Sparse kernel: stored counters.
  std::vector<uint32_t> deg_mc_, deg_m_;
  std::vector<uint32_t> dp_c_, dp_m_, dp_e_;

  std::vector<TrailEntry> trail_;
  std::vector<VertexId> peel_queue_;
  // Scratch for connectivity BFS: visit stamps (sparse), or the reached,
  // frontier and next sets (dense, 3 * words_).
  std::vector<VertexId> bfs_stack_;
  std::vector<uint32_t> bfs_mark_;
  uint32_t bfs_epoch_ = 0;
  std::vector<uint64_t> bfs_bits_;
};

}  // namespace krcore

#endif  // KRCORE_CORE_SEARCH_CONTEXT_H_
