#ifndef KRCORE_CORE_DISSIMILARITY_INDEX_H_
#define KRCORE_CORE_DISSIMILARITY_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace krcore {

/// Flat storage for per-component dissimilarity: for every local vertex u,
/// the sorted list of local vertices v with sim(u, v) violating r. This is
/// the complement of the component's similarity graph and the engine's
/// single hottest data structure — every Theorem 3 pruning loop, dp counter
/// update, SF(C) maintenance step and conflict branch walks these rows.
///
/// Layout:
///  - CSR core: one offsets array (n+1) plus one contiguous id array, so
///    row iteration is a pointer-range scan with no per-row heap hops and
///    membership probes are a binary search over a cache-contiguous range.
///  - Score annotation (optional): a parallel score array storing each
///    pair's raw metric value, and a two-segment row split. The *active*
///    segment holds the pairs dissimilar at the index's serving threshold —
///    exactly what an unannotated index stores — and every mining-facing
///    accessor (operator[], degree, Dissimilar, num_pairs) sees only it,
///    so the search hot path is bit-for-bit identical with or without
///    annotation. The *reserve* segment holds pairs that are similar at the
///    serving threshold but dissimilar at some stricter *cover* threshold;
///    only the derivation machinery reads it, to answer any threshold
///    between serve and cover as a pure score filter with zero oracle
///    calls.
///
///    Both segments keep ascending id order (not score order): rows merge
///    and probe by id, and an r-filter has to remap ids while copying
///    anyway, so score-ordering a row would cost the membership probe and
///    buy nothing the linear filter pass does not already get. Scores are
///    stored at full double width: the filter must reproduce the oracle's
///    threshold verdict bit for bit — a float-narrowed score can flip a
///    pair that sits within half an ULP of a cell threshold, silently
///    breaking the derived == cold invariant the whole reuse layer is
///    contracted on.
///
/// Storage is owned-or-borrowed, like Graph: Builder::Build and FromRows
/// produce an owning index (vectors), while BorrowedView wraps externally-
/// owned CSR arrays — the spans an mmapped snapshot hands out, whose
/// lifetime the holder of the mapping (PreparedWorkspace::backing) carries.
///
/// Instances are immutable once built; all reads are const and thread-safe.
class DissimilarityIndex {
 public:
  DissimilarityIndex() = default;

  DissimilarityIndex(const DissimilarityIndex& o) { *this = o; }
  DissimilarityIndex& operator=(const DissimilarityIndex& o);
  DissimilarityIndex(DissimilarityIndex&& o) noexcept {
    *this = std::move(o);
  }
  DissimilarityIndex& operator=(DissimilarityIndex&& o) noexcept;

  /// Borrows externally-owned CSR arrays without copying or validating (the
  /// snapshot layer validates on first touch).
  static DissimilarityIndex BorrowedView(
      VertexId n, std::span<const uint64_t> offsets,
      std::span<const uint64_t> active_end, std::span<const VertexId> ids,
      std::span<const double> scores, uint64_t num_pairs,
      uint64_t num_reserve_pairs, bool scored);

  /// Adopts fully formed owned CSR arrays without copying: each row's active
  /// and reserve segments id-sorted, every pair stored in both endpoint rows
  /// (same segment, same score), `scores` parallel to `ids` when `scored`
  /// and empty otherwise. Counts the pairs; Debug builds check sortedness
  /// and symmetry. Builder::Build ends here, and workspace derivation writes
  /// its rows directly and hands them over.
  static DissimilarityIndex FromRows(VertexId n, std::vector<uint64_t> offsets,
                                     std::vector<uint64_t> active_end,
                                     std::vector<VertexId> ids,
                                     std::vector<double> scores, bool scored);

  VertexId num_vertices() const { return n_; }
  /// Number of unordered dissimilar pairs at the serving threshold (DP of
  /// Sec 7.1). Reserve pairs are not counted — they are not dissimilar at
  /// the threshold this index serves.
  uint64_t num_pairs() const { return num_pairs_; }
  bool empty() const { return num_pairs_ == 0; }

  /// True when rows carry the parallel score annotation (and possibly
  /// reserve segments) a threshold-restriction needs.
  bool has_scores() const { return !scores_view_.empty() || annotated_empty_; }
  /// Number of unordered reserve pairs (similar at the serving threshold,
  /// dissimilar at the builder's cover threshold).
  uint64_t num_reserve_pairs() const { return num_reserve_pairs_; }

  /// Dissimilar degree at the serving threshold (active entries only).
  uint32_t degree(VertexId u) const {
    KRCORE_DCHECK(u < n_);
    return static_cast<uint32_t>(active_end_view_[u] - offsets_view_[u]);
  }

  /// Sorted dissimilar row of u (active segment only — what mining sees).
  std::span<const VertexId> operator[](VertexId u) const {
    KRCORE_DCHECK(u < n_);
    return {ids_view_.data() + offsets_view_[u],
            ids_view_.data() + active_end_view_[u]};
  }
  std::span<const VertexId> row(VertexId u) const { return (*this)[u]; }

  /// Scores parallel to row(u). Empty spans when !has_scores().
  std::span<const double> row_scores(VertexId u) const {
    KRCORE_DCHECK(u < n_);
    if (scores_view_.empty()) return {};
    return {scores_view_.data() + offsets_view_[u],
            scores_view_.data() + active_end_view_[u]};
  }

  /// Sorted reserve row of u: partners similar at the serving threshold but
  /// dissimilar at the cover threshold, with scores parallel.
  std::span<const VertexId> reserve_row(VertexId u) const {
    KRCORE_DCHECK(u < n_);
    return {ids_view_.data() + active_end_view_[u],
            ids_view_.data() + offsets_view_[u + 1]};
  }
  std::span<const double> reserve_scores(VertexId u) const {
    KRCORE_DCHECK(u < n_);
    if (scores_view_.empty()) return {};
    return {scores_view_.data() + active_end_view_[u],
            scores_view_.data() + offsets_view_[u + 1]};
  }

  /// True iff {u, v} is a dissimilar pair at the serving threshold: a
  /// binary search over the shorter active row, O(log min(deg(u), deg(v))).
  /// Reserve pairs answer false — they are similar at serve.
  bool Dissimilar(VertexId u, VertexId v) const;

  /// Bytes held by the CSR arrays and the score annotation (excludes the
  /// object header; used for the PreprocessReport memory accounting).
  /// Borrowed views count their mapped bytes.
  uint64_t MemoryBytes() const;

  /// Raw CSR arrays (the snapshot writer's zero-transform serialization).
  std::span<const uint64_t> offsets_array() const { return offsets_view_; }
  std::span<const uint64_t> active_end_array() const {
    return active_end_view_;
  }
  std::span<const VertexId> ids_array() const { return ids_view_; }
  std::span<const double> scores_array() const { return scores_view_; }
  bool borrowed() const { return borrowed_; }

  /// Accumulates pairs (both directions are derived from one AddPair call)
  /// and freezes them into an index. Designed for streaming producers: the
  /// buffer holds 8 bytes per pair (plus 9 more when score-annotated) plus
  /// 8 bytes per vertex while accumulating; during Build() the buffer and
  /// the CSR arrays briefly coexist.
  ///
  /// A builder is either unannotated (AddPair only) or score-annotated
  /// (AddScoredPair / AddReservePair only); mixing the two is a programming
  /// error.
  class Builder {
   public:
    explicit Builder(VertexId num_vertices);

    /// Records the unordered dissimilar pair {a, b}; a != b, both < n.
    /// Each pair must be added at most once (across both segments).
    void AddPair(VertexId a, VertexId b);

    /// Switches the builder to score-annotated mode without adding a pair:
    /// a component with zero stored pairs must still build an index that
    /// advertises has_scores(), or an empty component would lose its
    /// threshold-restriction capability. Implied by the scored adds.
    void AnnotateScores() {
      KRCORE_DCHECK(!any_unscored_);
      scored_ = true;
    }

    /// Score-annotated forms: an active pair (dissimilar at the serving
    /// threshold) or a reserve pair (similar at serve, dissimilar at the
    /// cover threshold), each carrying its raw metric score.
    void AddScoredPair(VertexId a, VertexId b, double score);
    void AddReservePair(VertexId a, VertexId b, double score);

    uint64_t num_pairs() const { return pairs_.size(); }
    /// Transient bytes currently held by the builder.
    uint64_t MemoryBytes() const;

    /// Freezes into an immutable index. The builder is consumed (its pair
    /// buffer is released).
    DissimilarityIndex Build();

   private:
    void Record(VertexId a, VertexId b, bool reserve);

    VertexId n_;
    bool scored_ = false;
    bool any_unscored_ = false;
    std::vector<uint32_t> active_counts_;   // per-row active degree
    std::vector<uint32_t> reserve_counts_;  // per-row reserve degree
    std::vector<uint64_t> pairs_;           // packed (min << 32 | max)
    std::vector<double> scores_;            // parallel to pairs_ when scored
    std::vector<uint8_t> reserve_;          // parallel segment flag
  };

  /// Row maintenance primitive of the incremental edge-update engine:
  /// streams every stored pair {u, v} whose endpoints both survive a
  /// re-keying (new_id[x] != kInvalidVertex) into `builder` under the new
  /// ids, and returns how many pairs were appended.
  /// `rows` lists the surviving source ids — every pair is emitted from its
  /// smaller endpoint's row, so `rows` must contain ALL survivors, and only
  /// those rows are scanned (a split into many sub-components stays
  /// proportional to the survivors, not to this index's size). Invalidated
  /// rows (new_id[x] == kInvalidVertex) are dropped wholesale — surviving
  /// partners' rows lose exactly the entries pointing at them — and the
  /// caller refills genuinely new rows with fresh AddPair calls before
  /// Build(). new_id.size() must be >= num_vertices().
  ///
  /// Score annotation, when present, rides through verbatim: active pairs
  /// stay active, reserve pairs stay reserve, scores preserved — the
  /// restriction serves the same (serve, cover) pair of thresholds.
  uint64_t AppendRemappedPairs(std::span<const VertexId> rows,
                               std::span<const VertexId> new_id,
                               Builder* builder) const;

  /// Score of the stored pair {u, v} searched in u's full row (both
  /// segments); returns false when the pair is not stored or the index is
  /// unannotated. A probe utility for annotation consumers and tests —
  /// the bulk derivation paths iterate the segments directly instead.
  bool LookupScore(VertexId u, VertexId v, double* score) const;

 private:
  void RebindOwned() {
    offsets_view_ = offsets_;
    active_end_view_ = active_end_;
    ids_view_ = ids_;
    scores_view_ = scores_;
  }

  VertexId n_ = 0;
  uint64_t num_pairs_ = 0;
  uint64_t num_reserve_pairs_ = 0;
  /// Distinguishes "annotated but zero pairs stored" from "unannotated":
  /// an empty scored index still advertises has_scores() so derivation
  /// accepts it.
  bool annotated_empty_ = false;
  bool borrowed_ = false;

  // Owned backing (empty for borrowed views).
  std::vector<uint64_t> offsets_;     // n+1, full rows (active + reserve)
  std::vector<uint64_t> active_end_;  // n, end of each active segment
  std::vector<VertexId> ids_;         // contiguous rows, segments sorted
  std::vector<double> scores_;        // parallel to ids_ when annotated

  // The uniform read surface: over the owned vectors, or over mapped bytes.
  std::span<const uint64_t> offsets_view_;
  std::span<const uint64_t> active_end_view_;
  std::span<const VertexId> ids_view_;
  std::span<const double> scores_view_;
};

}  // namespace krcore

#endif  // KRCORE_CORE_DISSIMILARITY_INDEX_H_
