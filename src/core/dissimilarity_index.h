#ifndef KRCORE_CORE_DISSIMILARITY_INDEX_H_
#define KRCORE_CORE_DISSIMILARITY_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/array_ref.h"

namespace krcore {

/// Flat storage for per-component dissimilarity: for every local vertex u,
/// the sorted list of local vertices v with sim(u, v) violating r. This is
/// the complement of the component's similarity graph and the engine's
/// single hottest data structure — every Theorem 3 pruning loop, dp counter
/// update, SF(C) maintenance step and conflict branch walks these rows.
///
/// Layout: two CSRs, each one offsets array (n+1) plus contiguous rows, so
/// row iteration is a pointer-range scan with no per-row heap hops and
/// membership probes are a binary search over a cache-contiguous range.
///  - *Active* (offsets, ids): the pairs dissimilar at the index's serving
///    threshold. Every mining-facing accessor (operator[], degree,
///    Dissimilar, num_pairs) sees only these rows. An active pair stays
///    dissimilar under every stricter threshold, so it carries no score.
///  - *Reserve* (offsets, ids, scores): the pairs similar at the serving
///    threshold but dissimilar at some stricter *cover* threshold, each
///    with its raw metric score. Only the derivation machinery reads them,
///    to answer any threshold between serve and cover as a pure score
///    filter with zero oracle calls. When cover == serve the reserve rows
///    are empty: there is no separate "unscored" kind of index.
///
///    Reserve rows keep ascending id order (not score order): rows merge
///    and probe by id, and an r-filter has to remap ids while copying
///    anyway, so score-ordering a row would cost the membership probe and
///    buy nothing the linear filter pass does not already get. Scores are
///    stored at full double width: the filter must reproduce the oracle's
///    threshold verdict bit for bit — a float-narrowed score can flip a
///    pair that sits within half an ULP of a cell threshold, silently
///    breaking the derived == cold invariant the whole reuse layer is
///    contracted on.
///
/// Storage is owned-or-borrowed (ArrayRef), like Graph: Builder::Build and
/// FromRows produce an owning index, while BorrowedView wraps externally-
/// owned arrays — the spans an mmapped snapshot hands out, whose lifetime
/// the holder of the mapping (PreparedWorkspace::backing) carries.
///
/// Instances are immutable once built; all reads are const and thread-safe.
class DissimilarityIndex {
 public:
  DissimilarityIndex() = default;

  /// Borrows externally-owned arrays without copying or validating (the
  /// snapshot layer validates on first touch).
  static DissimilarityIndex BorrowedView(
      VertexId n, std::span<const uint64_t> offsets,
      std::span<const VertexId> ids, std::span<const uint64_t> reserve_offsets,
      std::span<const VertexId> reserve_ids,
      std::span<const double> reserve_scores);

  /// Adopts fully formed owned arrays without copying: every row id-sorted,
  /// every pair stored in both endpoint rows (reserve pairs with the same
  /// score), `reserve_scores` parallel to `reserve_ids`. Counts the pairs;
  /// Debug builds check sortedness and symmetry. Builder::Build ends here,
  /// and workspace derivation writes its rows directly and hands them over.
  static DissimilarityIndex FromRows(VertexId n, std::vector<uint64_t> offsets,
                                     std::vector<VertexId> ids,
                                     std::vector<uint64_t> reserve_offsets,
                                     std::vector<VertexId> reserve_ids,
                                     std::vector<double> reserve_scores);

  VertexId num_vertices() const { return n_; }
  /// Number of unordered dissimilar pairs at the serving threshold (DP of
  /// Sec 7.1). Reserve pairs are not counted — they are not dissimilar at
  /// the threshold this index serves.
  uint64_t num_pairs() const { return ids_.size() / 2; }
  bool empty() const { return ids_.empty(); }

  /// Number of unordered reserve pairs (similar at the serving threshold,
  /// dissimilar at the builder's cover threshold).
  uint64_t num_reserve_pairs() const { return reserve_ids_.size() / 2; }

  /// Dissimilar degree at the serving threshold.
  uint32_t degree(VertexId u) const {
    KRCORE_DCHECK(u < n_);
    return static_cast<uint32_t>(offsets_[u + 1] - offsets_[u]);
  }

  /// Sorted dissimilar row of u (what mining sees).
  std::span<const VertexId> operator[](VertexId u) const {
    KRCORE_DCHECK(u < n_);
    return {ids_.data() + offsets_[u], ids_.data() + offsets_[u + 1]};
  }
  std::span<const VertexId> row(VertexId u) const { return (*this)[u]; }

  /// Sorted reserve row of u: partners similar at the serving threshold but
  /// dissimilar at the cover threshold, with scores parallel.
  std::span<const VertexId> reserve_row(VertexId u) const {
    KRCORE_DCHECK(u < n_);
    return {reserve_ids_.data() + reserve_offsets_[u],
            reserve_ids_.data() + reserve_offsets_[u + 1]};
  }
  std::span<const double> reserve_scores(VertexId u) const {
    KRCORE_DCHECK(u < n_);
    return {reserve_scores_.data() + reserve_offsets_[u],
            reserve_scores_.data() + reserve_offsets_[u + 1]};
  }

  /// True iff {u, v} is a dissimilar pair at the serving threshold: a
  /// binary search over the shorter active row, O(log min(deg(u), deg(v))).
  /// Reserve pairs answer false — they are similar at serve.
  bool Dissimilar(VertexId u, VertexId v) const;

  /// Bytes held by the arrays (excludes the object header; used for the
  /// PreprocessReport memory accounting). Borrowed views count their
  /// mapped bytes.
  uint64_t MemoryBytes() const;

  /// Raw arrays (the snapshot writer's zero-transform serialization).
  std::span<const uint64_t> offsets_array() const { return offsets_; }
  std::span<const VertexId> ids_array() const { return ids_; }
  std::span<const uint64_t> reserve_offsets_array() const {
    return reserve_offsets_;
  }
  std::span<const VertexId> reserve_ids_array() const { return reserve_ids_; }
  std::span<const double> reserve_scores_array() const {
    return reserve_scores_;
  }
  bool borrowed() const { return offsets_.borrowed(); }

  /// Accumulates pairs (both directions are derived from one add) and
  /// freezes them into an index. Designed for streaming producers: the
  /// buffer holds 8 bytes per active pair, 16 per reserve pair, plus 8
  /// bytes per vertex while accumulating; during Build() the buffers and
  /// the CSR arrays briefly coexist.
  class Builder {
   public:
    explicit Builder(VertexId num_vertices);

    /// Records the unordered dissimilar pair {a, b}; a != b, both < n.
    /// Each pair must be added at most once (across both kinds).
    void AddPair(VertexId a, VertexId b);
    /// Records a reserve pair (similar at serve, dissimilar at the cover
    /// threshold) with its raw metric score.
    void AddReservePair(VertexId a, VertexId b, double score);

    uint64_t num_pairs() const { return pairs_.size() + reserve_.size(); }
    /// Transient bytes currently held by the builder.
    uint64_t MemoryBytes() const;

    /// Freezes into an immutable index. The builder is consumed (its pair
    /// buffers are released).
    DissimilarityIndex Build();

   private:
    struct ReservePair {
      uint64_t packed;  // (min << 32 | max)
      double score;
    };

    VertexId n_;
    std::vector<uint32_t> active_counts_;   // per-row active degree
    std::vector<uint32_t> reserve_counts_;  // per-row reserve degree
    std::vector<uint64_t> pairs_;           // packed (min << 32 | max)
    std::vector<ReservePair> reserve_;
  };

  /// Row maintenance primitive of the incremental edge-update engine:
  /// streams every stored pair {u, v} whose endpoints both survive a
  /// re-keying (new_id[x] != kInvalidVertex) into `builder` under the new
  /// ids, and returns how many pairs were appended. Active pairs stay
  /// active and reserve pairs stay reserve with their scores, so the
  /// rebuilt rows serve the same (serve, cover) pair of thresholds.
  /// `rows` lists the surviving source ids — every pair is emitted from its
  /// smaller endpoint's row, so `rows` must contain ALL survivors, and only
  /// those rows are scanned (a split into many sub-components stays
  /// proportional to the survivors, not to this index's size). Invalidated
  /// rows (new_id[x] == kInvalidVertex) are dropped wholesale — surviving
  /// partners' rows lose exactly the entries pointing at them — and the
  /// caller refills genuinely new rows with fresh adds before Build().
  /// new_id.size() must be >= num_vertices().
  uint64_t AppendRemappedPairs(std::span<const VertexId> rows,
                               std::span<const VertexId> new_id,
                               Builder* builder) const;

 private:
  VertexId n_ = 0;
  ArrayRef<uint64_t> offsets_;          // n+1, active rows
  ArrayRef<VertexId> ids_;              // contiguous active rows
  ArrayRef<uint64_t> reserve_offsets_;  // n+1, reserve rows
  ArrayRef<VertexId> reserve_ids_;      // contiguous reserve rows
  ArrayRef<double> reserve_scores_;     // parallel to reserve_ids_
};

}  // namespace krcore

#endif  // KRCORE_CORE_DISSIMILARITY_INDEX_H_
