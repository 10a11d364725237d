#include "core/dissimilarity_index.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/logging.h"

namespace krcore {

DissimilarityIndex& DissimilarityIndex::operator=(
    const DissimilarityIndex& o) {
  if (this == &o) return *this;
  n_ = o.n_;
  num_pairs_ = o.num_pairs_;
  num_reserve_pairs_ = o.num_reserve_pairs_;
  annotated_empty_ = o.annotated_empty_;
  borrowed_ = o.borrowed_;
  if (o.borrowed_) {
    offsets_.clear();
    active_end_.clear();
    ids_.clear();
    scores_.clear();
    offsets_view_ = o.offsets_view_;
    active_end_view_ = o.active_end_view_;
    ids_view_ = o.ids_view_;
    scores_view_ = o.scores_view_;
  } else {
    offsets_ = o.offsets_;
    active_end_ = o.active_end_;
    ids_ = o.ids_;
    scores_ = o.scores_;
    RebindOwned();
  }
  return *this;
}

DissimilarityIndex& DissimilarityIndex::operator=(
    DissimilarityIndex&& o) noexcept {
  if (this == &o) return *this;
  n_ = o.n_;
  num_pairs_ = o.num_pairs_;
  num_reserve_pairs_ = o.num_reserve_pairs_;
  annotated_empty_ = o.annotated_empty_;
  borrowed_ = o.borrowed_;
  offsets_ = std::move(o.offsets_);
  active_end_ = std::move(o.active_end_);
  ids_ = std::move(o.ids_);
  scores_ = std::move(o.scores_);
  if (borrowed_) {
    offsets_view_ = o.offsets_view_;
    active_end_view_ = o.active_end_view_;
    ids_view_ = o.ids_view_;
    scores_view_ = o.scores_view_;
  } else {
    RebindOwned();
  }
  o.n_ = 0;
  o.num_pairs_ = 0;
  o.num_reserve_pairs_ = 0;
  o.annotated_empty_ = false;
  o.borrowed_ = false;
  o.offsets_.clear();
  o.active_end_.clear();
  o.ids_.clear();
  o.scores_.clear();
  o.offsets_view_ = {};
  o.active_end_view_ = {};
  o.ids_view_ = {};
  o.scores_view_ = {};
  return *this;
}

DissimilarityIndex DissimilarityIndex::BorrowedView(
    VertexId n, std::span<const uint64_t> offsets,
    std::span<const uint64_t> active_end, std::span<const VertexId> ids,
    std::span<const double> scores, uint64_t num_pairs,
    uint64_t num_reserve_pairs, bool scored) {
  DissimilarityIndex index;
  index.n_ = n;
  index.num_pairs_ = num_pairs;
  index.num_reserve_pairs_ = num_reserve_pairs;
  index.annotated_empty_ = scored && ids.empty();
  index.borrowed_ = true;
  index.offsets_view_ = offsets;
  index.active_end_view_ = active_end;
  index.ids_view_ = ids;
  index.scores_view_ = scores;
  return index;
}

bool DissimilarityIndex::Dissimilar(VertexId u, VertexId v) const {
  KRCORE_DCHECK(u < n_ && v < n_);
  if (u == v) return false;
  if (degree(v) < degree(u)) std::swap(u, v);
  auto r = (*this)[u];
  return std::binary_search(r.begin(), r.end(), v);
}

uint64_t DissimilarityIndex::AppendRemappedPairs(
    std::span<const VertexId> rows, std::span<const VertexId> new_id,
    Builder* builder) const {
  KRCORE_DCHECK(new_id.size() >= n_);
  const bool scored = has_scores();
  if (scored) builder->AnnotateScores();
  uint64_t appended = 0;
  for (VertexId u : rows) {
    KRCORE_DCHECK(u < n_);
    const VertexId nu = new_id[u];
    if (nu == kInvalidVertex) continue;
    const auto active = (*this)[u];
    const auto act_scores = row_scores(u);
    for (size_t i = 0; i < active.size(); ++i) {
      const VertexId v = active[i];
      if (v <= u) continue;  // each unordered pair once, from the min row
      const VertexId nv = new_id[v];
      if (nv == kInvalidVertex) continue;
      if (scored) {
        builder->AddScoredPair(nu, nv, act_scores[i]);
      } else {
        builder->AddPair(nu, nv);
      }
      ++appended;
    }
    if (!scored) continue;
    const auto res = reserve_row(u);
    const auto res_scores = reserve_scores(u);
    for (size_t i = 0; i < res.size(); ++i) {
      const VertexId v = res[i];
      if (v <= u) continue;
      const VertexId nv = new_id[v];
      if (nv == kInvalidVertex) continue;
      builder->AddReservePair(nu, nv, res_scores[i]);
      ++appended;
    }
  }
  return appended;
}

bool DissimilarityIndex::LookupScore(VertexId u, VertexId v,
                                     double* score) const {
  KRCORE_DCHECK(u < n_ && v < n_);
  if (scores_view_.empty()) return false;
  const auto probe = [&](std::span<const VertexId> seg,
                         std::span<const double> seg_scores) {
    auto it = std::lower_bound(seg.begin(), seg.end(), v);
    if (it == seg.end() || *it != v) return false;
    *score = seg_scores[static_cast<size_t>(it - seg.begin())];
    return true;
  };
  return probe((*this)[u], row_scores(u)) ||
         probe(reserve_row(u), reserve_scores(u));
}

uint64_t DissimilarityIndex::MemoryBytes() const {
  return offsets_view_.size() * sizeof(uint64_t) +
         active_end_view_.size() * sizeof(uint64_t) +
         ids_view_.size() * sizeof(VertexId) +
         scores_view_.size() * sizeof(double);
}

DissimilarityIndex::Builder::Builder(VertexId num_vertices)
    : n_(num_vertices),
      active_counts_(num_vertices, 0),
      reserve_counts_(num_vertices, 0) {}

void DissimilarityIndex::Builder::Record(VertexId a, VertexId b,
                                         bool reserve) {
  KRCORE_DCHECK(a < n_ && b < n_ && a != b);
  if (a > b) std::swap(a, b);
  auto& counts = reserve ? reserve_counts_ : active_counts_;
  ++counts[a];
  ++counts[b];
  pairs_.push_back((static_cast<uint64_t>(a) << 32) | b);
}

void DissimilarityIndex::Builder::AddPair(VertexId a, VertexId b) {
  KRCORE_DCHECK(!scored_) << "unscored AddPair on a score-annotated builder";
  any_unscored_ = true;
  Record(a, b, /*reserve=*/false);
}

void DissimilarityIndex::Builder::AddScoredPair(VertexId a, VertexId b,
                                                double score) {
  KRCORE_DCHECK(!any_unscored_) << "scored add on an unannotated builder";
  scored_ = true;
  Record(a, b, /*reserve=*/false);
  scores_.push_back(score);
  reserve_.push_back(0);
}

void DissimilarityIndex::Builder::AddReservePair(VertexId a, VertexId b,
                                                 double score) {
  KRCORE_DCHECK(!any_unscored_) << "scored add on an unannotated builder";
  scored_ = true;
  Record(a, b, /*reserve=*/true);
  scores_.push_back(score);
  reserve_.push_back(1);
}

uint64_t DissimilarityIndex::Builder::MemoryBytes() const {
  return active_counts_.size() * sizeof(uint32_t) +
         reserve_counts_.size() * sizeof(uint32_t) +
         pairs_.size() * sizeof(uint64_t) + scores_.size() * sizeof(double) +
         reserve_.size() * sizeof(uint8_t);
}

DissimilarityIndex DissimilarityIndex::Builder::Build() {
  std::vector<uint64_t> offsets(static_cast<size_t>(n_) + 1, 0);
  std::vector<uint64_t> active_end(n_, 0);
  for (VertexId u = 0; u < n_; ++u) {
    active_end[u] = offsets[u] + active_counts_[u];
    offsets[u + 1] = active_end[u] + reserve_counts_[u];
  }
  std::vector<VertexId> ids(offsets.back());
  std::vector<double> scores(scored_ ? offsets.back() : 0);

  // Fill both directions, then sort each segment (pairs may arrive in any
  // order, e.g. tile-major from the blocked pipeline builder). Active
  // entries land at the row start, reserve entries after active_end.
  std::vector<uint64_t> active_cursor(offsets.begin(), offsets.end() - 1);
  std::vector<uint64_t> reserve_cursor = active_end;
  for (size_t p = 0; p < pairs_.size(); ++p) {
    const uint64_t packed = pairs_[p];
    const VertexId a = static_cast<VertexId>(packed >> 32);
    const VertexId b = static_cast<VertexId>(packed & 0xFFFFFFFFu);
    const bool res = scored_ && reserve_[p] != 0;
    uint64_t& ca = res ? reserve_cursor[a] : active_cursor[a];
    uint64_t& cb = res ? reserve_cursor[b] : active_cursor[b];
    ids[ca] = b;
    ids[cb] = a;
    if (scored_) {
      scores[ca] = scores_[p];
      scores[cb] = scores_[p];
    }
    ++ca;
    ++cb;
  }
  pairs_.clear();
  pairs_.shrink_to_fit();
  scores_.clear();
  scores_.shrink_to_fit();
  reserve_.clear();
  reserve_.shrink_to_fit();

  std::vector<std::pair<VertexId, double>> scratch;
  auto sort_segment = [&](uint64_t begin, uint64_t end) {
    if (!scored_) {
      std::sort(ids.begin() + begin, ids.begin() + end);
      return;
    }
    scratch.clear();
    for (uint64_t i = begin; i < end; ++i) {
      scratch.emplace_back(ids[i], scores[i]);
    }
    std::sort(scratch.begin(), scratch.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    for (uint64_t i = begin; i < end; ++i) {
      ids[i] = scratch[i - begin].first;
      scores[i] = scratch[i - begin].second;
    }
  };
  for (VertexId u = 0; u < n_; ++u) {
    sort_segment(offsets[u], active_end[u]);
    sort_segment(active_end[u], offsets[u + 1]);
  }
  return FromRows(n_, std::move(offsets), std::move(active_end),
                  std::move(ids), std::move(scores), scored_);
}

DissimilarityIndex DissimilarityIndex::FromRows(
    VertexId n, std::vector<uint64_t> offsets,
    std::vector<uint64_t> active_end, std::vector<VertexId> ids,
    std::vector<double> scores, bool scored) {
  KRCORE_DCHECK(offsets.size() == static_cast<size_t>(n) + 1);
  KRCORE_DCHECK(active_end.size() == n);
  KRCORE_DCHECK(offsets.back() == ids.size());
  KRCORE_DCHECK(scores.size() == (scored ? ids.size() : 0));
  DissimilarityIndex index;
  index.n_ = n;
  index.annotated_empty_ = scored && ids.empty();
  uint64_t active_entries = 0;
  for (VertexId u = 0; u < n; ++u) active_entries += active_end[u] - offsets[u];
  index.num_pairs_ = active_entries / 2;
  index.num_reserve_pairs_ = (ids.size() - active_entries) / 2;
  index.offsets_ = std::move(offsets);
  index.active_end_ = std::move(active_end);
  index.ids_ = std::move(ids);
  index.scores_ = std::move(scores);
  index.RebindOwned();

#ifndef NDEBUG
  // Every entry strictly ascending within its segment (no duplicates), and
  // mirrored in the partner's row: same segment, same score.
  const auto mirrored = [&](std::span<const VertexId> seg,
                            std::span<const double> seg_scores, VertexId u,
                            double score) {
    auto it = std::lower_bound(seg.begin(), seg.end(), u);
    if (it == seg.end() || *it != u) return false;
    return !scored || seg_scores[static_cast<size_t>(it - seg.begin())] == score;
  };
  for (VertexId u = 0; u < n; ++u) {
    const auto active = index[u];
    const auto reserve = index.reserve_row(u);
    KRCORE_DCHECK(std::adjacent_find(active.begin(), active.end(),
                                     std::greater_equal<>()) == active.end())
        << "active row " << u << " is not strictly ascending";
    KRCORE_DCHECK(std::adjacent_find(reserve.begin(), reserve.end(),
                                     std::greater_equal<>()) == reserve.end())
        << "reserve row " << u << " is not strictly ascending";
    for (size_t i = 0; i < active.size(); ++i) {
      KRCORE_DCHECK(active[i] < n && active[i] != u &&
                    mirrored(index[active[i]], index.row_scores(active[i]), u,
                             scored ? index.row_scores(u)[i] : 0.0))
          << "active pair {" << u << ", " << active[i] << "} is not mirrored";
    }
    for (size_t i = 0; i < reserve.size(); ++i) {
      KRCORE_DCHECK(reserve[i] < n && reserve[i] != u &&
                    mirrored(index.reserve_row(reserve[i]),
                             index.reserve_scores(reserve[i]), u,
                             index.reserve_scores(u)[i]))
          << "reserve pair {" << u << ", " << reserve[i]
          << "} is not mirrored";
    }
  }
#endif
  return index;
}

}  // namespace krcore
