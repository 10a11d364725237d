#include "core/dissimilarity_index.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "util/logging.h"

namespace krcore {

DissimilarityIndex DissimilarityIndex::BorrowedView(
    VertexId n, std::span<const uint64_t> offsets,
    std::span<const VertexId> ids, std::span<const uint64_t> reserve_offsets,
    std::span<const VertexId> reserve_ids,
    std::span<const double> reserve_scores) {
  DissimilarityIndex index;
  index.n_ = n;
  index.offsets_ = ArrayRef<uint64_t>::Borrowed(offsets);
  index.ids_ = ArrayRef<VertexId>::Borrowed(ids);
  index.reserve_offsets_ = ArrayRef<uint64_t>::Borrowed(reserve_offsets);
  index.reserve_ids_ = ArrayRef<VertexId>::Borrowed(reserve_ids);
  index.reserve_scores_ = ArrayRef<double>::Borrowed(reserve_scores);
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
  uint64_t appended = 0;
  for (VertexId u : rows) {
    KRCORE_DCHECK(u < n_);
    const VertexId nu = new_id[u];
    if (nu == kInvalidVertex) continue;
    for (VertexId v : (*this)[u]) {
      if (v <= u) continue;  // each unordered pair once, from the min row
      const VertexId nv = new_id[v];
      if (nv == kInvalidVertex) continue;
      builder->AddPair(nu, nv);
      ++appended;
    }
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

uint64_t DissimilarityIndex::MemoryBytes() const {
  return (offsets_.size() + reserve_offsets_.size()) * sizeof(uint64_t) +
         (ids_.size() + reserve_ids_.size()) * sizeof(VertexId) +
         reserve_scores_.size() * sizeof(double);
}

DissimilarityIndex::Builder::Builder(VertexId num_vertices)
    : n_(num_vertices),
      active_counts_(num_vertices, 0),
      reserve_counts_(num_vertices, 0) {}

void DissimilarityIndex::Builder::AddPair(VertexId a, VertexId b) {
  KRCORE_DCHECK(a < n_ && b < n_ && a != b);
  if (a > b) std::swap(a, b);
  ++active_counts_[a];
  ++active_counts_[b];
  pairs_.push_back((static_cast<uint64_t>(a) << 32) | b);
}

void DissimilarityIndex::Builder::AddReservePair(VertexId a, VertexId b,
                                                 double score) {
  KRCORE_DCHECK(a < n_ && b < n_ && a != b);
  if (a > b) std::swap(a, b);
  ++reserve_counts_[a];
  ++reserve_counts_[b];
  reserve_.push_back({(static_cast<uint64_t>(a) << 32) | b, score});
}

uint64_t DissimilarityIndex::Builder::MemoryBytes() const {
  return (active_counts_.size() + reserve_counts_.size()) * sizeof(uint32_t) +
         pairs_.size() * sizeof(uint64_t) +
         reserve_.size() * sizeof(ReservePair);
}

namespace {

/// Row offsets from per-row counts.
std::vector<uint64_t> OffsetsFromCounts(const std::vector<uint32_t>& counts) {
  std::vector<uint64_t> offsets(counts.size() + 1, 0);
  for (size_t u = 0; u < counts.size(); ++u) {
    offsets[u + 1] = offsets[u] + counts[u];
  }
  return offsets;
}

}  // namespace

DissimilarityIndex DissimilarityIndex::Builder::Build() {
  // Fill both directions, then sort each row (pairs may arrive in any
  // order, e.g. tile-major from the blocked pipeline builder).
  std::vector<uint64_t> offsets = OffsetsFromCounts(active_counts_);
  std::vector<VertexId> ids(offsets.back());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const uint64_t packed : pairs_) {
    const VertexId a = static_cast<VertexId>(packed >> 32);
    const VertexId b = static_cast<VertexId>(packed & 0xFFFFFFFFu);
    ids[cursor[a]++] = b;
    ids[cursor[b]++] = a;
  }
  pairs_.clear();
  pairs_.shrink_to_fit();
  for (VertexId u = 0; u < n_; ++u) {
    std::sort(ids.begin() + offsets[u], ids.begin() + offsets[u + 1]);
  }

  // Reserve rows: sort (id, score) entries by id within each row.
  std::vector<uint64_t> reserve_offsets = OffsetsFromCounts(reserve_counts_);
  std::vector<std::pair<VertexId, double>> entries(reserve_offsets.back());
  cursor.assign(reserve_offsets.begin(), reserve_offsets.end() - 1);
  for (const ReservePair& p : reserve_) {
    const VertexId a = static_cast<VertexId>(p.packed >> 32);
    const VertexId b = static_cast<VertexId>(p.packed & 0xFFFFFFFFu);
    entries[cursor[a]++] = {b, p.score};
    entries[cursor[b]++] = {a, p.score};
  }
  reserve_.clear();
  reserve_.shrink_to_fit();
  std::vector<VertexId> reserve_ids(entries.size());
  std::vector<double> reserve_scores(entries.size());
  for (VertexId u = 0; u < n_; ++u) {
    const auto begin = entries.begin() + reserve_offsets[u];
    const auto end = entries.begin() + reserve_offsets[u + 1];
    std::sort(begin, end, [](const auto& x, const auto& y) {
      return x.first < y.first;
    });
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    reserve_ids[i] = entries[i].first;
    reserve_scores[i] = entries[i].second;
  }
  return FromRows(n_, std::move(offsets), std::move(ids),
                  std::move(reserve_offsets), std::move(reserve_ids),
                  std::move(reserve_scores));
}

DissimilarityIndex DissimilarityIndex::FromRows(
    VertexId n, std::vector<uint64_t> offsets, std::vector<VertexId> ids,
    std::vector<uint64_t> reserve_offsets, std::vector<VertexId> reserve_ids,
    std::vector<double> reserve_scores) {
  KRCORE_DCHECK(offsets.size() == static_cast<size_t>(n) + 1);
  KRCORE_DCHECK(reserve_offsets.size() == static_cast<size_t>(n) + 1);
  KRCORE_DCHECK(offsets.back() == ids.size());
  KRCORE_DCHECK(reserve_offsets.back() == reserve_ids.size());
  KRCORE_DCHECK(reserve_scores.size() == reserve_ids.size());
  DissimilarityIndex index;
  index.n_ = n;
  index.offsets_ = std::move(offsets);
  index.ids_ = std::move(ids);
  index.reserve_offsets_ = std::move(reserve_offsets);
  index.reserve_ids_ = std::move(reserve_ids);
  index.reserve_scores_ = std::move(reserve_scores);

#ifndef NDEBUG
  // Every row strictly ascending (no duplicates), and every entry mirrored
  // in the partner's row of the same kind; reserve entries with the same
  // score.
  const auto find = [](std::span<const VertexId> row, VertexId u) {
    auto it = std::lower_bound(row.begin(), row.end(), u);
    return it != row.end() && *it == u ? it - row.begin() : -1;
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
    for (VertexId v : active) {
      KRCORE_DCHECK(v < n && v != u && find(index[v], u) >= 0)
          << "active pair {" << u << ", " << v << "} is not mirrored";
    }
    for (size_t i = 0; i < reserve.size(); ++i) {
      const VertexId v = reserve[i];
      const auto at = v < n ? find(index.reserve_row(v), u) : -1;
      KRCORE_DCHECK(v != u && at >= 0 &&
                    index.reserve_scores(v)[static_cast<size_t>(at)] ==
                        index.reserve_scores(u)[i])
          << "reserve pair {" << u << ", " << v << "} is not mirrored";
    }
  }
#endif
  return index;
}

}  // namespace krcore
