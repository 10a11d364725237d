#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "similarity/join/pair_filter.h"

namespace krcore {
namespace {

/// Axis-aligned bounding box of the points actually stored in one grid
/// cell. All certification runs on these boxes, never on the cell geometry:
/// the grid is purely a partitioning heuristic, so a floating-point wobble
/// in cell assignment cannot affect correctness — a misplaced point just
/// widens its cell's box.
struct Box {
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();

  void Add(double x, double y) {
    min_x = std::min(min_x, x);
    min_y = std::min(min_y, y);
    max_x = std::max(max_x, x);
    max_y = std::max(max_y, y);
  }
};

/// Lower bound on the squared distance between any point of `a` and any
/// point of `b` (0 when the boxes overlap).
double MinDistSq(const Box& a, const Box& b) {
  const double dx = std::max({0.0, a.min_x - b.max_x, b.min_x - a.max_x});
  const double dy = std::max({0.0, a.min_y - b.max_y, b.min_y - a.max_y});
  return dx * dx + dy * dy;
}

/// Upper bound on the squared distance between any point of `a` and any
/// point of `b` (the diagonal of their joint bounding box).
double MaxDistSq(const Box& a, const Box& b) {
  const double dx = std::max(a.max_x, b.max_x) - std::min(a.min_x, b.min_x);
  const double dy = std::max(a.max_y, b.max_y) - std::min(a.min_y, b.min_y);
  return dx * dx + dy * dy;
}

/// One occupied grid cell: its vertex range in the cell-sorted order plus
/// the bounding box of its actual points.
struct Cell {
  uint32_t begin = 0;
  uint32_t end = 0;
  uint64_t suffix_members = 0;  // members in cells ordered after this one
  Box box;
};

uint32_t GridDim(double span, double side) {
  if (!(span > 0.0) || !(side > 0.0)) return 1;
  const double d = span / side;
  if (d >= 1024.0) return 1024;
  return static_cast<uint32_t>(d) + 1;
}

/// Uniform-grid filter for Euclidean distance. Partition = occupied cell;
/// partition i covers its internal pairs plus every cross pair against
/// occupied cells ordered after it. For each cell pair the box bounds
/// settle whole blocks at once:
///
///  - min box distance beyond the serving threshold (with margin):
///    every cross pair is certified dissimilar — recorded as an active pair
///    without a metric evaluation;
///  - max box distance inside the cover threshold (with margin): every
///    cross pair is certified similar at cover, so none is stored —
///    |A|*|B| pairs settled in O(1), the bulk skip that makes the join
///    sub-brute on clustered data;
///  - otherwise each cross pair becomes a verified candidate.
class GridPairFilter final : public PairFilter {
 public:
  GridPairFilter(const AttributeTable& attrs,
                 std::span<const VertexId> members, double serve_threshold,
                 double cover_threshold) {
    const VertexId n = static_cast<VertexId>(members.size());
    px_.resize(n);
    py_.resize(n);
    Box all;
    for (VertexId u = 0; u < n; ++u) {
      const GeoPoint& p = attrs.point(members[u]);
      if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
        ok_ = false;  // no certified bounds over non-finite coordinates
        return;
      }
      px_[u] = p.x;
      py_[u] = p.y;
      all.Add(p.x, p.y);
    }

    dissim_sq_ = serve_threshold * serve_threshold * (1.0 + kGeoCertifyMargin);
    skip_sq_ = cover_threshold > 0.0 ? cover_threshold * cover_threshold *
                                           (1.0 - kGeoCertifyMargin)
                                     : -1.0;  // never fires

    // Cell side = the serving radius (so certifiable-dissimilar cells are
    // usually non-adjacent and certifiable-similar clusters fit in a few
    // cells), capped so the number of cells stays O(n) and the per-cell
    // box tests are dominated by actual pair emission.
    const double span_x = all.max_x - all.min_x;
    const double span_y = all.max_y - all.min_y;
    const double side = serve_threshold > 0.0
                            ? serve_threshold
                            : std::max(span_x, span_y) / 64.0;
    uint32_t gx = GridDim(span_x, side);
    uint32_t gy = GridDim(span_y, side);
    const uint64_t max_cells = std::max<uint64_t>(16, n);
    while (static_cast<uint64_t>(gx) * gy > max_cells) {
      if (gx >= gy) {
        gx = (gx + 1) / 2;
      } else {
        gy = (gy + 1) / 2;
      }
    }
    const double cw = gx > 1 ? span_x / gx : 0.0;
    const double ch = gy > 1 ? span_y / gy : 0.0;
    auto cell_of = [&](VertexId u) -> uint32_t {
      const uint32_t cx =
          cw > 0.0 ? std::min<uint32_t>(
                         gx - 1, static_cast<uint32_t>(
                                     (px_[u] - all.min_x) / cw))
                   : 0;
      const uint32_t cy =
          ch > 0.0 ? std::min<uint32_t>(
                         gy - 1, static_cast<uint32_t>(
                                     (py_[u] - all.min_y) / ch))
                   : 0;
      return cy * gx + cx;
    };

    // Counting sort by cell id; within a cell local ids stay ascending.
    std::vector<uint32_t> counts(static_cast<size_t>(gx) * gy + 1, 0);
    std::vector<uint32_t> cell_id(n);
    for (VertexId u = 0; u < n; ++u) {
      cell_id[u] = cell_of(u);
      ++counts[cell_id[u] + 1];
    }
    for (size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
    verts_.resize(n);
    std::vector<uint32_t> fill(counts.begin(), counts.end() - 1);
    for (VertexId u = 0; u < n; ++u) verts_[fill[cell_id[u]]++] = u;

    for (size_t c = 0; c + 1 < counts.size(); ++c) {
      if (counts[c] == counts[c + 1]) continue;
      Cell cell;
      cell.begin = counts[c];
      cell.end = counts[c + 1];
      for (uint32_t i = cell.begin; i < cell.end; ++i) {
        cell.box.Add(px_[verts_[i]], py_[verts_[i]]);
      }
      cells_.push_back(cell);
    }
    uint64_t suffix = 0;
    for (size_t i = cells_.size(); i-- > 0;) {
      cells_[i].suffix_members = suffix;
      suffix += cells_[i].end - cells_[i].begin;
    }
  }

  bool ok() const { return ok_; }

  uint32_t NumPartitions() const override {
    return static_cast<uint32_t>(cells_.size());
  }

  uint64_t PartitionCost(uint32_t partition) const override {
    const Cell& c = cells_[partition];
    const uint64_t sz = c.end - c.begin;
    return 1 + (cells_.size() - partition) + sz * (sz - 1) / 2 +
           sz * c.suffix_members;
  }

  void Run(uint32_t begin, uint32_t end, PairSink* sink) const override {
    for (uint32_t i = begin; i < end; ++i) {
      if (sink->aborted()) return;
      const Cell& a = cells_[i];
      const uint64_t na = a.end - a.begin;
      if (na > 1) {
        if (MaxDistSq(a.box, a.box) < skip_sq_) {
          sink->SkipSimilar(na * (na - 1) / 2);
        } else {
          for (uint32_t x = a.begin; x < a.end; ++x) {
            for (uint32_t y = x + 1; y < a.end; ++y) {
              sink->Candidate(verts_[x], verts_[y]);
            }
          }
        }
      }
      for (uint32_t j = i + 1; j < cells_.size(); ++j) {
        if (sink->aborted()) return;
        const Cell& b = cells_[j];
        const uint64_t nb = b.end - b.begin;
        if (MinDistSq(a.box, b.box) > dissim_sq_) {
          for (uint32_t x = a.begin; x < a.end; ++x) {
            for (uint32_t y = b.begin; y < b.end; ++y) {
              sink->CertifiedDissimilar(verts_[x], verts_[y]);
            }
          }
        } else if (MaxDistSq(a.box, b.box) < skip_sq_) {
          sink->SkipSimilar(na * nb);
        } else {
          for (uint32_t x = a.begin; x < a.end; ++x) {
            for (uint32_t y = b.begin; y < b.end; ++y) {
              sink->Candidate(verts_[x], verts_[y]);
            }
          }
        }
      }
    }
  }

 private:
  std::vector<double> px_, py_;   // coordinates by local id
  std::vector<VertexId> verts_;   // local ids sorted by cell
  std::vector<Cell> cells_;       // occupied cells only
  double dissim_sq_ = 0.0;        // min-box-dist^2 above this: dissimilar
  double skip_sq_ = -1.0;         // max-box-dist^2 below this: similar
  bool ok_ = true;
};

}  // namespace

std::unique_ptr<PairFilter> MakeGridPairFilter(
    const AttributeTable& attributes, std::span<const VertexId> members,
    double serve_threshold, double cover_threshold) {
  if (attributes.kind() != AttributeTable::Kind::kGeo) return nullptr;
  if (!std::isfinite(serve_threshold) || serve_threshold < 0.0 ||
      !std::isfinite(cover_threshold)) {
    return nullptr;
  }
  auto filter = std::make_unique<GridPairFilter>(
      attributes, members, serve_threshold, cover_threshold);
  if (!filter->ok()) return nullptr;
  return filter;
}

}  // namespace krcore
