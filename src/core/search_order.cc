#include "core/search_order.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace krcore {
namespace {

/// Returns the highest-degree eligible candidate — also the rule used at the
/// initial stage (M = ∅) for the measurement-based orders (Sec 7.1).
VertexId HighestDegreeCandidate(const SearchContext& ctx,
                                bool restrict_to_non_sf) {
  const VertexList& c = ctx.c_list();
  VertexId best = kInvalidVertex;
  uint32_t best_deg = 0;
  for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
    if (restrict_to_non_sf && !ctx.HasDissimilarInC(u)) continue;
    uint32_t d = ctx.deg_mc(u);
    if (best == kInvalidVertex || d > best_deg ||
        (d == best_deg && u < best)) {
      best = u;
      best_deg = d;
    }
  }
  return best;
}

/// Calls fn(x) for u's dissimilar candidates in ascending id order until fn
/// returns false.
template <typename Fn>
void ForEachDissimilarCandidate(const SearchContext& ctx, VertexId u, Fn fn) {
  if (ctx.dense()) {
    const uint64_t* row = ctx.dis_row(u);
    const uint64_t* c = ctx.c_bits();
    bits::ForEach(ctx.words(), [&](uint32_t i) { return row[i] & c[i]; }, fn);
    return;
  }
  for (VertexId x : ctx.component().dissimilar[u]) {
    if (ctx.state(x) == VertexState::kInC && !fn(x)) return;
  }
}

/// Calls fn(y) for every neighbor y of u in the bitset `set`.
template <typename Fn>
void ForEachNeighborIn(const SearchContext& ctx, VertexId u,
                       const uint64_t* set, Fn fn) {
  if (ctx.dense()) {
    const uint64_t* row = ctx.adj_row(u);
    bits::ForEach(ctx.words(), [&](uint32_t i) { return row[i] & set[i]; },
                  [&](VertexId y) {
                    fn(y);
                    return true;
                  });
    return;
  }
  for (VertexId y : ctx.component().graph.neighbors(u)) {
    if (bits::Test(set, y)) fn(y);
  }
}

}  // namespace

void SearchOrderPolicy::SnapshotCandidates(const SearchContext& ctx) {
  const VertexId n = ctx.component().size();
  if (dp_c_.size() < n) {
    dp_c_.resize(n);
    drop_dp_.resize(n);
    drop_edges_.resize(n);
  }
  boundary_.assign((n + 63) / 64, 0);
  const VertexList& c = ctx.c_list();
  for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
    dp_c_[u] = ctx.dp_c(u);
    drop_edges_[u] = ctx.deg_mc(u);
    if (drop_edges_[u] == ctx.k()) bits::Set(boundary_.data(), u);
  }
  // Second hop: x's neighbors in C at the degree boundary, which the peel
  // (Thm 2) would discard with x.
  for (VertexId x = c.First(); x != kInvalidVertex; x = c.Next(x)) {
    uint64_t dp = dp_c_[x], edges = drop_edges_[x];
    ForEachNeighborIn(ctx, x, boundary_.data(), [&](VertexId y) {
      dp += dp_c_[y];
      edges += ctx.k();
    });
    drop_dp_[x] = dp;
    drop_edges_[x] = edges;
  }
}

SearchOrderPolicy::DeltaEstimate SearchOrderPolicy::EstimateDeltas(
    const SearchContext& ctx, VertexId u) const {
  const double total_dp = static_cast<double>(ctx.dissimilar_pairs_c());
  const double total_edges = static_cast<double>(ctx.edges_mc());
  DeltaEstimate est;

  // --- Expand branch: the directly pruned vertices are u's dissimilar
  // candidates (Thm 3), each with its structure victims. The Sec 7.2
  // estimate only looks two hops out; we additionally subsample the first
  // kSampleCap pruned vertices in id order (extrapolating linearly) so a
  // node's ordering never costs more than O(|C| * kSampleCap). The sums are
  // of integers, so they are exact whatever the grouping.
  {
    constexpr size_t kSampleCap = 24;
    const size_t num_removed = dp_c_[u];
    uint64_t dp = 0, edges = 0;
    size_t sampled = 0;
    ForEachDissimilarCandidate(ctx, u, [&](VertexId x) {
      dp += drop_dp_[x];
      edges += drop_edges_[x];
      return ++sampled < kSampleCap;
    });
    double dp_drop = static_cast<double>(dp);
    double edge_drop = static_cast<double>(edges);
    if (sampled > 0 && sampled < num_removed) {
      double scale = static_cast<double>(num_removed) / sampled;
      dp_drop *= scale;
      edge_drop *= scale;
    }
    // u itself leaves C (its dissimilar pairs leave DP(C) as well).
    dp_drop += dp_c_[u];
    est.d1_expand = total_dp > 0.0 ? std::min(1.0, dp_drop / total_dp) : 0.0;
    est.d2_expand =
        total_edges > 0.0 ? std::min(1.0, edge_drop / total_edges) : 0.0;
  }

  // --- Shrink branch: u is removed with its structure victims.
  {
    const double dp_drop = static_cast<double>(drop_dp_[u]);
    const double edge_drop = static_cast<double>(drop_edges_[u]);
    est.d1_shrink = total_dp > 0.0 ? std::min(1.0, dp_drop / total_dp) : 0.0;
    est.d2_shrink =
        total_edges > 0.0 ? std::min(1.0, edge_drop / total_edges) : 0.0;
  }
  return est;
}

BranchChoice SearchOrderPolicy::Choose(const SearchContext& ctx,
                                       bool restrict_to_non_sf,
                                       bool sum_branches) {
  const VertexList& c = ctx.c_list();
  KRCORE_DCHECK(!c.empty());

  BranchChoice choice;
  // Fixed branch orders short-circuit the per-branch scoring below.
  auto FinalizeBranch = [this](BranchChoice ch, bool adaptive_expand_first) {
    switch (branch_order_) {
      case BranchOrder::kAdaptive:
        ch.expand_first = adaptive_expand_first;
        break;
      case BranchOrder::kExpandFirst:
        ch.expand_first = true;
        break;
      case BranchOrder::kShrinkFirst:
        ch.expand_first = false;
        break;
    }
    return ch;
  };

  if (order_ == VertexOrder::kRandom) {
    std::vector<VertexId>& eligible = scratch_eligible_;
    eligible.clear();
    for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
      if (restrict_to_non_sf && !ctx.HasDissimilarInC(u)) continue;
      eligible.push_back(u);
    }
    KRCORE_DCHECK(!eligible.empty());
    choice.vertex = eligible[rng_.NextBounded(eligible.size())];
    return FinalizeBranch(choice, true);
  }

  if (order_ == VertexOrder::kDegree) {
    choice.vertex = HighestDegreeCandidate(ctx, restrict_to_non_sf);
    return FinalizeBranch(choice, true);
  }

  // Measurement-based orders. Initial stage: highest degree (Sec 7.1).
  if (ctx.m_list().empty()) {
    choice.vertex = HighestDegreeCandidate(ctx, restrict_to_non_sf);
    return FinalizeBranch(choice, true);
  }

  SnapshotCandidates(ctx);
  double best_score = -1e300;
  double best_tiebreak = 1e300;
  bool best_expand_first = true;
  // Exact score ties keep the first candidate in c_list order.
  for (VertexId u = c.First(); u != kInvalidVertex; u = c.Next(u)) {
    if (restrict_to_non_sf && dp_c_[u] == 0) continue;
    DeltaEstimate est = EstimateDeltas(ctx, u);
    double score = 0.0, tiebreak = 0.0;
    bool expand_first = true;
    switch (order_) {
      case VertexOrder::kDelta1: {
        double se = est.d1_expand, ss = est.d1_shrink;
        score = sum_branches ? se + ss : std::max(se, ss);
        expand_first = se >= ss;
        break;
      }
      case VertexOrder::kDelta2: {
        // Prefer the smallest relative edge loss.
        double se = -est.d2_expand, ss = -est.d2_shrink;
        score = sum_branches ? se + ss : std::max(se, ss);
        expand_first = se >= ss;
        break;
      }
      case VertexOrder::kDelta1ThenDelta2: {
        double se = est.d1_expand, ss = est.d1_shrink;
        score = sum_branches ? se + ss : std::max(se, ss);
        tiebreak = sum_branches ? est.d2_expand + est.d2_shrink
                                : std::min(est.d2_expand, est.d2_shrink);
        expand_first = se >= ss;
        break;
      }
      case VertexOrder::kLambdaCombo: {
        double se = lambda_ * est.d1_expand - est.d2_expand;
        double ss = lambda_ * est.d1_shrink - est.d2_shrink;
        score = sum_branches ? se + ss : std::max(se, ss);
        expand_first = se >= ss;
        break;
      }
      default:
        KRCORE_CHECK(false) << "unhandled order";
    }
    if (score > best_score ||
        (score == best_score && tiebreak < best_tiebreak)) {
      best_score = score;
      best_tiebreak = tiebreak;
      choice.vertex = u;
      best_expand_first = expand_first;
    }
  }
  KRCORE_DCHECK(choice.vertex != kInvalidVertex);
  return FinalizeBranch(choice, best_expand_first);
}

}  // namespace krcore
