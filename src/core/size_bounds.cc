#include "core/size_bounds.h"

#include <algorithm>

#include "util/logging.h"

namespace krcore {

SizeBoundComputer::SizeBoundComputer(const ComponentContext& comp)
    : comp_(comp),
      in_h_(comp.size(), 0),
      dp_(comp.size(), 0),
      deg_(comp.size(), 0),
      color_(comp.size(), 0) {
  members_.reserve(comp.size());
  cascade_.reserve(comp.size());
}

uint64_t SizeBoundComputer::Naive(const SearchContext& ctx) const {
  return static_cast<uint64_t>(ctx.m_list().size()) + ctx.c_list().size();
}

uint64_t SizeBoundComputer::Color(const SearchContext& ctx) {
  const VertexId n = comp_.size();

  // Collect H = M ∪ C with dp = DP(u, H) (0 for M vertices by Eq. 1).
  members_.clear();
  for (VertexId u = 0; u < n; ++u) {
    VertexState s = ctx.state(u);
    if (s == VertexState::kInM || s == VertexState::kInC) {
      members_.push_back(u);
      in_h_[u] = 1;
      dp_[u] = (s == VertexState::kInC) ? ctx.dp_c(u) : 0;
    }
  }
  if (members_.empty()) return 0;

  // Welsh–Powell on the similarity graph: descending similarity degree ==
  // ascending dissimilarity count.
  std::stable_sort(members_.begin(), members_.end(),
                   [this](VertexId a, VertexId b) { return dp_[a] < dp_[b]; });

  // Greedy color assignment on the *complement* representation: color c is
  // usable for u iff every vertex already holding c is dissimilar to u,
  // i.e. color_total[c] == (u's dissimilar vertices holding c).
  constexpr uint32_t kUncolored = static_cast<uint32_t>(-1);
  for (VertexId u : members_) color_[u] = kUncolored;
  color_total_.clear();
  uint32_t num_colors = 0;
  for (VertexId u : members_) {
    dis_with_color_.assign(num_colors, 0);
    for (VertexId x : comp_.dissimilar[u]) {
      if (in_h_[x] && color_[x] != kUncolored) ++dis_with_color_[color_[x]];
    }
    uint32_t c = 0;
    while (c < num_colors && color_total_[c] != dis_with_color_[c]) ++c;
    if (c == num_colors) {
      ++num_colors;
      color_total_.push_back(0);
    }
    color_[u] = c;
    ++color_total_[c];
  }
  for (VertexId u : members_) in_h_[u] = 0;
  return num_colors;
}

uint64_t SizeBoundComputer::Kcore(const SearchContext& ctx) {
  return KkPrime(ctx, /*structure_k=*/0);
}

uint64_t SizeBoundComputer::ColorPlusKcore(const SearchContext& ctx) {
  return std::min(Color(ctx), Kcore(ctx));
}

uint64_t SizeBoundComputer::KkPrime(const SearchContext& ctx,
                                    uint32_t structure_k) {
  const VertexId n = comp_.size();

  // H = current M ∪ C. dp[u] = DP(u, H); by the similarity invariant (Eq. 1)
  // M vertices have dp 0 and C vertices have dp == dp_c(u). On the dense
  // kernel H is a bitset and both cascades below walk row & H, which visits
  // the CSR row's members in its (ascending) order.
  members_.clear();
  uint32_t max_dp = 0;
  auto add_member = [&](VertexId u, bool in_c) {
    dp_[u] = in_c ? ctx.dp_c(u) : 0;
    deg_[u] = ctx.deg_mc(u);
    members_.push_back(u);
    max_dp = std::max(max_dp, dp_[u]);
  };
  const uint32_t words = ctx.words();
  uint64_t* h_bits = nullptr;
  if (ctx.dense()) {
    h_bits_.resize(words);
    h_bits = h_bits_.data();
    const uint64_t* m = ctx.m_bits();
    const uint64_t* c = ctx.c_bits();
    for (uint32_t i = 0; i < words; ++i) h_bits[i] = m[i] | c[i];
    bits::ForEach(words, [&](uint32_t i) { return h_bits[i]; },
                  [&](VertexId u) {
                    add_member(u, bits::Test(c, u));
                    return true;
                  });
  } else {
    for (VertexId u = 0; u < n; ++u) {
      VertexState s = ctx.state(u);
      if (s == VertexState::kInM || s == VertexState::kInC) {
        in_h_[u] = 1;
        add_member(u, s == VertexState::kInC);
      }
    }
  }
  uint64_t h = members_.size();
  if (h == 0) return 0;

  auto in_h = [&](VertexId u) {
    return h_bits != nullptr ? bits::Test(h_bits, u) : in_h_[u] != 0;
  };
  // A removed vertex's dissimilar members gain similarity degree; its
  // neighbors lose structure degree and cascade when it falls below k.
  auto lose_dissimilar = [&](VertexId y) {
    --dp_[y];
    buckets_[dp_[y]].push_back(y);
    return true;
  };
  auto lose_neighbor = [&](VertexId y) {
    if (deg_[y]-- == structure_k) cascade_.push_back(y);
    return true;
  };

  // Buckets over dp with lazy (stale) entries: picking the max-dp vertex is
  // picking the minimum-similarity-degree vertex of H.
  if (buckets_.size() <= max_dp) buckets_.resize(max_dp + 1);
  for (uint32_t d = 0; d <= max_dp; ++d) buckets_[d].clear();
  for (VertexId u : members_) buckets_[dp_[u]].push_back(u);

  uint64_t k_prime = 0;
  int64_t cursor = max_dp;
  uint64_t removed = 0;
  while (removed < members_.size()) {
    // Find the current maximum-dp live vertex.
    while (cursor >= 0) {
      auto& bucket = buckets_[cursor];
      while (!bucket.empty() &&
             (!in_h(bucket.back()) ||
              dp_[bucket.back()] != static_cast<uint32_t>(cursor))) {
        bucket.pop_back();  // stale
      }
      if (!bucket.empty()) break;
      --cursor;
    }
    if (cursor < 0) break;
    VertexId u = buckets_[cursor].back();
    buckets_[cursor].pop_back();

    // degsim(u) w.r.t. the remaining H certifies the next k' level
    // (Algorithm 6 line 3); k' is monotone under peeling.
    k_prime = std::max(k_prime, (h - 1) - dp_[u]);

    // KK'coreUpdate: remove u, then cascade structure-constraint violations
    // at this k' level.
    cascade_.assign(1, u);
    while (!cascade_.empty()) {
      VertexId x = cascade_.back();
      cascade_.pop_back();
      if (!in_h(x)) continue;
      --h;
      ++removed;
      if (h_bits != nullptr) {
        bits::Clear(h_bits, x);
        const uint64_t* dis = ctx.dis_row(x);
        bits::ForEach(words, [&](uint32_t i) { return dis[i] & h_bits[i]; },
                      lose_dissimilar);
        if (structure_k > 0) {
          const uint64_t* adj = ctx.adj_row(x);
          bits::ForEach(words,
                        [&](uint32_t i) { return adj[i] & h_bits[i]; },
                        lose_neighbor);
        }
        continue;
      }
      in_h_[x] = 0;
      for (VertexId y : comp_.dissimilar[x]) {
        if (in_h_[y]) lose_dissimilar(y);
      }
      if (structure_k > 0) {
        for (VertexId y : comp_.graph.neighbors(x)) {
          if (in_h_[y]) lose_neighbor(y);
        }
      }
    }
  }
  // in_h_ is all-zero again (every member was removed exactly once).
  return k_prime + 1;
}

uint64_t SizeBoundComputer::Compute(const SearchContext& ctx,
                                    SizeBoundKind kind) {
  switch (kind) {
    case SizeBoundKind::kNaive:
      return Naive(ctx);
    case SizeBoundKind::kColor:
      return Color(ctx);
    case SizeBoundKind::kKcore:
      return Kcore(ctx);
    case SizeBoundKind::kColorPlusKcore:
      return ColorPlusKcore(ctx);
    case SizeBoundKind::kDoubleKcore:
      return KkPrime(ctx, ctx.k());
  }
  KRCORE_CHECK(false) << "unreachable bound kind";
  return 0;
}

uint64_t NaiveSizeBound(const SearchContext& ctx) {
  return SizeBoundComputer(ctx.component()).Naive(ctx);
}
uint64_t ColorSizeBound(const SearchContext& ctx) {
  return SizeBoundComputer(ctx.component()).Color(ctx);
}
uint64_t KcoreSizeBound(const SearchContext& ctx) {
  return SizeBoundComputer(ctx.component()).Kcore(ctx);
}
uint64_t ColorPlusKcoreSizeBound(const SearchContext& ctx) {
  return SizeBoundComputer(ctx.component()).ColorPlusKcore(ctx);
}
uint64_t KkPrimeSizeBound(const SearchContext& ctx, uint32_t structure_k) {
  return SizeBoundComputer(ctx.component()).KkPrime(ctx, structure_k);
}
uint64_t ComputeSizeBound(const SearchContext& ctx, SizeBoundKind kind) {
  return SizeBoundComputer(ctx.component()).Compute(ctx, kind);
}

}  // namespace krcore
