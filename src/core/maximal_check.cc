#include "core/maximal_check.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace krcore {
namespace {

/// The conflict-vertex heuristic: the candidate with the highest score (ties
/// to the smaller id) among those with `dis` > 0 dissimilar candidates; `deg`
/// counts its neighbors among the candidates and the core.
double ConflictScore(VertexOrder order, double lambda, uint32_t dis,
                     uint32_t deg, size_t num_candidates) {
  switch (order) {
    case VertexOrder::kDelta1ThenDelta2:
      return dis * 1024.0 - deg;
    case VertexOrder::kLambdaCombo:
      return lambda * dis -
             static_cast<double>(deg) / std::max<size_t>(1, num_candidates);
    default:  // kDegree (paper's recommendation) and fallbacks
      return deg;
  }
}

}  // namespace

MaximalCheckSearcher::MaximalCheckSearcher(const ComponentContext& comp)
    : comp_(comp),
      in_core_(comp.size(), 0),
      role_(comp.size(), 0),
      deg_(comp.size(), 0) {}

MaximalVerdict MaximalCheckSearcher::Check(const SearchContext& ctx,
                                           const std::vector<VertexId>& core,
                                           VertexOrder order, double lambda,
                                           const Deadline& deadline,
                                           uint64_t* nodes) {
  if (ctx.dense()) return CheckDense(ctx, core, order, lambda, deadline, nodes);
  for (VertexId u : core) in_core_[u] = 1;

  // Candidates: E vertices similar to every vertex of the core. They are
  // similar to M already (E invariant). When the core covers all of M ∪ C —
  // the overwhelmingly common emission — "similar to the core's C part"
  // is exactly dp_c(v) == 0, an O(1) test; otherwise scan the dissimilar
  // list against the core bitmap.
  bool core_is_all_mc =
      core.size() == static_cast<size_t>(ctx.m_list().size()) +
                         ctx.c_list().size();
  std::vector<VertexId> candidates;
  const VertexList& e_list = ctx.e_list();
  for (VertexId v = e_list.First(); v != kInvalidVertex; v = e_list.Next(v)) {
    bool clash;
    if (core_is_all_mc) {
      clash = ctx.HasDissimilarInC(v);
    } else {
      clash = false;
      for (VertexId x : comp_.dissimilar[v]) {
        if (in_core_[x]) {
          clash = true;
          break;
        }
      }
    }
    if (!clash) candidates.push_back(v);
  }

  MaximalVerdict verdict =
      candidates.empty()
          ? MaximalVerdict::kMaximal
          : Search(ctx, std::move(candidates), order, lambda, deadline, nodes);
  for (VertexId u : core) in_core_[u] = 0;
  return verdict;
}

void MaximalCheckSearcher::Peel(uint32_t k, std::vector<VertexId>& cand) {
  for (VertexId u : cand) role_[u] = 1;
  worklist_.clear();
  for (VertexId u : cand) {
    uint32_t d = 0;
    for (VertexId v : comp_.graph.neighbors(u)) {
      if (role_[v] == 1 || in_core_[v]) ++d;
    }
    deg_[u] = d;
    if (d < k) worklist_.push_back(u);
  }
  for (size_t head = 0; head < worklist_.size(); ++head) {
    VertexId u = worklist_[head];
    if (role_[u] != 1) continue;
    role_[u] = 0;
    for (VertexId v : comp_.graph.neighbors(u)) {
      if (role_[v] == 1 && deg_[v]-- == k) worklist_.push_back(v);
    }
  }
  size_t out = 0;
  for (VertexId u : cand) {
    if (role_[u] == 1) {
      cand[out++] = u;
      role_[u] = 0;
    }
  }
  cand.resize(out);
}

bool MaximalCheckSearcher::AnyAttached(const std::vector<VertexId>& cand) {
  for (VertexId u : cand) {
    for (VertexId v : comp_.graph.neighbors(u)) {
      if (in_core_[v]) return true;
    }
  }
  return false;
}

VertexId MaximalCheckSearcher::ChooseConflicted(
    const std::vector<VertexId>& cand, VertexOrder order, double lambda) {
  for (VertexId u : cand) role_[u] = 1;
  VertexId best = kInvalidVertex;
  double best_score = -1e300;
  for (VertexId u : cand) {
    uint32_t dis = 0;
    for (VertexId v : comp_.dissimilar[u]) dis += role_[v] == 1;
    if (dis == 0) continue;  // not conflicted
    uint32_t deg = 0;
    for (VertexId v : comp_.graph.neighbors(u)) {
      deg += role_[v] == 1 || in_core_[v];
    }
    double score = ConflictScore(order, lambda, dis, deg, cand.size());
    if (score > best_score || (score == best_score && u < best)) {
      best = u;
      best_score = score;
    }
  }
  for (VertexId u : cand) role_[u] = 0;
  return best;
}

MaximalVerdict MaximalCheckSearcher::Search(const SearchContext& ctx,
                                            std::vector<VertexId> cand,
                                            VertexOrder order, double lambda,
                                            const Deadline& deadline,
                                            uint64_t* nodes) {
  if (nodes != nullptr) ++*nodes;
  if (((check_counter_++) & 0xFF) == 0 && deadline.Expired()) {
    return MaximalVerdict::kDeadlineExceeded;
  }
  Peel(ctx.k(), cand);
  if (cand.empty()) return MaximalVerdict::kMaximal;

  VertexId w = ChooseConflicted(cand, order, lambda);
  if (w == kInvalidVertex) {
    // Conflict-free: the core extends iff any survivor attaches to it.
    return AnyAttached(cand) ? MaximalVerdict::kNotMaximal
                             : MaximalVerdict::kMaximal;
  }

  // Keep-w branch first ("expand" preference, Sec 7.4): drop w's dissimilar
  // candidates.
  {
    for (VertexId v : comp_.dissimilar[w]) role_[v] = 2;
    std::vector<VertexId> keep;
    keep.reserve(cand.size());
    for (VertexId u : cand) {
      if (role_[u] != 2) keep.push_back(u);
    }
    for (VertexId v : comp_.dissimilar[w]) role_[v] = 0;
    MaximalVerdict verdict =
        Search(ctx, std::move(keep), order, lambda, deadline, nodes);
    if (verdict != MaximalVerdict::kMaximal) return verdict;
  }
  // Drop-w branch.
  std::vector<VertexId> rest;
  rest.reserve(cand.size() - 1);
  for (VertexId u : cand) {
    if (u != w) rest.push_back(u);
  }
  return Search(ctx, std::move(rest), order, lambda, deadline, nodes);
}

MaximalVerdict MaximalCheckSearcher::CheckDense(
    const SearchContext& ctx, const std::vector<VertexId>& core,
    VertexOrder order, double lambda, const Deadline& deadline,
    uint64_t* nodes) {
  // Every branch removes a candidate, so the recursion is at most |E| deep.
  words_ = ctx.words();
  const size_t sets = 3 + size_t{ctx.e_list().size()};
  if (bits_.size() < sets * words_) bits_.resize(sets * words_);
  uint64_t* core_bits = DenseSet(0);
  uint64_t* cand = DenseSet(2);
  std::fill(core_bits, core_bits + words_, 0);
  std::fill(cand, cand + words_, 0);
  for (VertexId u : core) bits::Set(core_bits, u);

  // Candidates: E vertices similar to every vertex of the core.
  const uint64_t* e = ctx.e_bits();
  bool any = false;
  bits::ForEach(words_, [&](uint32_t i) { return e[i]; }, [&](VertexId v) {
    if (!bits::Intersects(ctx.dis_row(v), core_bits, words_)) {
      bits::Set(cand, v);
      any = true;
    }
    return true;
  });
  return any ? SearchDense(ctx, 0, order, lambda, deadline, nodes)
             : MaximalVerdict::kMaximal;
}

MaximalVerdict MaximalCheckSearcher::SearchDense(
    const SearchContext& ctx, uint32_t depth, VertexOrder order,
    double lambda, const Deadline& deadline, uint64_t* nodes) {
  if (nodes != nullptr) ++*nodes;
  if (((check_counter_++) & 0xFF) == 0 && deadline.Expired()) {
    return MaximalVerdict::kDeadlineExceeded;
  }
  const uint32_t k = ctx.k();
  const uint64_t* core = DenseSet(0);
  uint64_t* mu = DenseSet(1);
  uint64_t* cand = DenseSet(2 + depth);
  KRCORE_DCHECK(bits_.size() >= (3 + size_t{depth}) * words_);

  // Peel the candidates to the fixpoint with the core pinned.
  for (uint32_t i = 0; i < words_; ++i) mu[i] = cand[i] | core[i];
  for (bool peeled = true; peeled;) {
    peeled = false;
    bits::ForEach(words_, [&](uint32_t i) { return cand[i]; },
                  [&](VertexId u) {
                    if (bits::CountAnd(ctx.adj_row(u), mu, words_) < k) {
                      bits::Clear(cand, u);
                      bits::Clear(mu, u);
                      peeled = true;
                    }
                    return true;
                  });
  }
  uint32_t num_candidates = 0;
  for (uint32_t i = 0; i < words_; ++i) {
    num_candidates += std::popcount(cand[i]);
  }
  if (num_candidates == 0) return MaximalVerdict::kMaximal;

  VertexId w = kInvalidVertex;
  double best_score = -1e300;
  bits::ForEach(words_, [&](uint32_t i) { return cand[i]; }, [&](VertexId u) {
    uint32_t dis = bits::CountAnd(ctx.dis_row(u), cand, words_);
    if (dis == 0) return true;  // not conflicted
    uint32_t deg = bits::CountAnd(ctx.adj_row(u), mu, words_);
    double score = ConflictScore(order, lambda, dis, deg, num_candidates);
    if (score > best_score || (score == best_score && u < w)) {
      w = u;
      best_score = score;
    }
    return true;
  });
  if (w == kInvalidVertex) {
    // Conflict-free: the core extends iff any survivor attaches to it.
    bool attached = false;
    bits::ForEach(words_, [&](uint32_t i) { return cand[i]; },
                  [&](VertexId u) {
                    attached = bits::Intersects(ctx.adj_row(u), core, words_);
                    return !attached;
                  });
    return attached ? MaximalVerdict::kNotMaximal : MaximalVerdict::kMaximal;
  }

  // Keep-w branch first: drop w's dissimilar candidates. Then drop w.
  uint64_t* child = DenseSet(3 + depth);
  const uint64_t* dis = ctx.dis_row(w);
  for (uint32_t i = 0; i < words_; ++i) child[i] = cand[i] & ~dis[i];
  MaximalVerdict verdict =
      SearchDense(ctx, depth + 1, order, lambda, deadline, nodes);
  if (verdict != MaximalVerdict::kMaximal) return verdict;
  std::copy(cand, cand + words_, child);
  bits::Clear(child, w);
  return SearchDense(ctx, depth + 1, order, lambda, deadline, nodes);
}

MaximalVerdict CheckMaximal(const SearchContext& ctx,
                            const std::vector<VertexId>& core,
                            VertexOrder order, double lambda,
                            const Deadline& deadline, uint64_t* nodes) {
  MaximalCheckSearcher searcher(ctx.component());
  return searcher.Check(ctx, core, order, lambda, deadline, nodes);
}

}  // namespace krcore
