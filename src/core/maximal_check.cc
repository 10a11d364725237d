#include "core/maximal_check.h"

#include <algorithm>

#include "util/logging.h"

namespace krcore {

MaximalCheckSearcher::MaximalCheckSearcher(const ComponentContext& comp)
    : comp_(comp),
      in_core_(comp.size(), 0),
      role_(comp.size(), 0),
      deg_(comp.size(), 0),
      seen_(comp.size(), 0) {}

MaximalVerdict MaximalCheckSearcher::Check(const SearchContext& ctx,
                                           const std::vector<VertexId>& core,
                                           VertexOrder order, double lambda,
                                           const Deadline& deadline,
                                           uint64_t* nodes) {
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
          : Search(ctx, core, std::move(candidates), order, lambda, deadline,
                   nodes);
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

bool MaximalCheckSearcher::AnyAttached(const std::vector<VertexId>& core,
                                       const std::vector<VertexId>& cand) {
  for (VertexId u : cand) role_[u] = 1;
  ++epoch_;
  stack_.clear();
  for (VertexId u : core) {
    seen_[u] = epoch_;
    stack_.push_back(u);
  }
  bool found = false;
  while (!stack_.empty()) {
    VertexId u = stack_.back();
    stack_.pop_back();
    if (role_[u] == 1) {
      found = true;
      break;
    }
    for (VertexId v : comp_.graph.neighbors(u)) {
      if ((role_[v] == 1 || in_core_[v]) && seen_[v] != epoch_) {
        seen_[v] = epoch_;
        stack_.push_back(v);
      }
    }
  }
  for (VertexId u : cand) role_[u] = 0;
  return found;
}

VertexId MaximalCheckSearcher::ChooseConflicted(
    const std::vector<VertexId>& cand, uint32_t k, VertexOrder order,
    double lambda) {
  (void)k;
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
    double score;
    switch (order) {
      case VertexOrder::kDelta1ThenDelta2:
        score = dis * 1024.0 - deg;
        break;
      case VertexOrder::kLambdaCombo:
        score = lambda * dis -
                static_cast<double>(deg) / std::max<size_t>(1, cand.size());
        break;
      default:  // kDegree (paper's recommendation) and fallbacks
        score = deg;
        break;
    }
    if (score > best_score || (score == best_score && u < best)) {
      best = u;
      best_score = score;
    }
  }
  for (VertexId u : cand) role_[u] = 0;
  return best;
}

MaximalVerdict MaximalCheckSearcher::Search(const SearchContext& ctx,
                                            const std::vector<VertexId>& core,
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

  VertexId w = ChooseConflicted(cand, ctx.k(), order, lambda);
  if (w == kInvalidVertex) {
    // Conflict-free: the core extends iff any survivor attaches to it.
    return AnyAttached(core, cand) ? MaximalVerdict::kNotMaximal
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
        Search(ctx, core, std::move(keep), order, lambda, deadline, nodes);
    if (verdict != MaximalVerdict::kMaximal) return verdict;
  }
  // Drop-w branch.
  std::vector<VertexId> rest;
  rest.reserve(cand.size() - 1);
  for (VertexId u : cand) {
    if (u != w) rest.push_back(u);
  }
  return Search(ctx, core, std::move(rest), order, lambda, deadline, nodes);
}

MaximalVerdict CheckMaximal(const SearchContext& ctx,
                            const std::vector<VertexId>& core,
                            VertexOrder order, double lambda,
                            const Deadline& deadline, uint64_t* nodes) {
  MaximalCheckSearcher searcher(ctx.component());
  return searcher.Check(ctx, core, order, lambda, deadline, nodes);
}

}  // namespace krcore
