#include "core/early_termination.h"

#include <algorithm>

#include "util/logging.h"

namespace krcore {

EarlyTerminationChecker::EarlyTerminationChecker(const ComponentContext& comp)
    : comp_(comp),
      role_(comp.size(), 0),
      deg_(comp.size(), 0),
      seen_(comp.size(), 0) {}

bool EarlyTerminationChecker::CanTerminate(const SearchContext& ctx) {
  const VertexList& e_list = ctx.e_list();
  if (e_list.empty()) return false;
  if (ctx.dense()) return CanTerminateDense(ctx);

  // Condition (i): one scan of E.
  for (VertexId u = e_list.First(); u != kInvalidVertex; u = e_list.Next(u)) {
    if (!ctx.HasDissimilarInC(u) && ctx.deg_m(u) >= ctx.k()) return true;
  }

  // Condition (ii): anchored peel of SF_{C∪E}(E) with M pinned.
  candidates_.clear();
  for (VertexId u = e_list.First(); u != kInvalidVertex; u = e_list.Next(u)) {
    if (!ctx.HasDissimilarInC(u) && ctx.dp_e(u) == 0) candidates_.push_back(u);
  }
  if (candidates_.empty()) return false;
  if (ctx.m_list().empty()) return false;  // nothing to extend (see header)

  for (VertexId u : candidates_) role_[u] = 1;
  for (VertexId u = ctx.m_list().First(); u != kInvalidVertex;
       u = ctx.m_list().Next(u)) {
    role_[u] = 2;
  }

  worklist_.clear();
  for (VertexId u : candidates_) {
    uint32_t d = 0;
    for (VertexId v : comp_.graph.neighbors(u)) {
      if (role_[v] != 0) ++d;
    }
    deg_[u] = d;
    if (d < ctx.k()) worklist_.push_back(u);
  }
  size_t peeled = 0;
  for (size_t head = 0; head < worklist_.size(); ++head) {
    VertexId u = worklist_[head];
    if (role_[u] != 1) continue;
    role_[u] = 0;
    ++peeled;
    for (VertexId v : comp_.graph.neighbors(u)) {
      if (role_[v] == 1 && deg_[v]-- == ctx.k()) worklist_.push_back(v);
    }
  }
  if (peeled == candidates_.size()) {
    // Nothing survived the structure peel; skip the connectivity pass.
    for (VertexId u = ctx.m_list().First(); u != kInvalidVertex;
         u = ctx.m_list().Next(u)) {
      role_[u] = 0;
    }
    return false;
  }

  // Keep only survivors connected to M within M ∪ U; survivor components
  // detached from M cannot extend a core containing M.
  ++epoch_;
  stack_.clear();
  for (VertexId u = ctx.m_list().First(); u != kInvalidVertex;
       u = ctx.m_list().Next(u)) {
    seen_[u] = epoch_;
    stack_.push_back(u);
  }
  bool found = false;
  while (!stack_.empty() && !found) {
    VertexId u = stack_.back();
    stack_.pop_back();
    if (role_[u] == 1) {
      found = true;
      break;
    }
    for (VertexId v : comp_.graph.neighbors(u)) {
      if (role_[v] != 0 && seen_[v] != epoch_) {
        seen_[v] = epoch_;
        stack_.push_back(v);
      }
    }
  }

  // Reset roles for the next call (deg_ entries are rewritten on use).
  for (VertexId u : candidates_) role_[u] = 0;
  for (VertexId u = ctx.m_list().First(); u != kInvalidVertex;
       u = ctx.m_list().Next(u)) {
    role_[u] = 0;
  }
  return found;
}

bool EarlyTerminationChecker::CanTerminateDense(const SearchContext& ctx) {
  const uint32_t words = ctx.words();
  const uint64_t* m = ctx.m_bits();
  const uint64_t* c = ctx.c_bits();
  const uint64_t* e = ctx.e_bits();
  bits_.assign(5 * size_t{words}, 0);
  uint64_t* cand = bits_.data();  // U = SF_{C∪E}(E), then its survivors
  uint64_t* mu = cand + words;    // M ∪ U
  uint64_t* reached = mu + words;
  uint64_t* frontier = reached + words;
  uint64_t* next = frontier + words;

  // Conditions (i) and the candidates of (ii) in one scan of E.
  bool found = false, any_candidate = false;
  bits::ForEach(words, [&](uint32_t i) { return e[i]; }, [&](VertexId u) {
    const uint64_t* dis = ctx.dis_row(u);
    if (bits::Intersects(dis, c, words)) return true;
    if (bits::CountAnd(ctx.adj_row(u), m, words) >= ctx.k()) {
      found = true;
      return false;
    }
    if (!bits::Intersects(dis, e, words)) {
      bits::Set(cand, u);
      any_candidate = true;
    }
    return true;
  });
  if (found) return true;
  if (!any_candidate || ctx.m_list().empty()) return false;

  // Anchored peel to the fixpoint: every survivor keeps k neighbors in M ∪ U.
  for (uint32_t i = 0; i < words; ++i) mu[i] = m[i] | cand[i];
  bool peeled = true;
  while (peeled) {
    peeled = false;
    bits::ForEach(words, [&](uint32_t i) { return cand[i]; }, [&](VertexId u) {
      if (bits::CountAnd(ctx.adj_row(u), mu, words) < ctx.k()) {
        bits::Clear(cand, u);
        bits::Clear(mu, u);
        peeled = true;
      }
      return true;
    });
  }

  // Is any survivor connected to M within M ∪ U?
  std::copy(m, m + words, reached);
  std::copy(m, m + words, frontier);
  for (bool grew = true; grew;) {
    std::fill(next, next + words, 0);
    bits::ForEach(words, [&](uint32_t i) { return frontier[i]; },
                  [&](VertexId v) {
                    const uint64_t* row = ctx.adj_row(v);
                    for (uint32_t i = 0; i < words; ++i) next[i] |= row[i];
                    return true;
                  });
    grew = false;
    for (uint32_t i = 0; i < words; ++i) {
      frontier[i] = next[i] & mu[i] & ~reached[i];
      if (frontier[i] & cand[i]) return true;
      reached[i] |= frontier[i];
      grew |= frontier[i] != 0;
    }
  }
  return false;
}

bool CanTerminateEarly(const SearchContext& ctx) {
  EarlyTerminationChecker checker(ctx.component());
  return checker.CanTerminate(ctx);
}

}  // namespace krcore
