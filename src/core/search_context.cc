#include "core/search_context.h"

#include <algorithm>

#include "util/logging.h"

namespace krcore {

// ---------------------------------------------------------------------------
// VertexList
// ---------------------------------------------------------------------------

void VertexList::Init(VertexId n) {
  next_.assign(static_cast<size_t>(n) + 1, kNil);
  prev_.assign(static_cast<size_t>(n) + 1, kNil);
  head_ = n;  // sentinel slot
  next_[head_] = head_;
  prev_[head_] = head_;
  size_ = 0;
}

void VertexList::PushFront(VertexId u) {
  KRCORE_DCHECK(prev_[u] == kNil);
  VertexId first = next_[head_];
  next_[head_] = u;
  prev_[u] = head_;
  next_[u] = first;
  prev_[first] = u;
  ++size_;
}

void VertexList::Remove(VertexId u) {
  KRCORE_DCHECK(prev_[u] != kNil);
  VertexId p = prev_[u];
  VertexId n = next_[u];
  next_[p] = n;
  prev_[n] = p;
  prev_[u] = kNil;
  next_[u] = kNil;
  --size_;
}

VertexId VertexList::First() const {
  VertexId f = next_[head_];
  return f == head_ ? kInvalidVertex : f;
}

VertexId VertexList::Next(VertexId u) const {
  VertexId n = next_[u];
  return n == head_ ? kInvalidVertex : n;
}

std::vector<VertexId> VertexList::Materialize() const {
  std::vector<VertexId> out;
  out.reserve(size_);
  for (VertexId u = First(); u != kInvalidVertex; u = Next(u)) {
    out.push_back(u);
  }
  return out;
}

// ---------------------------------------------------------------------------
// DenseRows
// ---------------------------------------------------------------------------

DenseRows::DenseRows(const ComponentContext& comp)
    : words((comp.size() + 63) / 64) {
  const VertexId n = comp.size();
  adj.assign(size_t{n} * words, 0);
  dis.assign(size_t{n} * words, 0);
  for (VertexId u = 0; u < n; ++u) {
    uint64_t* a = adj.data() + size_t{u} * words;
    uint64_t* d = dis.data() + size_t{u} * words;
    for (VertexId v : comp.graph.neighbors(u)) bits::Set(a, v);
    for (VertexId v : comp.dissimilar[u]) bits::Set(d, v);
  }
}

// ---------------------------------------------------------------------------
// SearchContext
// ---------------------------------------------------------------------------

SearchContext::SearchContext(const ComponentContext& comp, uint32_t k,
                             bool track_excluded)
    : comp_(&comp), k_(k), track_excluded_(track_excluded) {
  const VertexId n = comp.size();
  state_.assign(n, VertexState::kInC);
  m_list_.Init(n);
  c_list_.Init(n);
  e_list_.Init(n);
  for (VertexId u = 0; u < n; ++u) c_list_.PushFront(u);
  dp_pairs_c_ = comp.num_dissimilar_pairs();
  edges_mc_ = comp.graph.num_edges();

  if (n <= dense_limit_.load(std::memory_order_relaxed)) {
    rows_ = std::make_shared<const DenseRows>(comp);
    words_ = rows_->words;
    set_bits_.assign(3 * size_t{words_}, 0);
    for (VertexId u = 0; u < n; ++u) bits::Set(set_bits(VertexState::kInC), u);
    bfs_bits_.assign(3 * size_t{words_}, 0);
  } else {
    deg_mc_.resize(n);
    deg_m_.assign(n, 0);
    dp_c_.resize(n);
    dp_m_.assign(n, 0);
    dp_e_.assign(n, 0);
    bfs_mark_.assign(n, 0);
    for (VertexId u = 0; u < n; ++u) {
      deg_mc_[u] = comp.graph.degree(u);
      dp_c_[u] = comp.dissimilar.degree(u);
    }
  }

  // The component comes from the k-core, so the degree invariant (Eq. 2)
  // holds from the start.
  for (VertexId u = 0; u < n; ++u) KRCORE_DCHECK(deg_mc(u) >= k_);
}

SearchContext SearchContext::Fork() const {
  KRCORE_DCHECK(!dead_);
  SearchContext copy(*this);
  copy.trail_.clear();
  copy.peel_queue_.clear();
  copy.bfs_stack_.clear();
  return copy;
}

// ---- low-level journaled mutators ----------------------------------------

void SearchContext::ApplyState(VertexId u, VertexState s) {
  VertexState old = state_[u];
  if (old == s) return;
  auto in_mc = [](VertexState x) {
    return x == VertexState::kInC || x == VertexState::kInM;
  };
  // DP(C) and |E(M ∪ C)| follow membership. Undo replays the inverse change
  // against the same surrounding state, so the deltas cancel exactly.
  if (old == VertexState::kInC) dp_pairs_c_ -= dp_c(u);
  if (in_mc(old) && !in_mc(s)) edges_mc_ -= deg_mc(u);

  if (old == VertexState::kInC) {
    c_list_.Remove(u);
  } else if (old == VertexState::kInM) {
    m_list_.Remove(u);
  } else if (old == VertexState::kInE) {
    e_list_.Remove(u);
  }
  if (dense() && old != VertexState::kRemoved) bits::Clear(set_bits(old), u);
  if (dense() && s != VertexState::kRemoved) bits::Set(set_bits(s), u);
  state_[u] = s;
  if (s == VertexState::kInC) {
    c_list_.PushFront(u);
  } else if (s == VertexState::kInM) {
    m_list_.PushFront(u);
  } else if (s == VertexState::kInE) {
    e_list_.PushFront(u);
  }

  if (s == VertexState::kInC) dp_pairs_c_ += dp_c(u);
  if (in_mc(s) && !in_mc(old)) edges_mc_ += deg_mc(u);
}

void SearchContext::ChangeState(VertexId u, VertexState s) {
  trail_.push_back({Op::kState, u, static_cast<int32_t>(state_[u])});
  ApplyState(u, s);
}

void SearchContext::AdjustDegMc(VertexId u, int32_t d) {
  trail_.push_back({Op::kDegMc, u, d});
  deg_mc_[u] += d;
}

void SearchContext::AdjustDegM(VertexId u, int32_t d) {
  trail_.push_back({Op::kDegM, u, d});
  deg_m_[u] += d;
}

void SearchContext::AdjustDpC(VertexId u, int32_t d) {
  trail_.push_back({Op::kDpC, u, d});
  dp_c_[u] += d;
}

void SearchContext::AdjustDpM(VertexId u, int32_t d) {
  trail_.push_back({Op::kDpM, u, d});
  dp_m_[u] += d;
}

void SearchContext::AdjustDpE(VertexId u, int32_t d) {
  trail_.push_back({Op::kDpE, u, d});
  dp_e_[u] += d;
}

void SearchContext::RewindTo(size_t mark) {
  while (trail_.size() > mark) {
    TrailEntry e = trail_.back();
    trail_.pop_back();
    switch (e.op) {
      case Op::kState:
        ApplyState(e.u, static_cast<VertexState>(e.delta));
        break;
      case Op::kDegMc:
        deg_mc_[e.u] -= e.delta;
        break;
      case Op::kDegM:
        deg_m_[e.u] -= e.delta;
        break;
      case Op::kDpC:
        dp_c_[e.u] -= e.delta;
        break;
      case Op::kDpM:
        dp_m_[e.u] -= e.delta;
        break;
      case Op::kDpE:
        dp_e_[e.u] -= e.delta;
        break;
    }
  }
  dead_ = false;
  peel_queue_.clear();
}

// ---- discard / move primitives --------------------------------------------

void SearchContext::CheckSupport(VertexId v) {
  if (deg_mc(v) >= k_) return;
  if (state_[v] == VertexState::kInM) {
    dead_ = true;
  } else {
    peel_queue_.push_back(v);
  }
}

void SearchContext::DiscardFromC(VertexId u) {
  KRCORE_DCHECK(state_[u] == VertexState::kInC);
  // Destination: E keeps discarded vertices that are similar to all of M
  // (Sec 5.2's definition of the relevant excluded set).
  bool to_e = track_excluded_ && dp_m(u) == 0;
  ChangeState(u, to_e ? VertexState::kInE : VertexState::kRemoved);

  // u leaves M ∪ C: neighbors lose structure degree; under-k candidates are
  // queued for peeling (Thm 2); an under-k M vertex kills the branch.
  if (dense()) {
    const uint64_t* row = adj_row(u);
    const uint64_t* m = m_bits();
    const uint64_t* c = c_bits();
    bits::ForEach(words_, [&](uint32_t i) { return row[i] & (m[i] | c[i]); },
                  [&](VertexId v) {
                    CheckSupport(v);
                    return true;
                  });
    return;
  }
  // Sparse: dp_c drops for every dissimilar vertex regardless of its state
  // (E members consult dp_c in the Theorem 5/6 checks).
  for (VertexId x : comp_->dissimilar[u]) AdjustDpC(x, -1);
  if (to_e) {
    for (VertexId x : comp_->dissimilar[u]) AdjustDpE(x, +1);
  }
  for (VertexId v : comp_->graph.neighbors(u)) {
    VertexState sv = state_[v];
    if (sv == VertexState::kInC || sv == VertexState::kInM) {
      AdjustDegMc(v, -1);
      CheckSupport(v);
    }
  }
}

void SearchContext::DropFromE(VertexId u) {
  KRCORE_DCHECK(state_[u] == VertexState::kInE);
  ChangeState(u, VertexState::kRemoved);
  if (dense()) return;
  for (VertexId x : comp_->dissimilar[u]) AdjustDpE(x, -1);
}

void SearchContext::MoveToM(VertexId u) {
  KRCORE_DCHECK(state_[u] == VertexState::kInC);
  ChangeState(u, VertexState::kInM);

  // Similarity pruning (Thm 3): u's dissimilar vertices cannot coexist with
  // M anymore — candidates are discarded, E members dropped, in ascending
  // id order. Each step changes only its own vertex's state, so the
  // victims still ahead are the ones present when pruning began.
  auto prune = [this](VertexId x) {
    if (state_[x] == VertexState::kInC) {
      DiscardFromC(x);
    } else if (state_[x] == VertexState::kInE) {
      DropFromE(x);
    }
    return !dead_;
  };
  if (dense()) {
    const uint64_t* row = dis_row(u);
    const uint64_t* c = c_bits();
    const uint64_t* e = e_bits();
    bits::ForEach(words_, [&](uint32_t i) { return row[i] & (c[i] | e[i]); },
                  prune);
    return;
  }

  // Sparse: u leaves C, its neighbors gain M degree, its dissimilar
  // vertices gain M dissimilarity.
  for (VertexId x : comp_->dissimilar[u]) AdjustDpC(x, -1);
  for (VertexId v : comp_->graph.neighbors(u)) AdjustDegM(v, +1);
  for (VertexId x : comp_->dissimilar[u]) {
    AdjustDpM(x, +1);
    if (!prune(x)) return;
  }
}

void SearchContext::DrainPeel() {
  while (!peel_queue_.empty() && !dead_) {
    VertexId v = peel_queue_.back();
    peel_queue_.pop_back();
    if (state_[v] != VertexState::kInC) continue;  // already handled
    if (deg_mc(v) >= k_) continue;                 // stale entry
    DiscardFromC(v);
  }
  if (dead_) peel_queue_.clear();
}

bool SearchContext::MarkReachableFromM() {
  const VertexId start = m_list_.First();
  if (dense()) {
    // Frontier BFS, one adjacency row per frontier vertex.
    uint64_t* reached = bfs_bits_.data();
    uint64_t* frontier = reached + words_;
    uint64_t* next = frontier + words_;
    std::fill(reached, next, 0);
    bits::Set(reached, start);
    bits::Set(frontier, start);
    const uint64_t* m = m_bits();
    const uint64_t* c = c_bits();
    bool grew = true;
    while (grew) {
      std::fill(next, next + words_, 0);
      bits::ForEach(words_, [&](uint32_t i) { return frontier[i]; },
                    [&](VertexId v) {
                      const uint64_t* row = adj_row(v);
                      for (uint32_t i = 0; i < words_; ++i) next[i] |= row[i];
                      return true;
                    });
      grew = false;
      for (uint32_t i = 0; i < words_; ++i) {
        frontier[i] = next[i] & (m[i] | c[i]) & ~reached[i];
        reached[i] |= frontier[i];
        grew |= frontier[i] != 0;
      }
    }
    for (uint32_t i = 0; i < words_; ++i) {
      if (reached[i] != (m[i] | c[i])) return false;
    }
    return true;
  }

  ++bfs_epoch_;
  bfs_stack_.clear();
  bfs_mark_[start] = bfs_epoch_;
  bfs_stack_.push_back(start);
  VertexId reached = 0;
  while (!bfs_stack_.empty()) {
    VertexId u = bfs_stack_.back();
    bfs_stack_.pop_back();
    ++reached;
    for (VertexId v : comp_->graph.neighbors(u)) {
      VertexState sv = state_[v];
      if ((sv == VertexState::kInC || sv == VertexState::kInM) &&
          bfs_mark_[v] != bfs_epoch_) {
        bfs_mark_[v] = bfs_epoch_;
        bfs_stack_.push_back(v);
      }
    }
  }
  return reached == m_list_.size() + c_list_.size();
}

void SearchContext::EnforceConnectivity() {
  while (!dead_) {
    if (m_list_.empty()) return;
    if (MarkReachableFromM()) return;  // connected

    // Any unreached M vertex can never re-connect: the branch is dead.
    for (VertexId u = m_list_.First(); u != kInvalidVertex;
         u = m_list_.Next(u)) {
      if (!Reached(u)) {
        dead_ = true;
        return;
      }
    }
    // Unreached candidates cannot join any connected core containing M.
    std::vector<VertexId> unreachable;
    for (VertexId u = c_list_.First(); u != kInvalidVertex;
         u = c_list_.Next(u)) {
      if (!Reached(u)) unreachable.push_back(u);
    }
    for (VertexId u : unreachable) {
      if (state_[u] == VertexState::kInC) DiscardFromC(u);
      if (dead_) return;
    }
    DrainPeel();
    if (peel_queue_.empty() && unreachable.empty()) return;
  }
}

// ---- public branching ops --------------------------------------------------

bool SearchContext::Expand(VertexId u) {
  KRCORE_DCHECK(!dead_);
  MoveToM(u);
  DrainPeel();
  if (!dead_) EnforceConnectivity();
  return !dead_;
}

bool SearchContext::Shrink(VertexId u) {
  KRCORE_DCHECK(!dead_);
  DiscardFromC(u);
  DrainPeel();
  if (!dead_) EnforceConnectivity();
  return !dead_;
}

bool SearchContext::PromoteSimilarityFree(uint64_t* promotions) {
  // Promotion leaves M ∪ C unchanged, and every live state with M != ∅ has
  // M ∪ C connected; only the promotions that found M empty need the check.
  const bool m_was_empty = m_list_.empty();
  bool changed = true;
  while (changed && !dead_) {
    changed = false;
    VertexId next = c_list_.First();
    while (next != kInvalidVertex && !dead_) {
      VertexId u = next;
      next = c_list_.Next(u);
      if (!HasDissimilarInC(u) && deg_m(u) >= k_) {
        // Remark 1: u is similarity free and already structurally supported
        // by M alone; it belongs to every (k,r)-core derivable from (M, C).
        // Promoting u removes nothing from C (dp_c == 0 means no similarity
        // victims; membership of M ∪ C is unchanged), so `next` stays valid
        // and the outer fixpoint loop picks up newly eligible vertices.
        MoveToM(u);
        if (promotions != nullptr) ++*promotions;
        changed = true;
      }
    }
  }
  if (!dead_ && m_was_empty) EnforceConnectivity();
  return !dead_;
}

std::vector<VertexId> SearchContext::MaterializeMC() const {
  std::vector<VertexId> out;
  out.reserve(m_list_.size() + c_list_.size());
  for (VertexId u = m_list_.First(); u != kInvalidVertex; u = m_list_.Next(u)) {
    out.push_back(u);
  }
  for (VertexId u = c_list_.First(); u != kInvalidVertex; u = c_list_.Next(u)) {
    out.push_back(u);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace krcore
