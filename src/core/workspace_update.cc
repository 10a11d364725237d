#include "core/workspace_update.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <utility>

#include "graph/graph_builder.h"
#include "similarity/join/self_join.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace krcore {
namespace {

/// Sorted-row mutation helpers for the maintained similarity adjacency.
/// Both return false when the row already had / did not have `v`, which is
/// how no-op updates (re-insert, remove-absent) are detected.
bool InsertSorted(std::vector<VertexId>& row, VertexId v) {
  auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it != row.end() && *it == v) return false;
  row.insert(it, v);
  return true;
}

bool EraseSorted(std::vector<VertexId>& row, VertexId v) {
  auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return false;
  row.erase(it);
  return true;
}

}  // namespace

void UpdateReport::MergeFrom(const UpdateReport& other) {
  MergeFields(other, this);
}

WorkspaceUpdater::WorkspaceUpdater(const Graph& g,
                                   const SimilarityOracle& oracle,
                                   PreparedWorkspace* ws)
    : ws_(ws), oracle_(oracle) {
  if (ws_->k == 0) {
    init_status_ = Status::InvalidArgument(
        "workspace has k == 0; prepare it with PrepareWorkspace first");
    return;
  }
  if (ws_->threshold != oracle.threshold()) {
    init_status_ = Status::InvalidArgument(
        "oracle threshold does not match the workspace's baked-in r; bind "
        "the oracle with WithThreshold(ws.threshold)");
    return;
  }
  if (ws_->is_distance != oracle.is_distance()) {
    init_status_ = Status::InvalidArgument(
        "oracle metric direction does not match the workspace's; the stored "
        "scores would be filtered the wrong way");
    return;
  }
  // The same dissimilar-edge filter PrepareComponents runs (one oracle call
  // per edge), kept as mutable sorted rows over the full vertex universe —
  // non-core vertices included, since they are the promotion frontier.
  const VertexId n = g.num_vertices();
  sim_adj_.assign(n, {});
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v && oracle_.Similar(u, v)) {
        sim_adj_[u].push_back(v);
        sim_adj_[v].push_back(u);
      }
    }
  }
  for (auto& row : sim_adj_) std::sort(row.begin(), row.end());
  in_core_.assign(n, 0);
  for (const auto& comp : ws_->components) {
    for (VertexId p : comp.to_parent) {
      if (p >= n) {
        init_status_ = Status::InvalidArgument(
            "workspace references vertex ids beyond the bound graph");
        return;
      }
      in_core_[p] = 1;
    }
  }
  RebuildComponentMap();
  touched_flag_.assign(n, 0);
  candidate_flag_.assign(n, 0);
  candidate_degree_.assign(n, 0);
  dirty_flag_.assign(n, 0);
  visited_flag_.assign(n, 0);
  remap_.assign(n, kInvalidVertex);
  old_local_map_.assign(n, kInvalidVertex);
}

void WorkspaceUpdater::RebuildComponentMap() {
  comp_of_.assign(sim_adj_.size(), kNoComponent);
  for (size_t c = 0; c < ws_->components.size(); ++c) {
    for (VertexId p : ws_->components[c].to_parent) {
      comp_of_[p] = static_cast<uint32_t>(c);
    }
  }
}

uint32_t WorkspaceUpdater::CoreDegree(VertexId v) const {
  uint32_t d = 0;
  for (VertexId w : sim_adj_[v]) d += in_core_[w];
  return d;
}

bool WorkspaceUpdater::HasSimilarEdge(VertexId u, VertexId v) const {
  const auto& row = sim_adj_[u];
  return std::binary_search(row.begin(), row.end(), v);
}

Status WorkspaceUpdater::ApplyEdgeUpdates(std::span<const EdgeUpdate> updates,
                                          const UpdateOptions& options,
                                          UpdateReport* report) {
  Timer timer;
  if (!init_status_.ok()) return init_status_;
  const VertexId n = num_vertices();
  const uint32_t k = ws_->k;
  UpdateReport batch;
  batch.batches = 1;

  // Validate the whole batch before mutating anything, so an error leaves
  // the workspace untouched.
  for (const EdgeUpdate& upd : updates) {
    if (upd.u >= n || upd.v >= n) {
      return Status::InvalidArgument(
          "edge update references vertex id beyond the graph (" +
          std::to_string(upd.u) + ", " + std::to_string(upd.v) +
          "); the vertex universe is fixed at preparation time");
    }
    if (upd.u == upd.v) {
      return Status::InvalidArgument("edge update is a self-loop (" +
                                     std::to_string(upd.u) + ")");
    }
  }

  // --- 1. Replay the batch onto the similarity-filtered adjacency.
  // Inserts consult the oracle once (attributes never change, so the verdict
  // is permanent); no-ops are detected against the maintained rows. Each
  // realized change also snapshots its endpoints' pre-repair membership:
  // the dirty-region seeding below needs to know whether the edge was part
  // of the old component structure, and in_core_ here is still pre-peel.
  // The realized changes double as the transaction's undo log — `inserted`
  // records which direction to reverse on rollback.
  struct ChangedEdge {
    VertexId u, v;
    bool u_was_core, v_was_core;
    bool inserted;
  };
  std::vector<VertexId> touched;
  std::vector<ChangedEdge> changed_edges;
  std::vector<VertexId> peeled;
  std::vector<VertexId> promoted;
  std::vector<VertexId> candidates;
  std::vector<VertexId> dirty;
  std::deque<VertexId> peel_queue;

  // Transactional failure path: undo every mutation the batch has made so
  // far — replayed similarity edges (reversed in reverse order, so an
  // insert-then-remove of the same edge within one batch unwinds
  // correctly), core-membership changes, and the per-vertex scratch flags —
  // leaving the workspace, the version, and the updater's internal state
  // bit-identical to the pre-batch state. ws_->components and comp_of_ are
  // not touched until the no-fail commit in phase 7, so they never need
  // undoing.
  auto Fail = [&](Status s) -> Status {
    for (auto it = changed_edges.rbegin(); it != changed_edges.rend(); ++it) {
      if (it->inserted) {
        EraseSorted(sim_adj_[it->u], it->v);
        EraseSorted(sim_adj_[it->v], it->u);
      } else {
        InsertSorted(sim_adj_[it->u], it->v);
        InsertSorted(sim_adj_[it->v], it->u);
      }
    }
    for (VertexId v : peeled) in_core_[v] = 1;
    for (VertexId v : promoted) in_core_[v] = 0;
    for (VertexId v : candidates) candidate_flag_[v] = 0;
    for (VertexId t : touched) touched_flag_[t] = 0;
    for (VertexId v : dirty) {
      dirty_flag_[v] = 0;
      visited_flag_[v] = 0;
    }
    ++cumulative_.rolled_back_batches;
    if (report != nullptr) {
      *report = UpdateReport{};
      report->rolled_back_batches = 1;
    }
    return s;
  };
  // Abort poll, hit in every repair loop: deadline expiry and the named
  // failpoint both route through Fail's rollback.
  auto CheckAbort = [&](const char* site) -> Status {
    if (options.deadline.Expired()) {
      return Status::DeadlineExceeded(
          "edge-update batch exceeded its deadline; batch rolled back");
    }
    return Failpoints::Inject(site);
  };

  auto Touch = [&](VertexId v) {
    if (!touched_flag_[v]) {
      touched_flag_[v] = 1;
      touched.push_back(v);
    }
  };
  for (const EdgeUpdate& upd : updates) {
    if (Status s = CheckAbort("update/replay"); !s.ok()) {
      return Fail(std::move(s));
    }
    ++batch.updates_applied;
    if (upd.kind == EdgeUpdate::Kind::kInsert) {
      if (HasSimilarEdge(upd.u, upd.v)) continue;  // raw duplicate or re-add
      ++batch.pairs_from_oracle;
      if (!oracle_.Similar(upd.u, upd.v)) continue;  // filtered, like prepare
      InsertSorted(sim_adj_[upd.u], upd.v);
      InsertSorted(sim_adj_[upd.v], upd.u);
      ++batch.sim_edges_added;
    } else {
      if (!EraseSorted(sim_adj_[upd.u], upd.v)) continue;  // absent edge
      EraseSorted(sim_adj_[upd.v], upd.u);
      ++batch.sim_edges_removed;
      if (in_core_[upd.u]) peel_queue.push_back(upd.u);
      if (in_core_[upd.v]) peel_queue.push_back(upd.v);
    }
    const bool inserted = upd.kind == EdgeUpdate::Kind::kInsert;
    Touch(upd.u);
    Touch(upd.v);
    changed_edges.push_back({upd.u, upd.v, in_core_[upd.u] != 0,
                             in_core_[upd.v] != 0, inserted});
  }
  if (touched.empty()) {
    // Only no-op updates: the similarity graph — and with it the entire
    // substrate — is unchanged. Still a committed batch, so the version
    // advances.
    ++ws_->version;
    batch.components_reused = ws_->components.size();
    batch.seconds = timer.ElapsedSeconds();
    cumulative_.MergeFrom(batch);
    if (report != nullptr) *report = batch;
    return Status::OK();
  }

  // --- 2. Peel pass: deletions cascade membership loss outward from the
  // removed edges' endpoints. Survivors of this pass form a k-closed set in
  // the updated graph, so they all belong to the new k-core.
  while (!peel_queue.empty()) {
    if (Status s = CheckAbort("update/repair"); !s.ok()) {
      return Fail(std::move(s));
    }
    VertexId v = peel_queue.front();
    peel_queue.pop_front();
    if (!in_core_[v] || CoreDegree(v) >= k) continue;
    in_core_[v] = 0;
    peeled.push_back(v);
    for (VertexId w : sim_adj_[v]) {
      if (in_core_[w]) peel_queue.push_back(w);
    }
  }

  // --- 3. Promotion pass: every vertex the new k-core gains lives in a
  // region reachable from a touched vertex through non-members of full
  // degree >= k (a component of gained vertices none of whose members saw an
  // edge change would have been in the old core already). Collect that
  // candidate frontier, then peel it with the current core anchored: the
  // survivors are exactly the new members.
  {
    std::deque<VertexId> bfs;
    auto Consider = [&](VertexId v) {
      if (!in_core_[v] && !candidate_flag_[v] &&
          sim_adj_[v].size() >= static_cast<size_t>(k)) {
        candidate_flag_[v] = 1;
        candidates.push_back(v);
        bfs.push_back(v);
      }
    };
    for (VertexId t : touched) Consider(t);
    for (VertexId p : peeled) Consider(p);
    while (!bfs.empty()) {
      if (Status s = CheckAbort("update/repair"); !s.ok()) {
        return Fail(std::move(s));
      }
      VertexId v = bfs.front();
      bfs.pop_front();
      for (VertexId w : sim_adj_[v]) Consider(w);
    }
  }
  if (!candidates.empty()) {
    std::deque<VertexId> drop;
    for (VertexId v : candidates) {
      uint32_t d = 0;
      for (VertexId w : sim_adj_[v]) d += in_core_[w] | candidate_flag_[w];
      candidate_degree_[v] = d;
      if (d < k) drop.push_back(v);
    }
    while (!drop.empty()) {
      if (Status s = CheckAbort("update/repair"); !s.ok()) {
        return Fail(std::move(s));
      }
      VertexId v = drop.front();
      drop.pop_front();
      if (!candidate_flag_[v] || candidate_degree_[v] >= k) continue;
      candidate_flag_[v] = 0;
      for (VertexId w : sim_adj_[v]) {
        if (candidate_flag_[w] && --candidate_degree_[w] < k) {
          drop.push_back(w);
        }
      }
    }
    for (VertexId v : candidates) {
      if (candidate_flag_[v]) {
        in_core_[v] = 1;
        promoted.push_back(v);
      }
      candidate_flag_[v] = 0;  // scratch invariant: all-clear on exit
    }
  }
  batch.vertices_peeled = peeled.size();
  batch.vertices_promoted = promoted.size();

  // --- 4. Dirty region: BFS over the new core from every vertex whose
  // within-core neighborhood or membership changed. The closure is a union
  // of complete new components; everything outside it is byte-identical to
  // what a fresh preparation would build. A changed edge dirties a
  // final-core endpoint only when the other endpoint is in the final core
  // (the edge is new component structure) or was in the pre-batch core
  // (it was old structure — the removal that peeled the far endpoint may
  // also have been the surviving side's only link to the peel, so the
  // neighbors-of-peeled seeding below cannot be relied on alone). Edges
  // whose far endpoint is outside both cores touch neither the induced
  // structure graph nor the (vertex-set-determined) dissimilarity rows,
  // and the component is reused verbatim — the common cheap case for
  // churn against a stable core.
  {
    std::deque<VertexId> bfs;
    auto Seed = [&](VertexId v) {
      if (in_core_[v] && !dirty_flag_[v]) {
        dirty_flag_[v] = 1;
        dirty.push_back(v);
        bfs.push_back(v);
      }
    };
    for (const ChangedEdge& e : changed_edges) {
      if (in_core_[e.v] || e.v_was_core) Seed(e.u);
      if (in_core_[e.u] || e.u_was_core) Seed(e.v);
    }
    for (VertexId p : promoted) Seed(p);
    for (VertexId p : peeled) {
      for (VertexId w : sim_adj_[p]) Seed(w);
    }
    while (!bfs.empty()) {
      if (Status s = CheckAbort("update/repair"); !s.ok()) {
        return Fail(std::move(s));
      }
      VertexId v = bfs.front();
      bfs.pop_front();
      for (VertexId w : sim_adj_[v]) Seed(w);
    }
  }
  std::sort(dirty.begin(), dirty.end());

  std::vector<char> comp_dirty(ws_->components.size(), 0);
  bool any_comp_dirty = false;
  auto MarkDirty = [&](VertexId v) {
    if (comp_of_[v] != kNoComponent) {
      comp_dirty[comp_of_[v]] = 1;
      any_comp_dirty = true;
    }
  };
  for (VertexId v : dirty) MarkDirty(v);
  for (VertexId p : peeled) MarkDirty(p);

  // --- 5/6. Rebuild the components of the dirty region, in the discovery
  // order a fresh preparation uses (ascending minimum vertex id; members
  // sorted ascending — ComponentsOfSubset semantics).
  std::vector<ComponentContext> rebuilt;
  {
    std::vector<VertexId> members;
    std::deque<VertexId> bfs;
    // Failure helper for aborts that land after remap_ has been written for
    // the component under rebuild: restore its slots, then roll back.
    auto FailInComponent = [&](Status s) -> Status {
      for (VertexId p : members) remap_[p] = kInvalidVertex;
      return Fail(std::move(s));
    };
    for (VertexId s : dirty) {
      if (visited_flag_[s]) continue;
      if (Status st = CheckAbort("update/rebuild_component"); !st.ok()) {
        return Fail(std::move(st));
      }
      members.clear();
      visited_flag_[s] = 1;
      bfs.push_back(s);
      while (!bfs.empty()) {
        VertexId v = bfs.front();
        bfs.pop_front();
        members.push_back(v);
        for (VertexId w : sim_adj_[v]) {
          if (dirty_flag_[w] && !visited_flag_[w]) {
            visited_flag_[w] = 1;
            bfs.push_back(w);
          }
        }
      }
      std::sort(members.begin(), members.end());

      ComponentContext ctx;
      ctx.to_parent = members;
      const VertexId cn = static_cast<VertexId>(members.size());
      for (VertexId i = 0; i < cn; ++i) remap_[members[i]] = i;
      GraphBuilder builder(cn);
      for (VertexId i = 0; i < cn; ++i) {
        for (VertexId w : sim_adj_[members[i]]) {
          if (w > members[i] && remap_[w] != kInvalidVertex) {
            builder.AddEdge(i, remap_[w]);
          }
        }
      }
      ctx.graph = builder.Build();

      // Origin census: partition this component's vertices (by local id)
      // into groups sharing one old component, plus a singleton group per
      // promoted vertex. Every pair inside an old-component group is served
      // by the cached rows; every pair across groups must consult the
      // oracle — and those are exactly the pairs whose similarity
      // neighborhood changed.
      std::vector<uint32_t> old_comps;
      std::vector<size_t> old_comp_group;  // old_comps[x] -> groups index
      std::vector<std::vector<VertexId>> groups;
      for (VertexId i = 0; i < cn; ++i) {
        uint32_t c = comp_of_[members[i]];
        if (c == kNoComponent) {
          groups.push_back({i});  // promoted: singleton group
          continue;
        }
        // groups also holds promoted singletons, so an old component's
        // group index must be tracked explicitly — positions in old_comps
        // and groups diverge as soon as a promoted vertex interleaves.
        auto it = std::find(old_comps.begin(), old_comps.end(), c);
        if (it == old_comps.end()) {
          old_comps.push_back(c);
          old_comp_group.push_back(groups.size());
          groups.push_back({i});
        } else {
          groups[old_comp_group[it - old_comps.begin()]].push_back(i);
        }
      }
      // dirty fraction = share of this component's n^2 pair space that the
      // cache cannot serve (1 - sum of squared origin-group fractions).
      // Above the threshold the cache saves too little to pay for its
      // bookkeeping: scoped re-prepare — a plain full pair sweep of just
      // this component.
      uint64_t same_origin = 0;
      for (const auto& g : groups) {
        same_origin += static_cast<uint64_t>(g.size()) * g.size();
      }
      const double dirty_fraction =
          cn == 0 ? 0.0
                  : 1.0 - static_cast<double>(same_origin) /
                              (static_cast<double>(cn) *
                               static_cast<double>(cn));
      // >= so max_dirty_fraction = 0 really forces the fallback for every
      // rebuilt component (a pure split has dirty fraction exactly 0).
      const bool fallback = dirty_fraction >= options.max_dirty_fraction &&
                            cn > 0;

      // Freshly evaluated pairs are classified against the workspace's
      // (serve, cover) interval exactly like the join's: dissimilar at
      // serve is active, dissimilar only at cover is a reserve pair with
      // its score — so live-updated workspaces keep full-grid servability.
      const double cover = ws_->score_cover;
      DissimilarityIndex::Builder pairs(cn);
      auto EvaluatePair = [&](VertexId i, VertexId j) {
        ++batch.pairs_from_oracle;
        const double s = oracle_.Score(members[i], members[j]);
        if (!oracle_.SimilarAt(s)) {
          pairs.AddPair(i, j);
        } else if (!ScoreSimilarUnder(s, cover, ws_->is_distance)) {
          pairs.AddReservePair(i, j, s);
        }
      };
      if (fallback) {
        ++batch.fallback_rebuilds;
        if (Status st = CheckAbort("update/fallback_resweep"); !st.ok()) {
          return FailInComponent(std::move(st));
        }
        // Scoped re-prepare of just this component through the self-join
        // PrepareComponents runs (bit-identical to the EvaluatePair
        // classification above). The batch deadline flows into the join,
        // whose own polling aborts it mid-sweep.
        SelfJoinOptions join;
        join.deadline = options.deadline;
        join.score_cover = cover;
        std::atomic<bool> join_aborted{false};
        const JoinReport jr =
            SelfJoinPairs(oracle_, members, join, &join_aborted, &pairs);
        batch.pairs_from_oracle += jr.oracle_calls;
        if (join_aborted.load(std::memory_order_relaxed)) {
          return FailInComponent(
              jr.injected_fault
                  ? Status::Internal(
                        "injected fault at failpoint 'join/pairs' during "
                        "the fallback resweep; batch rolled back")
                  : Status::DeadlineExceeded(
                        "edge-update batch exceeded its deadline during "
                        "the fallback resweep; batch rolled back"));
        }
      } else {
        // In-group pairs: restricted from the cached rows, zero oracle
        // calls. The old-local -> new-local map composes through the sorted
        // to_parent arrays; old_local_map_ is persistent scratch (old local
        // ids are < n), written and re-cleared per group so a split's cost
        // stays proportional to the survivors, not the old component.
        std::vector<VertexId> old_rows;
        for (size_t gi = 0; gi < old_comps.size(); ++gi) {
          const ComponentContext& old_ctx = ws_->components[old_comps[gi]];
          // Cached rows of an mmap-served component must pass first-touch
          // validation before they are trusted; a corrupt source rolls the
          // batch back like any other mid-batch failure.
          if (Status st = old_ctx.EnsureValid(); !st.ok()) {
            return FailInComponent(std::move(st));
          }
          old_rows.clear();
          for (VertexId i : groups[old_comp_group[gi]]) {
            auto it = std::lower_bound(old_ctx.to_parent.begin(),
                                       old_ctx.to_parent.end(), members[i]);
            const VertexId old_local =
                static_cast<VertexId>(it - old_ctx.to_parent.begin());
            old_local_map_[old_local] = i;
            old_rows.push_back(old_local);
          }
          batch.pairs_from_cache += old_ctx.dissimilar.AppendRemappedPairs(
              old_rows, old_local_map_, &pairs);
          for (VertexId r : old_rows) old_local_map_[r] = kInvalidVertex;
        }
        // Cross-group pairs: evaluated fresh — O(changed pairs), not
        // O(n^2); same-origin pairs are never even iterated.
        for (size_t gi = 0; gi + 1 < groups.size(); ++gi) {
          if (Status st = CheckAbort("update/rebuild_component"); !st.ok()) {
            return FailInComponent(std::move(st));
          }
          for (size_t gj = gi + 1; gj < groups.size(); ++gj) {
            for (VertexId i : groups[gi]) {
              for (VertexId j : groups[gj]) {
                EvaluatePair(i, j);
              }
            }
          }
        }
      }
      ctx.dissimilar = pairs.Build();
      batch.rows_rebuilt += cn;
      rebuilt.push_back(std::move(ctx));
      for (VertexId p : members) remap_[p] = kInvalidVertex;
    }
  }
  batch.components_rebuilt = rebuilt.size();

  // Last abort poll: past this point the commit is no-fail (moves, sorts,
  // flag clearing only), so every batch either rolled back completely above
  // or commits completely below.
  if (Status s = CheckAbort("update/before_commit"); !s.ok()) {
    return Fail(std::move(s));
  }

  // --- 7. Reassemble — but only when the component list actually changed:
  // membership churn outside every component leaves the existing list
  // (which already satisfies the order invariant) untouched, so the
  // advertised cheap case costs no re-sort and no comp_of_ rewrite.
  if (rebuilt.empty() && !any_comp_dirty) {
    batch.components_reused = ws_->components.size();
  } else {
    std::vector<ComponentContext> next;
    next.reserve(rebuilt.size() + ws_->components.size());
    for (size_t c = 0; c < ws_->components.size(); ++c) {
      if (!comp_dirty[c]) {
        ++batch.components_reused;
        next.push_back(std::move(ws_->components[c]));
      }
    }
    for (auto& ctx : rebuilt) next.push_back(std::move(ctx));
    // The exact order every preparation path produces.
    SortComponents(&next);
    ws_->components = std::move(next);
    // Incremental comp_of_ refresh: the re-sort renumbers every component,
    // so all present entries are rewritten (O(core), not O(n)); only
    // peeled vertices need explicit invalidation.
    for (VertexId p : peeled) comp_of_[p] = kNoComponent;
    for (size_t c = 0; c < ws_->components.size(); ++c) {
      for (VertexId p : ws_->components[c].to_parent) {
        comp_of_[p] = static_cast<uint32_t>(c);
      }
    }
  }

  // Restore the all-clear scratch invariant (candidate_flag_ was cleared in
  // the promotion pass; remap_ and old_local_map_ per rebuilt component).
  for (VertexId t : touched) touched_flag_[t] = 0;
  for (VertexId v : dirty) {
    dirty_flag_[v] = 0;
    visited_flag_[v] = 0;
  }

  // Commit: the version advances only once the batch is fully applied.
  ++ws_->version;
  batch.seconds = timer.ElapsedSeconds();
  cumulative_.MergeFrom(batch);
  if (report != nullptr) *report = batch;
  return Status::OK();
}

Status ApplyEdgeUpdates(const Graph& g, const SimilarityOracle& oracle,
                        std::span<const EdgeUpdate> updates,
                        const UpdateOptions& options, PreparedWorkspace* ws,
                        UpdateReport* report) {
  WorkspaceUpdater updater(g, oracle, ws);
  return updater.ApplyEdgeUpdates(updates, options, report);
}

EdgeSetMirror::EdgeSetMirror(const Graph& g) : n_(g.num_vertices()) {
  for (VertexId u = 0; u < n_; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v) edges_.insert({u, v});
    }
  }
}

void EdgeSetMirror::Apply(const EdgeUpdate& update) {
  const auto key = std::minmax(update.u, update.v);
  if (update.kind == EdgeUpdate::Kind::kInsert) {
    edges_.insert({key.first, key.second});
  } else {
    edges_.erase({key.first, key.second});
  }
}

void EdgeSetMirror::Apply(std::span<const EdgeUpdate> updates) {
  for (const EdgeUpdate& update : updates) Apply(update);
}

Graph EdgeSetMirror::Build() const {
  GraphBuilder builder(n_);
  for (const auto& [u, v] : edges_) builder.AddEdge(u, v);
  return builder.Build();
}

}  // namespace krcore
