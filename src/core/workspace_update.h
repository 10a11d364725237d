#ifndef KRCORE_CORE_WORKSPACE_UPDATE_H_
#define KRCORE_CORE_WORKSPACE_UPDATE_H_

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "graph/graph.h"
#include "similarity/similarity_oracle.h"
#include "util/field_table.h"
#include "util/status.h"
#include "util/timer.h"

namespace krcore {

/// Incremental maintenance of a PreparedWorkspace under edge churn — the
/// serving-system counterpart of the snapshot/sweep reuse layers: those make
/// one preprocessing pass serve many (k, r) cells, this makes it survive
/// *graph versions*. A live social network mutates continuously; re-running
/// the O(n^2) similarity pair sweep per update batch is unaffordable, but an
/// edge update only perturbs the substrate locally:
///
///   - attributes do not change, so a component's dissimilarity rows depend
///     only on its *vertex set* — rows must be recomputed only where
///     components gain vertices or merge, and cached rows cover every pair
///     that stays within one old component;
///   - k-core membership changes propagate outward from the touched
///     endpoints (deletions cascade a peel, insertions cascade promotions),
///     so membership is repaired locally instead of re-peeled globally;
///   - connectivity changes split/merge only the components reachable from
///     the touched region; untouched components are byte-identical to what a
///     fresh preparation would build and are reused wholesale.
///
/// Correctness bar (locked by workspace_update_test): after any update
/// sequence, the maintained workspace is *structurally identical* — same
/// component order, same local ids, same CSR rows — to PrepareWorkspace run
/// on the updated graph, so mining it returns byte-identical results.
///
/// Reserve rows are maintained in kind: cached reserve entries carry their
/// scores through restriction verbatim, and every freshly evaluated pair is
/// classified against the workspace's serve..cover interval like the join's
/// — so a live-updated substrate keeps serving its whole (k, r) grid, not
/// just its base cell.

/// One edge mutation of the raw graph. Semantics mirror replaying the
/// mutation on the raw edge set and re-preparing: inserting an existing
/// edge and removing an absent one are no-ops, self-loops and out-of-range
/// ids are rejected.
struct EdgeUpdate {
  enum class Kind : uint8_t { kInsert, kRemove };

  Kind kind = Kind::kInsert;
  VertexId u = 0;
  VertexId v = 0;

  static EdgeUpdate Insert(VertexId u, VertexId v) {
    return {Kind::kInsert, u, v};
  }
  static EdgeUpdate Remove(VertexId u, VertexId v) {
    return {Kind::kRemove, u, v};
  }
};

struct UpdateOptions {
  /// Fallback heuristic, evaluated per rebuilt component: the dirty
  /// fraction is the share of the component's pairwise work its cached
  /// rows cannot serve (pairs crossing old-component origins or touching a
  /// newly promoted vertex — 1 minus the sum of squared origin-group
  /// fractions). At or above this threshold the cache would save too
  /// little to pay for its bookkeeping, so that dirtied component is
  /// scoped-re-prepared with a plain full pair sweep instead. Clean
  /// components are reused either way; results are identical on both
  /// paths. 0 forces the fallback for every rebuilt component; >= 1
  /// disables it (the fraction is strictly below 1).
  double max_dirty_fraction = 0.35;

  /// Wall-clock budget for the whole batch, polled in every repair loop
  /// (replay, peel/promotion cascades, dirty BFS, component rebuilds, and
  /// the fallback resweep's pair engine). Expiry aborts the batch with
  /// DeadlineExceeded through the transactional rollback path, so a timed-
  /// out batch leaves the workspace bit-identical to its pre-batch state.
  Deadline deadline;
};

/// Accounting for one ApplyEdgeUpdates batch (or, via
/// WorkspaceUpdater::cumulative(), the running totals across batches).
struct UpdateReport {
  uint64_t batches = 0;             // ApplyEdgeUpdates calls
  uint64_t updates_applied = 0;     // raw EdgeUpdate records consumed
  uint64_t sim_edges_added = 0;     // similarity-filtered graph mutations
  uint64_t sim_edges_removed = 0;
  uint64_t vertices_peeled = 0;     // k-core members lost
  uint64_t vertices_promoted = 0;   // k-core members gained
  uint64_t components_reused = 0;   // kept byte-identical, zero work
  uint64_t components_rebuilt = 0;  // dirty components reconstructed
  uint64_t rows_rebuilt = 0;        // dissimilarity rows written fresh
  uint64_t pairs_from_cache = 0;    // pairs restricted from cached rows
  uint64_t pairs_from_oracle = 0;   // similarity evaluations actually run
  uint64_t fallback_rebuilds = 0;   // components re-swept via the fallback
  uint64_t rolled_back_batches = 0;  // batches aborted and fully undone
  double seconds = 0.0;

  /// Sums every field (batches run one after another, so `seconds` adds).
  void MergeFrom(const UpdateReport& other);
  std::string ToJson() const { return FieldsJson(*this); }

  static constexpr auto Fields() {
    using S = UpdateReport;
    return std::tuple{
        Field{"batches", &S::batches},
        Field{"updates_applied", &S::updates_applied},
        Field{"sim_edges_added", &S::sim_edges_added},
        Field{"sim_edges_removed", &S::sim_edges_removed},
        Field{"vertices_peeled", &S::vertices_peeled},
        Field{"vertices_promoted", &S::vertices_promoted},
        Field{"components_reused", &S::components_reused},
        Field{"components_rebuilt", &S::components_rebuilt},
        Field{"rows_rebuilt", &S::rows_rebuilt},
        Field{"pairs_from_cache", &S::pairs_from_cache},
        Field{"pairs_from_oracle", &S::pairs_from_oracle},
        Field{"fallback_rebuilds", &S::fallback_rebuilds},
        Field{"rolled_back_batches", &S::rolled_back_batches},
        Field{"seconds", &S::seconds},
    };
  }
};

/// Binds a PreparedWorkspace to the graph it was prepared from and keeps it
/// maintained under edge updates. Construction builds the similarity-
/// filtered adjacency of `g` under `oracle` — one oracle call per edge, the
/// same filter pass PrepareWorkspace runs, and no pair sweep. The workspace,
/// graph and oracle must be the triple the workspace was prepared from
/// (same k, same threshold); a mismatch fails the first ApplyEdgeUpdates
/// with InvalidArgument.
///
/// Not thread-safe: one updater owns its workspace. Mining calls may read
/// ws->components freely between (not during) ApplyEdgeUpdates calls.
class WorkspaceUpdater {
 public:
  WorkspaceUpdater(const Graph& g, const SimilarityOracle& oracle,
                   PreparedWorkspace* ws);

  /// Applies one batch of edge updates and repairs the workspace,
  /// all-or-nothing: on ANY non-OK return — validation error, deadline
  /// expiry mid-repair, injected failpoint, join abort — every mutation the
  /// batch made (similarity adjacency, core membership, scratch state) is
  /// rolled back, so the workspace and the updater are bit-identical to
  /// their pre-batch state, the version is unchanged, and the same updater
  /// keeps working for subsequent batches. The version is bumped only at
  /// the commit point of a successful batch. `report`, when non-null,
  /// receives the accounting for this batch only (on a rolled-back batch:
  /// all zeros except rolled_back_batches = 1).
  Status ApplyEdgeUpdates(std::span<const EdgeUpdate> updates,
                          const UpdateOptions& options,
                          UpdateReport* report = nullptr);

  /// Running totals across every batch applied through this updater.
  const UpdateReport& cumulative() const { return cumulative_; }

  VertexId num_vertices() const {
    return static_cast<VertexId>(sim_adj_.size());
  }

  /// True iff {u, v} is an edge of the maintained similarity-filtered graph.
  bool HasSimilarEdge(VertexId u, VertexId v) const;

 private:
  void RebuildComponentMap();
  uint32_t CoreDegree(VertexId v) const;

  PreparedWorkspace* ws_;
  SimilarityOracle oracle_;
  Status init_status_;
  /// Sorted adjacency of the similarity-filtered graph over the full vertex
  /// universe (non-core vertices included: they are the promotion frontier).
  std::vector<std::vector<VertexId>> sim_adj_;
  std::vector<char> in_core_;
  /// Parent vertex id -> index into ws_->components (kNoComponent outside).
  static constexpr uint32_t kNoComponent = static_cast<uint32_t>(-1);
  std::vector<uint32_t> comp_of_;
  /// Persistent per-vertex scratch, kept all-clear between batches (each
  /// batch resets exactly the slots it set), so a batch costs work
  /// proportional to its touched region — not O(n) re-zeroing per batch.
  /// candidate_degree_ needs no clearing: it is (re)initialized for every
  /// candidate of a batch before it is read.
  std::vector<char> touched_flag_;
  std::vector<char> candidate_flag_;
  std::vector<uint32_t> candidate_degree_;
  std::vector<char> dirty_flag_;
  std::vector<char> visited_flag_;
  std::vector<VertexId> remap_;          // parent id -> rebuilt local id
  std::vector<VertexId> old_local_map_;  // old local id -> rebuilt local id
  UpdateReport cumulative_;
};

/// One-shot convenience form of the maintenance entry point: `g` is the
/// graph *before* the updates, `ws` the workspace prepared from it. For
/// repeated batches construct a WorkspaceUpdater once instead — this form
/// re-derives the similarity adjacency (an O(m) oracle pass) every call.
Status ApplyEdgeUpdates(const Graph& g, const SimilarityOracle& oracle,
                        std::span<const EdgeUpdate> updates,
                        const UpdateOptions& options, PreparedWorkspace* ws,
                        UpdateReport* report = nullptr);

/// Mutable raw edge set mirroring an update stream — the ground-truth
/// companion of the incremental engine: replay the same updates here,
/// Build() the graph, and PrepareWorkspace on it must match the maintained
/// workspace exactly. Used by the equivalence tests and the
/// update-maintenance bench; O(log m) per update, O(n + m) per Build().
class EdgeSetMirror {
 public:
  explicit EdgeSetMirror(const Graph& g);

  /// Replays one update (insert of an existing edge / removal of an absent
  /// one is a no-op, matching EdgeUpdate semantics).
  void Apply(const EdgeUpdate& update);
  void Apply(std::span<const EdgeUpdate> updates);

  /// Materializes the current edge set as a CSR graph.
  Graph Build() const;

  VertexId num_vertices() const { return n_; }
  size_t num_edges() const { return edges_.size(); }
  /// Current edges as sorted (min, max) pairs.
  const std::set<std::pair<VertexId, VertexId>>& edges() const {
    return edges_;
  }

 private:
  VertexId n_;
  std::set<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace krcore

#endif  // KRCORE_CORE_WORKSPACE_UPDATE_H_
