#ifndef KRCORE_CORE_KRCORE_TYPES_H_
#define KRCORE_CORE_KRCORE_TYPES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/field_table.h"
#include "util/status.h"
#include "util/timer.h"

namespace krcore {

/// A (k,r)-core result: vertex ids of the *original* graph, sorted ascending.
using VertexSet = std::vector<VertexId>;

/// Vertex visiting orders studied in Sec 7 / Fig 11 of the paper.
enum class VertexOrder {
  kRandom,            // uniform random candidate
  kDegree,            // highest structure degree w.r.t. M ∪ C
  kDelta1,            // largest relative drop in dissimilar pairs
  kDelta2,            // smallest relative drop in edges
  kDelta1ThenDelta2,  // Δ1 descending, ties broken by Δ2 ascending (AdvEnum)
  kLambdaCombo,       // λ·Δ1 − Δ2 (AdvMax)
};

/// Branch (expand vs shrink) visiting orders (Fig 11(b)).
enum class BranchOrder {
  kAdaptive,     // per-vertex, higher-scoring branch first (Sec 7.2)
  kExpandFirst,  // always expand first
  kShrinkFirst,  // always shrink first
};

/// Size upper bounds for the maximum-(k,r)-core search (Sec 6.2 / Fig 10).
enum class SizeBoundKind {
  kNaive,           // |M| + |C|
  kColor,           // greedy coloring of the similarity graph
  kKcore,           // degeneracy of the similarity graph + 1
  kColorPlusKcore,  // min(color, kcore) — state of the art [31]
  kDoubleKcore,     // the paper's (k,k')-core bound (Alg 6)
};

std::string VertexOrderName(VertexOrder o);
std::string BranchOrderName(BranchOrder o);
std::string SizeBoundName(SizeBoundKind b);

/// Counters reported by every mining call; benches and tests read these to
/// compare search-space sizes across algorithm variants.
struct MiningStats {
  uint64_t search_nodes = 0;       // branch nodes visited
  uint64_t expand_branches = 0;    // expand recursions taken
  uint64_t shrink_branches = 0;    // shrink recursions taken
  uint64_t emitted_candidates = 0; // (k,r)-cores reached (pre maximal check)
  // Cores surviving the maximal check (enumeration only: the maximum
  // search runs no maximal check and leaves this 0).
  uint64_t maximal_found = 0;
  uint64_t early_terminations = 0; // Theorem 5 hits
  uint64_t bound_prunes = 0;       // upper-bound cutoffs, all tiers summed
  // Tiered-bound breakdown of bound_prunes (maximum search): the free
  // |M|+|C| check, the cached expensive value reused without recomputation,
  // and a freshly recomputed expensive bound.
  uint64_t bound_naive_prunes = 0;
  uint64_t bound_cache_hits = 0;
  uint64_t bound_expensive_prunes = 0;
  // Expensive-tier evaluations actually run (vs. served from the cache).
  uint64_t bound_recomputes = 0;
  uint64_t promotions = 0;         // Remark 1 direct moves C -> M
  uint64_t maximal_check_calls = 0;
  uint64_t maximal_check_nodes = 0;
  uint64_t components = 0;         // components searched after preprocessing
  // Task-pool accounting (filled once per run by the parallel drivers):
  // tasks submitted to the shared pool (component roots + forked subtrees)
  // and how many of them ran on a worker other than their submitter's.
  uint64_t tasks_spawned = 0;
  uint64_t task_steals = 0;
  // Substrate provenance: full O(n^2) similarity pair sweeps run for this
  // result (0 when the search ran on an already-prepared workspace — a
  // snapshot load or a sweep-cached substrate), substrates derived from a
  // cached workspace via k-core nesting instead of a fresh sweep, and the
  // wall time spent preparing/deriving (included in `seconds`).
  uint64_t prepare_pair_sweeps = 0;
  uint64_t prepare_derivations = 0;
  // Metric evaluations the preparation's similarity self-join actually ran
  // (0 when served from a cached/derived workspace). With the brute join
  // this equals the full pair space; the filtered join settles most pairs
  // with certified bounds instead, and this counter is what makes that
  // visible per mining call.
  uint64_t oracle_calls = 0;
  // Score-substrate provenance: derivations that additionally restricted
  // the serving threshold (served a stricter r than the cached workspace's
  // by filtering its reserve scores) and how many stored scores those
  // filters consulted. Both 0 for fresh sweeps and k-only derivations.
  uint64_t derive_r_restrictions = 0;
  uint64_t score_filtered_pairs = 0;
  double prepare_seconds = 0.0;
  double seconds = 0.0;

  /// Counter fields are summed. The wall-clock fields `seconds` and
  /// `prepare_seconds` are merged as max: MergeFrom combines per-worker
  /// partials of ONE logical run, where workers overlap in time — summing
  /// them overstates wall time under parallelism. Sequential phase times
  /// must be accumulated explicitly by the caller instead (the drivers
  /// overwrite `seconds` from a single Timer for exactly this reason).
  void MergeFrom(const MiningStats& other);
  std::string ToJson() const { return FieldsJson(*this); }

  static constexpr auto Fields() {
    using S = MiningStats;
    return std::tuple{
        Field{"search_nodes", &S::search_nodes},
        Field{"expand_branches", &S::expand_branches},
        Field{"shrink_branches", &S::shrink_branches},
        Field{"emitted_candidates", &S::emitted_candidates},
        Field{"maximal_found", &S::maximal_found},
        Field{"early_terminations", &S::early_terminations},
        Field{"bound_prunes", &S::bound_prunes},
        Field{"bound_naive_prunes", &S::bound_naive_prunes},
        Field{"bound_cache_hits", &S::bound_cache_hits},
        Field{"bound_expensive_prunes", &S::bound_expensive_prunes},
        Field{"bound_recomputes", &S::bound_recomputes},
        Field{"promotions", &S::promotions},
        Field{"maximal_check_calls", &S::maximal_check_calls},
        Field{"maximal_check_nodes", &S::maximal_check_nodes},
        Field{"components", &S::components},
        Field{"tasks_spawned", &S::tasks_spawned},
        Field{"task_steals", &S::task_steals},
        Field{"prepare_pair_sweeps", &S::prepare_pair_sweeps},
        Field{"prepare_derivations", &S::prepare_derivations},
        Field{"oracle_calls", &S::oracle_calls},
        Field{"derive_r_restrictions", &S::derive_r_restrictions},
        Field{"score_filtered_pairs", &S::score_filtered_pairs},
        Field{"prepare_seconds", &S::prepare_seconds, Merge::kMax},
        Field{"seconds", &S::seconds, Merge::kMax},
    };
  }
};

/// Result of enumerating maximal (k,r)-cores. On DeadlineExceeded the cores
/// found so far are returned (every one still verified maximal w.r.t. the
/// search performed; completeness is what the timeout forfeits).
struct MaximalCoresResult {
  std::vector<VertexSet> cores;
  MiningStats stats;
  Status status;
};

/// Result of the maximum (k,r)-core search. `best` is empty when no
/// (k,r)-core exists.
struct MaximumCoreResult {
  VertexSet best;
  MiningStats stats;
  Status status;
};

}  // namespace krcore

#endif  // KRCORE_CORE_KRCORE_TYPES_H_
