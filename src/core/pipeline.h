#ifndef KRCORE_CORE_PIPELINE_H_
#define KRCORE_CORE_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dissimilarity_index.h"
#include "core/krcore_types.h"
#include "graph/graph.h"
#include "similarity/similarity_oracle.h"
#include "util/array_ref.h"
#include "util/field_table.h"
#include "util/status.h"
#include "util/timer.h"

namespace krcore {

/// Deferred integrity state of one mmap-served component: the snapshot
/// loader installs a validation closure (blob checksum + the full
/// structural invariant battery) to be run at most once, on first touch,
/// under the once_flag. Copies of the component share this object, so one
/// validation pass settles the component for every view of it. A null
/// LazyComponentValidation pointer on a component means "already valid"
/// (owned builds and eager loads).
struct LazyComponentValidation {
  std::once_flag once;
  /// The verdict, written exactly once under `once`.
  Status status;
  /// Self-contained pure check capturing the mapped spans — deliberately no
  /// pointer back to any component instance, so copies stay coherent.
  /// Cleared after the run.
  std::function<Status()> validate;
};

/// A connected component produced by the Algorithm 1 preprocessing
/// (dissimilar-edge removal -> k-core -> connected components), re-indexed
/// with dense local ids and with all pairwise dissimilarity materialized.
///
/// Every (k,r)-core of the input graph lives entirely inside exactly one
/// component (Sec 4.1), so the search runs per component with local ids —
/// and components are independent search units, which the parallel drivers
/// in enumerate/maximum exploit.
struct ComponentContext {
  /// Induced structure graph over local ids (every edge already similar).
  Graph graph;
  /// Local id -> original graph id.
  ArrayRef<VertexId> to_parent;
  /// Flat CSR dissimilarity substrate: dissimilar[u] is the sorted local
  /// ids v with sim(u,v) violating r. This is the complement of the
  /// component's similarity graph; all engine-side similarity tests run on
  /// it (the oracle is not consulted again).
  DissimilarityIndex dissimilar;
  /// First-touch validation for mmap-served components; null when the
  /// component was built in memory or eagerly validated.
  std::shared_ptr<LazyComponentValidation> lazy;

  VertexId size() const { return graph.num_vertices(); }
  /// Total number of dissimilar pairs in the component (DP of Sec 7.1).
  uint64_t num_dissimilar_pairs() const { return dissimilar.num_pairs(); }

  /// Runs the deferred integrity checks (at most once across all copies of
  /// this component) and returns the verdict; instant OK for components
  /// with nothing deferred. Every consumer that reads rows — mining roots,
  /// derivation, the updater, the snapshot writer — calls this first, so
  /// corruption in a mapped file fails exactly the queries that touch the
  /// corrupt component, as the same clean Status errors an eager load
  /// reports.
  Status EnsureValid() const {
    if (!lazy) return Status::OK();
    LazyComponentValidation* l = lazy.get();
    std::call_once(l->once, [l] {
      l->status = l->validate();
      l->validate = nullptr;
    });
    return l->status;
  }
};

/// Puts `components` in the canonical order every preparation path
/// produces: max structure degree descending, so the component holding the
/// highest-degree vertex is searched first (Sec 6.1's seeding rule for
/// FindMaximum), ties by ascending minimum parent id. Component min ids are
/// distinct (to_parent is sorted), so the order is strict. Shared by
/// PrepareComponents, DeriveWorkspace and the incremental update engine, so
/// derived and maintained orders equal a fresh preparation's by
/// construction.
void SortComponents(std::vector<ComponentContext>* components);

/// The one preparation configuration. Algorithm 1 itself depends only on k
/// and r (the oracle's threshold); the other fields say what else to store
/// (the cover), how fast to build it (threads, which do not change the
/// output) and when to give up.
struct PipelineOptions {
  uint32_t k = 1;
  /// Threads building per-component indexes (components are independent;
  /// a lone component hands them to its join instead). 0 = hardware
  /// concurrency. The output is identical for every thread count.
  uint32_t num_threads = 1;
  /// Cover threshold of the score substrate. NaN (the default) means the
  /// oracle's threshold: the substrate serves that threshold only and
  /// stores no reserve pairs. Set to a threshold at least as strict as the
  /// oracle's (>= r for similarity metrics, <= r for distance metrics) and
  /// the pair sweep also stores, with its score, every pair similar at the
  /// oracle's threshold but dissimilar at this cover: the prepared
  /// workspace then serves ANY threshold between the two as a pure score
  /// filter — the "prepare once at the loosest grid threshold, derive
  /// every (k,r) cell" substrate.
  double score_cover = std::numeric_limits<double>::quiet_NaN();
  /// Wall-clock budget for the pair sweep itself: the O(n^2) evaluation can
  /// be long, so the mining entry points forward their deadline here and
  /// expiry yields DeadlineExceeded.
  Deadline deadline;
};

/// The preparation a mining call with `options` (EnumOptions or MaxOptions)
/// runs at `k`: the search's resolved thread count and deadline. The cold entry points and the parameter sweep both prepare
/// through this, so their substrates cannot drift.
template <typename MiningOptions>
PipelineOptions MiningPipelineOptions(const MiningOptions& options,
                                      uint32_t k) {
  PipelineOptions pipe;
  pipe.k = k;
  pipe.num_threads = options.parallel.Resolve();
  pipe.deadline = options.deadline;
  return pipe;
}

/// Accounting emitted by PrepareComponents: how much similarity work the
/// preprocessing did and how big the resulting substrate is.
struct PreprocessReport {
  uint64_t components = 0;
  uint64_t vertices = 0;          // across surviving components
  uint64_t edges = 0;             // structure edges across components
  /// Intra-component unordered pairs the join had to settle (the full pair
  /// space, for every strategy).
  uint64_t pairs_evaluated = 0;
  /// Pairs the join filter emitted for individual verification (equals
  /// pairs_evaluated on the brute path).
  uint64_t candidate_pairs = 0;
  /// Pairs settled by a certified bound with no metric evaluation
  /// (0 on the brute path). pruned_pairs + oracle_calls == pairs_evaluated.
  uint64_t pruned_pairs = 0;
  /// Metric evaluations actually performed by the join.
  uint64_t oracle_calls = 0;
  uint64_t dissimilar_pairs = 0;  // pairs that violated r
  /// Reserve pairs stored by a preparation with a cover: similar at the
  /// serving threshold but dissimilar at the cover threshold, kept so any
  /// threshold in between is a pure score filter of this substrate.
  uint64_t reserve_pairs = 0;
  /// Stored scores consulted by a threshold-restricting derivation (0 for
  /// fresh preparations and k-only derivations).
  uint64_t score_filtered_pairs = 0;
  /// dissimilar_pairs / pairs_evaluated (0 when nothing was evaluated).
  double dissimilar_density = 0.0;
  uint64_t index_bytes = 0;       // final CSR + score footprint
  /// Estimated peak transient footprint: final indexes plus the largest
  /// concurrent builder pair buffer.
  uint64_t peak_bytes = 0;
  double seconds = 0.0;

  std::string ToJson() const { return FieldsJson(*this); }

  static constexpr auto Fields() {
    using S = PreprocessReport;
    return std::tuple{
        Field{"components", &S::components},
        Field{"vertices", &S::vertices},
        Field{"edges", &S::edges},
        Field{"pairs_evaluated", &S::pairs_evaluated},
        Field{"candidate_pairs", &S::candidate_pairs},
        Field{"pruned_pairs", &S::pruned_pairs},
        Field{"oracle_calls", &S::oracle_calls},
        Field{"dissimilar_pairs", &S::dissimilar_pairs},
        Field{"reserve_pairs", &S::reserve_pairs},
        Field{"score_filtered_pairs", &S::score_filtered_pairs},
        Field{"dissimilar_density", &S::dissimilar_density},
        Field{"index_bytes", &S::index_bytes},
        Field{"peak_bytes", &S::peak_bytes},
        Field{"seconds", &S::seconds},
    };
  }
};

/// Runs the shared preprocessing of Algorithm 1 (lines 1-4): removes edges
/// between dissimilar endpoints, extracts the k-core, splits into connected
/// components and materializes per-component dissimilarity with the
/// similarity self-join. Any component size is accepted: the join streams
/// its pairs. `report`, when non-null, receives the work and memory
/// accounting of the run.
Status PrepareComponents(const Graph& g, const SimilarityOracle& oracle,
                         const PipelineOptions& options,
                         std::vector<ComponentContext>* out,
                         PreprocessReport* report);

/// Overload without report collection.
Status PrepareComponents(const Graph& g, const SimilarityOracle& oracle,
                         const PipelineOptions& options,
                         std::vector<ComponentContext>* out);

/// The full PrepareComponents output bundled with its identity — the (k, r)
/// pair it was prepared for. This is the unit the snapshot layer serializes
/// (src/snapshot/workspace_snapshot.h) and the parameter-sweep engine caches:
/// both answer mining calls without re-running the O(n^2) similarity sweep.
///
/// A workspace prepared at (k, r) serves any query at (k' >= k, r): the
/// k'-core of the similarity-filtered graph is contained in the k-core, so
/// components at k' are induced sub-components of the cached ones
/// (DeriveWorkspace), and their dissimilarity rows are restrictions of the
/// cached rows — no oracle calls needed.
///
/// A workspace whose `score_cover` is stricter than its `threshold`
/// additionally serves an r dimension: it is prepared at the loosest
/// threshold of a grid (largest filtered graph, hence largest k-core —
/// every stricter cell's vertices are contained in it) and its reserve
/// rows carry the raw metric score of every pair similar at `threshold`
/// but dissimilar at `score_cover`, the strictest grid threshold. Any
/// (k' >= k, r' between threshold and score_cover) is then derived with
/// zero oracle calls: score-filter the structure edges and reserve rows at
/// r', re-peel the k'-core.
/// Owner of an open snapshot file's bytes (mmap or aligned heap fallback);
/// defined in snapshot/mapped_file.h. PreparedWorkspace holds it as an
/// opaque lifetime anchor so borrowed component views stay valid for as
/// long as the workspace (or any copy of it) lives.
class SnapshotMapping;

struct PreparedWorkspace {
  /// The k the components were extracted at (queries need k' >= k).
  uint32_t k = 0;
  /// The similarity threshold r baked into the substrate (the edge filter
  /// and the active dissimilarity rows).
  double threshold = 0.0;
  /// Strictest threshold the reserve rows cover; == threshold when the
  /// workspace serves only its exact r (a point serving interval, empty
  /// reserve rows).
  double score_cover = 0.0;
  /// Metric direction the thresholds are ordered under (distance: similar
  /// means score <= r). Needed to orient the serve..cover interval.
  bool is_distance = false;
  /// Monotonically increasing graph version: 0 for a fresh preparation,
  /// bumped once per ApplyEdgeUpdates batch (core/workspace_update.h) and
  /// persisted by the snapshot layer, so serving tiers can tell which edge
  /// state a saved substrate reflects. Derived workspaces inherit the
  /// version of their base.
  uint64_t version = 0;
  std::vector<ComponentContext> components;
  /// Lifetime anchor for mmap-backed components (null for in-memory
  /// builds): the components' spans point into this mapping's bytes.
  std::shared_ptr<const SnapshotMapping> backing;

  VertexId num_vertices() const {
    VertexId n = 0;
    for (const auto& c : components) n += c.size();
    return n;
  }

  /// Forces every component's deferred validation now (a lazy load's way
  /// of opting back into eager integrity semantics); first failure wins.
  Status EnsureAllValid() const {
    for (const auto& c : components) {
      if (Status s = c.EnsureValid(); !s.ok()) return s;
    }
    return Status::OK();
  }

  /// True iff a (query_k, query_r) cell can be served from this workspace:
  /// query_k >= k, and query_r lies in the serve..cover interval.
  bool Serves(uint32_t query_k, double query_r) const {
    return query_k >= k &&
           ThresholdAtLeastAsStrict(query_r, threshold, is_distance) &&
           ThresholdAtLeastAsStrict(score_cover, query_r, is_distance);
  }

  /// The serving interval for messages: "r in [lo, hi]" with lo <= hi
  /// (threshold..cover for similarity metrics, cover..threshold for
  /// distance metrics).
  std::string ServingRange() const;
};

/// PrepareComponents + identity stamping: prepares a workspace for
/// (options.k, oracle.threshold()) that can be saved, cached, and served.
/// With options.score_cover set, the same single pair sweep additionally
/// stores reserve pairs with their scores up to the cover threshold,
/// producing a workspace whose Serves() interval spans serve..cover.
Status PrepareWorkspace(const Graph& g, const SimilarityOracle& oracle,
                        const PipelineOptions& options, PreparedWorkspace* out,
                        PreprocessReport* report = nullptr);

/// Derives the workspace at (`k` >= base.k, `r` inside base's serving
/// interval) from `base` purely structurally, with zero similarity-oracle
/// calls — this is what collapses a (k,r) grid sweep to one pair sweep.
///
/// Derivation only removes vertices and reclassifies stored pairs: the
/// k'-core of the filtered graph nests inside the cached k-core (Sec 4.1),
/// and a pair dissimilar at the base threshold stays dissimilar at any
/// stricter r. So each cached component is derived in one pass that writes
/// both output CSRs directly, with no edge list, pair buffer or sort:
///
///  1. filter: drop each structure edge whose stored (reserve) score is
///     dissimilar at `r`, by merging the row with its id-sorted reserve row;
///  2. peel: queue-peel the k-core on the filtered degrees;
///  3. split: label the survivors' components by DFS and number each one's
///     vertices in ascending parent id, so the remap is monotone and every
///     copied row stays sorted;
///  4. write: copy the structure rows and the dissimilarity rows into
///     exactly sized arrays. A row's active row is its surviving active
///     entries merged with the reserve entries dissimilar at `r`; the
///     reserve row keeps the rest, scores carried verbatim.
///
/// Components are then ordered by SortComponents, so a derived workspace is
/// identical to a cold preparation at (k, r) with the base's score_cover —
/// reserve rows and scores included — and mines byte-identically. Scratch
/// is local to the call, so concurrent derivations from one base are safe.
/// `report` (optional) accounts the derived substrate: pairs_evaluated
/// stays 0, and score_filtered_pairs counts the base reserve pairs whose
/// endpoints land in one derived component (each unordered pair once; 0
/// when r is the base threshold). Fails with InvalidArgument when k <
/// base.k or r is outside the base's serving interval.
Status DeriveWorkspace(const PreparedWorkspace& base, uint32_t k, double r,
                       const PipelineOptions& options, PreparedWorkspace* out,
                       PreprocessReport* report = nullptr);

/// k-only overload: derives at the base's own threshold.
Status DeriveWorkspace(const PreparedWorkspace& base, uint32_t k,
                       const PipelineOptions& options, PreparedWorkspace* out,
                       PreprocessReport* report = nullptr);

}  // namespace krcore

#endif  // KRCORE_CORE_PIPELINE_H_
