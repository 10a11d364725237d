#ifndef KRCORE_SIMILARITY_JOIN_SELF_JOIN_H_
#define KRCORE_SIMILARITY_JOIN_SELF_JOIN_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <span>

#include "core/dissimilarity_index.h"
#include "graph/graph.h"
#include "similarity/similarity_oracle.h"
#include "util/timer.h"

namespace krcore {

/// Pair-discovery strategy for the similarity self-join that materializes a
/// component's dissimilarity rows.
///
///  - kBrute: the tiled O(n^2) sweep — one oracle call per pair. Retained as
///    the baseline and as the differential-testing oracle for the filters.
///  - kFiltered: filter-and-verify — a per-metric PairFilter partitions the
///    pair space and settles most pairs with a certified bound (a grid with
///    bounding-box certificates for Euclidean distance; inverted-index
///    prefix/size/disjointness certificates for the token metrics); only the
///    surviving candidates are verified through SimilarityOracle::Score.
///    Where no certified filter applies (no attribute table or a metric/
///    attribute-kind mismatch) the engine falls back to brute, so kFiltered
///    is always safe to request. It is the default, and the only strategy
///    the library's preparation and update paths request.
///
/// Every strategy produces the identical pair set with bit-identical stored
/// scores: filters may only skip a pair with a certified threshold verdict
/// (conservative margins push anything near the threshold to verification),
/// so the brute/filtered choice is purely a performance knob.
enum class JoinStrategy : uint8_t { kBrute, kFiltered };

/// Options for one SelfJoinPairs call.
struct SelfJoinOptions {
  JoinStrategy strategy = JoinStrategy::kFiltered;

  /// Cover threshold, at least as strict as the oracle's; NaN (default)
  /// means the oracle's threshold, which stores no reserve pairs. Mirrors
  /// PipelineOptions::score_cover: every pair similar at the oracle's
  /// threshold but dissimilar at this cover is stored with its exact
  /// oracle score, so a filter may only skip pairs it can certify similar
  /// at the *cover* threshold.
  double score_cover = std::numeric_limits<double>::quiet_NaN();

  /// Rows per tile of the brute path: tiles keep both attribute ranges hot
  /// in cache. Every caller in the library uses this default.
  VertexId tile_size = 4096;

  /// Worker threads for the filtered join's partition-parallel phase
  /// (emission into per-task buffers, merged deterministically). 1 =
  /// sequential; 0 is treated as 1. The brute path is always sequential —
  /// callers parallelize it across components instead.
  uint32_t num_threads = 1;

  /// Wall-clock budget, polled every few thousand pair operations.
  Deadline deadline;
};

/// Work accounting for one self-join. pruned_pairs + oracle_calls ==
/// total_pairs on every completed (non-aborted) join, for every strategy.
struct JoinReport {
  /// n * (n - 1) / 2 — the full pair space of the member set.
  uint64_t total_pairs = 0;
  /// Pairs the filter could not certify at the index level and emitted for
  /// individual verification (== total_pairs on the brute path).
  uint64_t candidate_pairs = 0;
  /// Pairs settled by a certified bound without a metric evaluation —
  /// whole-partition similarity skips plus per-pair dissimilarity
  /// certificates (0 on the brute path).
  uint64_t pruned_pairs = 0;
  /// Metric evaluations actually performed (<= candidate_pairs: a per-pair
  /// certificate can still settle an emitted candidate).
  uint64_t oracle_calls = 0;
  /// True when a certified filter ran (false = brute, requested or fallen
  /// back to).
  bool filtered = false;
  /// True when the abort was caused by the 'join/pairs' failpoint rather
  /// than deadline expiry, so callers can map it to Internal instead of
  /// DeadlineExceeded. Only meaningful when the join aborted.
  bool injected_fault = false;

  void MergeFrom(const JoinReport& other) {
    total_pairs += other.total_pairs;
    candidate_pairs += other.candidate_pairs;
    pruned_pairs += other.pruned_pairs;
    oracle_calls += other.oracle_calls;
    filtered = filtered || other.filtered;
    injected_fault = injected_fault || other.injected_fault;
  }
};

/// Discovers every stored pair among `members` (local id = position in
/// the span, attribute/oracle id = the stored VertexId) and records it into
/// `builder`, under one rule for every cover: AddPair for each pair
/// dissimilar at the oracle's threshold (certified or scored), and
/// AddReservePair with the exact oracle score for each pair similar there
/// but dissimilar at the cover threshold. Any other pair is not stored.
///
/// On deadline expiry (or when *aborted is already set by another worker)
/// the join stops early, sets *aborted, and the builder's contents must be
/// discarded. Returns the work accounting either way.
JoinReport SelfJoinPairs(const SimilarityOracle& oracle,
                         std::span<const VertexId> members,
                         const SelfJoinOptions& options,
                         std::atomic<bool>* aborted,
                         DissimilarityIndex::Builder* builder);

}  // namespace krcore

#endif  // KRCORE_SIMILARITY_JOIN_SELF_JOIN_H_
