#ifndef KRCORE_CORE_PREPROCESS_OPTIONS_H_
#define KRCORE_CORE_PREPROCESS_OPTIONS_H_

#include <cstdint>
#include <string>

#include "graph/graph.h"
#include "util/timer.h"

namespace krcore {

/// Shared configuration for the Algorithm 1 preprocessing (dissimilar-edge
/// removal -> k-core -> components -> dissimilarity materialization).
/// Embedded by PipelineOptions, EnumOptions, MaxOptions and
/// CliqueMethodOptions so the knobs cannot drift between entry points.
struct PreprocessOptions {
  /// Optional hard guard on the number of pairwise similarity evaluations
  /// (sum over components of |comp|^2 / 2). 0 — the default — means
  /// unlimited: the blocked builder streams pairs tile by tile, so large
  /// components no longer require a refusal. Set a positive value to get
  /// the legacy ResourceExhausted behavior for latency-bound callers.
  uint64_t max_pair_budget = 0;

  /// Rows per tile in the blocked pair evaluation. Tiles keep both
  /// attribute ranges hot in cache during the O(n^2) similarity sweep.
  VertexId tile_size = 4096;

  /// Threads used to build per-component indexes (components are
  /// independent). 0 = hardware concurrency. Entry points that own a
  /// ParallelOptions propagate their resolved thread count here.
  uint32_t num_threads = 1;
};

/// Accounting emitted by PrepareComponents: how much similarity work the
/// preprocessing did and how big the resulting substrate is. Mirrors the
/// spec/report pattern of the sjs generator (SNIPPETS.md) — every expensive
/// preparation step reports what it actually built.
struct PreprocessReport {
  uint64_t components = 0;
  uint64_t vertices = 0;          // across surviving components
  uint64_t edges = 0;             // structure edges across components
  /// Intra-component unordered pairs the join had to settle (the full pair
  /// space, for every strategy). Before the filter-and-verify join this was
  /// also the number of metric evaluations; oracle_calls now counts those.
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
  /// Reserve pairs stored by a score-annotated preparation: similar at the
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

  std::string ToString() const;
};

}  // namespace krcore

#endif  // KRCORE_CORE_PREPROCESS_OPTIONS_H_
