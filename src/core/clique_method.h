#ifndef KRCORE_CORE_CLIQUE_METHOD_H_
#define KRCORE_CORE_CLIQUE_METHOD_H_

#include "core/krcore_types.h"
#include "graph/graph.h"
#include "similarity/similarity_oracle.h"
#include "util/timer.h"

namespace krcore {

struct CliqueMethodOptions {
  uint32_t k = 3;
  Deadline deadline;
};

/// The improved clique-based baseline of Sec 3 (Clique+): after the shared
/// preprocessing (k-core of the dissimilar-edge-filtered graph, split into
/// components), the *similarity graph* of each component is materialized and
/// its maximal cliques are enumerated; the k-core of the structure subgraph
/// induced by each maximal clique yields candidate (k,r)-cores, which are
/// then maximal-filtered. All three Sec 3 improvements are included. The
/// paper shows this is dominated by BasicEnum (Fig 8); the bench reproduces
/// that comparison. Unlike the pipeline, it materializes each component's
/// whole similarity *graph* in memory, so inputs whose components hold more
/// than 64M vertex pairs in total fail with ResourceExhausted.
MaximalCoresResult EnumerateByCliqueMethod(const Graph& g,
                                           const SimilarityOracle& oracle,
                                           const CliqueMethodOptions& options);

}  // namespace krcore

#endif  // KRCORE_CORE_CLIQUE_METHOD_H_
