#ifndef KRCORE_KRCORE_H_
#define KRCORE_KRCORE_H_

/// Umbrella header for the krcore library: (k,r)-core computation on
/// attributed social networks, reproducing Zhang et al., "When Engagement
/// Meets Similarity: Efficient (k,r)-Core Computation on Social Networks"
/// (VLDB 2017).
///
/// Typical usage:
///
///   #include "krcore.h"
///
///   krcore::Graph g = ...;                       // graph/graph_builder.h
///   krcore::AttributeTable attrs = ...;          // similarity/attributes.h
///   krcore::SimilarityOracle oracle(&attrs, krcore::Metric::kJaccard, 0.6);
///
///   auto all = krcore::EnumerateMaximalCores(g, oracle,
///                                            krcore::AdvEnumOptions(5));
///   auto best = krcore::FindMaximumCore(g, oracle,
///                                       krcore::AdvMaxOptions(5));

#include "clique/bron_kerbosch.h"
#include "coloring/greedy_coloring.h"
#include "core/clique_method.h"
#include "core/dissimilarity_index.h"
#include "core/enumerate.h"
#include "core/krcore_types.h"
#include "core/maximum.h"
#include "core/naive_enum.h"
#include "core/parallel.h"
#include "core/parameter_sweep.h"
#include "core/pipeline.h"
#include "core/verify.h"
#include "datasets/generators.h"
#include "graph/connectivity.h"
#include "graph/graph.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "kcore/core_decomposition.h"
#include "similarity/attributes.h"
#include "similarity/metrics.h"
#include "similarity/similarity_oracle.h"
#include "similarity/threshold.h"
#include "snapshot/workspace_snapshot.h"
#include "util/status.h"
#include "util/timer.h"

#endif  // KRCORE_KRCORE_H_
