#ifndef KRCORE_DATASETS_DATASET_SPEC_H_
#define KRCORE_DATASETS_DATASET_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datasets/dataset.h"
#include "util/status.h"

namespace krcore {

/// Heavy-tailed attributed graph (ROADMAP item 3): Chung–Lu edges over
/// power-law vertex weights — a few hub vertices take a large share of the
/// endpoints — combined with clustered attributes: vertices belong to one
/// of `num_clusters` clusters, each owning a keyword block, and draw most
/// of their keywords from their own block. The result is the adversarial
/// profile the community-shaped generators above deliberately avoid: degree
/// skew UNCORRELATED with attribute similarity, so similarity filtering
/// cannot lean on the hubs — and an update stream over it keeps touching
/// the same few hub adjacencies, which is exactly the churn profile the
/// ingestion coalescer exists for (perfbench serve-live runs on it).
struct SkewedConfig {
  uint32_t num_vertices = 20000;
  double average_degree = 8.0;
  /// Power-law exponent of the weight sequence w_u ∝ (u+1)^{-1/(skew-1)}
  /// (the degree distribution then follows a power law with this exponent;
  /// must be > 1, smaller = heavier tail).
  double degree_skew = 2.2;
  uint32_t num_clusters = 50;
  /// Probability an edge's second endpoint is drawn from the first
  /// endpoint's cluster instead of globally (clustering in the graph).
  double intra_cluster_edge_fraction = 0.6;
  /// Keyword universe: each cluster owns `keywords_per_cluster` dedicated
  /// keywords; a vertex draws `keywords_per_vertex` terms, each from its
  /// own cluster's block with probability `intra_cluster_keyword_fraction`
  /// and uniformly from the whole universe otherwise (clustering in the
  /// attributes; similarity is weighted Jaccard).
  uint32_t keywords_per_cluster = 12;
  uint32_t keywords_per_vertex = 10;
  double intra_cluster_keyword_fraction = 0.8;
  uint64_t seed = 11;
};

Dataset MakeSkewed(const SkewedConfig& config,
                   const std::string& name = "skewed");

/// A dataset named by (kind, scale, seed) — the factory handle benches and
/// tools pass around instead of generator-specific config structs. Kinds:
/// the four paper analogues ("brightkite", "gowalla", "dblp", "pokec"),
/// "random" (uniform Erdos–Renyi control) and "skewed" (power-law degree +
/// clustered attributes, above). `scale` multiplies the kind's base vertex
/// count (1.0 ≈ 20k vertices for the synthetic kinds).
struct DatasetSpec {
  std::string kind = "skewed";
  double scale = 1.0;
  uint64_t seed = 1;
};

/// Builds the dataset `spec` names. InvalidArgument for unknown kinds and
/// non-positive scales, naming the valid kinds.
Status MakeDataset(const DatasetSpec& spec, Dataset* out);

/// The kinds MakeDataset accepts, in listing order.
std::vector<std::string> DatasetSpecKinds();

}  // namespace krcore

#endif  // KRCORE_DATASETS_DATASET_SPEC_H_
