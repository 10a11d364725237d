#ifndef KRCORE_SIMILARITY_THRESHOLD_H_
#define KRCORE_SIMILARITY_THRESHOLD_H_

#include <cstdint>

#include "similarity/similarity_oracle.h"
#include "util/status.h"

namespace krcore {

/// Calibrates the paper's "r = top x per-mille" thresholds: the similarity
/// value at the top `permille`/1000 quantile of the pairwise similarity
/// distribution, estimated from `num_samples` uniformly random vertex pairs.
///
/// The paper (Sec 8.1) uses this for DBLP and Pokec, whose pairwise
/// similarity distributions are highly skewed: "top 3 permille" denotes the
/// threshold that only 3 in 1000 random pairs meet. Deterministic given
/// `seed`.
///
/// Preconditions (checked; a violation aborts): `num_vertices >= 2` and
/// `permille` strictly between 0 and 1000. Validate a user-supplied value
/// with CheckPermille first.
double TopPermilleThreshold(const SimilarityOracle& oracle,
                            VertexId num_vertices, double permille,
                            uint64_t num_samples = 200000,
                            uint64_t seed = 42);

/// InvalidArgument unless 0 < `permille` < 1000, the range
/// TopPermilleThreshold accepts.
Status CheckPermille(double permille);

}  // namespace krcore

#endif  // KRCORE_SIMILARITY_THRESHOLD_H_
