#include "similarity/threshold.h"

#include <vector>

#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"

namespace krcore {

double TopPermilleThreshold(const SimilarityOracle& oracle,
                            VertexId num_vertices, double permille,
                            uint64_t num_samples, uint64_t seed) {
  KRCORE_CHECK(num_vertices >= 2);
  KRCORE_CHECK(permille > 0.0 && permille < 1000.0);
  Rng rng(seed);
  std::vector<double> sample;
  sample.reserve(num_samples);
  for (uint64_t i = 0; i < num_samples; ++i) {
    VertexId u = static_cast<VertexId>(rng.NextBounded(num_vertices));
    VertexId v = static_cast<VertexId>(rng.NextBounded(num_vertices));
    while (v == u) v = static_cast<VertexId>(rng.NextBounded(num_vertices));
    sample.push_back(oracle.Value(u, v));
  }
  // "Top x permille" = only x/1000 of pairs qualify as similar. For a
  // similarity metric that is the (1 - x/1000) quantile; for a distance
  // metric, the x/1000 quantile (smaller is more similar).
  double q = oracle.is_distance() ? permille / 1000.0 : 1.0 - permille / 1000.0;
  return Quantile(std::move(sample), q);
}

Status CheckPermille(double permille) {
  if (permille > 0.0 && permille < 1000.0) return Status::OK();
  return Status::InvalidArgument(
      "permille must lie strictly between 0 and 1000");
}

}  // namespace krcore
