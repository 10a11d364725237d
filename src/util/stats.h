#ifndef KRCORE_UTIL_STATS_H_
#define KRCORE_UTIL_STATS_H_

#include <vector>

namespace krcore {

/// Exact quantile over a materialized sample (used for the paper's
/// "top x per-mille of the pairwise similarity distribution" thresholds).
/// `q` in [0,1]; q=0 -> min, q=1 -> max. Sorts a copy.
double Quantile(std::vector<double> values, double q);

}  // namespace krcore

#endif  // KRCORE_UTIL_STATS_H_
