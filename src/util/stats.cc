#include "util/stats.h"

#include <algorithm>

#include "util/logging.h"

namespace krcore {

double Quantile(std::vector<double> values, double q) {
  KRCORE_CHECK(!values.empty());
  if (q <= 0.0) return *std::min_element(values.begin(), values.end());
  if (q >= 1.0) return *std::max_element(values.begin(), values.end());
  std::sort(values.begin(), values.end());
  double pos = q * (values.size() - 1);
  size_t idx = static_cast<size_t>(pos);
  double frac = pos - idx;
  if (idx + 1 >= values.size()) return values.back();
  return values[idx] * (1.0 - frac) + values[idx + 1] * frac;
}

}  // namespace krcore
