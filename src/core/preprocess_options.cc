#include "core/preprocess_options.h"

#include <cstdio>

namespace krcore {

std::string PreprocessReport::ToString() const {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "components=%llu vertices=%llu edges=%llu pairs_evaluated=%llu "
      "candidates=%llu pruned=%llu oracle_calls=%llu "
      "dissimilar_pairs=%llu reserve_pairs=%llu score_filtered=%llu "
      "density=%.4f index_bytes=%llu peak_bytes=%llu seconds=%.3f",
      (unsigned long long)components, (unsigned long long)vertices,
      (unsigned long long)edges, (unsigned long long)pairs_evaluated,
      (unsigned long long)candidate_pairs, (unsigned long long)pruned_pairs,
      (unsigned long long)oracle_calls,
      (unsigned long long)dissimilar_pairs, (unsigned long long)reserve_pairs,
      (unsigned long long)score_filtered_pairs, dissimilar_density,
      (unsigned long long)index_bytes, (unsigned long long)peak_bytes,
      seconds);
  return buf;
}

}  // namespace krcore
