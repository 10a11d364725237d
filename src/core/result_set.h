#ifndef KRCORE_CORE_RESULT_SET_H_
#define KRCORE_CORE_RESULT_SET_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "core/krcore_types.h"

namespace krcore {

/// Collects discovered (k,r)-cores with deduplication (the same core can be
/// reached from several leaves of the set-enumeration tree) and offers the
/// naive maximal filter of Algorithm 1 lines 6-8 for algorithm variants that
/// lack the smart maximal check. Each core is stored once; the dedupe index
/// maps a core's hash to its position in cores().
class ResultSet {
 public:
  /// Inserts `core` (sorted vertex ids). Returns true if it was new.
  bool Insert(VertexSet core);

  size_t size() const { return cores_.size(); }
  const std::vector<VertexSet>& cores() const { return cores_; }

  /// Removes every core strictly contained in another (naive maximal
  /// filtering). Quadratic in the number of cores with linear subset tests
  /// on sorted sets.
  void FilterNonMaximal();

  /// Moves the cores out (sorted lexicographically for determinism).
  std::vector<VertexSet> TakeSorted();

 private:
  static size_t Hash(const VertexSet& s);
  /// Rebuilds index_ after cores_ was reordered or filtered.
  void Reindex();

  std::vector<VertexSet> cores_;
  std::unordered_multimap<size_t, size_t> index_;  // hash -> cores_ slot
};

/// True iff `a` is a subset of `b`; both sorted ascending.
bool IsSubsetOf(const VertexSet& a, const VertexSet& b);

}  // namespace krcore

#endif  // KRCORE_CORE_RESULT_SET_H_
