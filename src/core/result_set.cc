#include "core/result_set.h"

#include <algorithm>

namespace krcore {

size_t ResultSet::Hash(const VertexSet& s) {
  // FNV-1a over the id stream.
  uint64_t h = 1469598103934665603ull;
  for (VertexId v : s) {
    h ^= v;
    h *= 1099511628211ull;
  }
  return static_cast<size_t>(h);
}

bool ResultSet::Insert(VertexSet core) {
  const size_t h = Hash(core);
  auto [first, last] = index_.equal_range(h);
  for (auto it = first; it != last; ++it) {
    if (cores_[it->second] == core) return false;
  }
  index_.emplace(h, cores_.size());
  cores_.push_back(std::move(core));
  return true;
}

void ResultSet::Reindex() {
  index_.clear();
  for (size_t i = 0; i < cores_.size(); ++i) index_.emplace(Hash(cores_[i]), i);
}

bool IsSubsetOf(const VertexSet& a, const VertexSet& b) {
  if (a.size() > b.size()) return false;
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

void ResultSet::FilterNonMaximal() {
  // Sort by size descending so a core can only be contained in earlier ones.
  std::stable_sort(cores_.begin(), cores_.end(),
                   [](const VertexSet& a, const VertexSet& b) {
                     return a.size() > b.size();
                   });
  std::vector<VertexSet> kept;
  for (auto& core : cores_) {
    bool contained = false;
    for (const auto& big : kept) {
      if (big.size() > core.size() && IsSubsetOf(core, big)) {
        contained = true;
        break;
      }
    }
    if (!contained) kept.push_back(std::move(core));
  }
  cores_ = std::move(kept);
  Reindex();
}

std::vector<VertexSet> ResultSet::TakeSorted() {
  std::sort(cores_.begin(), cores_.end());
  index_.clear();
  return std::move(cores_);
}

}  // namespace krcore
