#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "similarity/join/pair_filter.h"

namespace krcore {
namespace {

/// AllPairs/PPJoin-style prefix filter for the token metrics, built on one
/// exact observation: if two vectors share no token at all, every token
/// metric evaluates to exactly 0.0 < t (for t > 0), so total disjointness
/// is a margin-free dissimilarity certificate. The prefix machinery turns
/// that into a cheap *partial*-disjointness certificate:
///
/// Tokens are globally ordered by ascending component frequency (rarest
/// first, ties by token id) and each vector's token list is sorted in that
/// order. Each vector indexes only a *prefix* of its list, sized so that a
/// similar pair must share a token inside both prefixes:
///
///  - kJaccard: a fl-similar pair has set overlap o >= t * max(|a|, |b|)
///    (up to rounding, absorbed by a conservative floor), so indexing the
///    first |a| - L + 1 tokens with L = conservative ceil(t * |a|) makes a
///    missed pair's overlap provably < L.
///  - kWeightedJaccard: sum-min over common tokens of a fl-similar pair is
///    >= t * max(l1(a), l1(b)) (with margin), and the common tokens of a
///    missed pair all sit in one side's indexed-suffix whose weight mass is
///    below that bound.
///  - kCosine: same with squared-weight mass, since the common-token dot
///    product is bounded by sqrt(suffix mass) * l2(other side).
///
/// The rarest-first order makes prefixes consist of the least frequent
/// tokens, so inverted-index postings stay short. Every pair not flagged
/// by the index probe is certified dissimilar and recorded without a
/// metric evaluation; flagged pairs pass through a per-pair size/norm
/// ratio certificate (Jaccard / weighted Jaccard) and only the survivors
/// reach the oracle. Partition = one row of the pair matrix.
///
/// A certified-dissimilar pair is an active pair, which carries no score,
/// so the filter runs unchanged when the join also keeps reserve pairs up
/// to a stricter cover threshold: those are similar at serve, hence always
/// flagged, and the oracle scores them as candidates.
class TokenPairFilter final : public PairFilter {
 public:
  TokenPairFilter(const AttributeTable& attrs,
                  std::span<const VertexId> members, Metric metric,
                  double threshold)
      : n_(static_cast<VertexId>(members.size())),
        metric_(metric),
        threshold_(threshold) {
    // Component-local token frequencies -> rarity ranks (dense, rarest 0).
    std::unordered_map<uint32_t, uint32_t> freq;
    for (VertexId u = 0; u < n_; ++u) {
      for (uint32_t term : attrs.vector(members[u]).terms()) ++freq[term];
    }
    std::vector<std::pair<uint32_t, uint32_t>> order;  // (freq, token)
    order.reserve(freq.size());
    for (const auto& [token, f] : freq) order.push_back({f, token});
    std::sort(order.begin(), order.end());
    std::unordered_map<uint32_t, uint32_t> rank;
    rank.reserve(order.size());
    for (uint32_t i = 0; i < order.size(); ++i) rank[order[i].second] = i;
    const uint32_t num_ranks = static_cast<uint32_t>(order.size());

    tok_offsets_.assign(n_ + 1, 0);
    prefix_len_.assign(n_, 0);
    size_key_.assign(n_, 0.0);
    std::vector<std::pair<uint32_t, double>> ranked;  // (rank, weight)
    std::vector<double> suffix_scratch;
    for (VertexId u = 0; u < n_; ++u) {
      const SparseVector& vec = attrs.vector(members[u]);
      const size_t sz = vec.size();
      ranked.clear();
      for (size_t i = 0; i < sz; ++i) {
        ranked.push_back({rank[vec.terms()[i]], vec.weights()[i]});
      }
      std::sort(ranked.begin(), ranked.end());
      for (const auto& rw : ranked) ranked_.push_back(rw.first);
      tok_offsets_[u + 1] = static_cast<uint32_t>(ranked_.size());
      prefix_len_[u] = PrefixLength(ranked, &suffix_scratch, &size_key_[u]);
    }

    // Inverted index over prefix tokens, CSR by rank; iterating vertices
    // in ascending id keeps each posting list sorted.
    post_offsets_.assign(num_ranks + 1, 0);
    for (VertexId u = 0; u < n_; ++u) {
      const uint32_t b = tok_offsets_[u];
      for (uint32_t i = b; i < b + prefix_len_[u]; ++i) {
        ++post_offsets_[ranked_[i] + 1];
      }
    }
    for (size_t r = 1; r < post_offsets_.size(); ++r) {
      post_offsets_[r] += post_offsets_[r - 1];
    }
    postings_.resize(post_offsets_.back());
    std::vector<uint32_t> fill(post_offsets_.begin(),
                               post_offsets_.end() - 1);
    for (VertexId u = 0; u < n_; ++u) {
      const uint32_t b = tok_offsets_[u];
      for (uint32_t i = b; i < b + prefix_len_[u]; ++i) {
        postings_[fill[ranked_[i]]++] = u;
      }
    }
  }

  uint32_t NumPartitions() const override { return n_; }

  uint64_t PartitionCost(uint32_t partition) const override {
    return 1 + (n_ - partition);
  }

  void Run(uint32_t begin, uint32_t end, PairSink* sink) const override {
    std::vector<uint8_t> flag(n_, 0);
    std::vector<VertexId> touched;
    const bool use_size = metric_ == Metric::kJaccard ||
                          metric_ == Metric::kWeightedJaccard;
    const double size_margin = metric_ == Metric::kJaccard
                                   ? kSetCertifyMargin
                                   : kWeightCertifyMargin;
    const double size_bound = threshold_ * (1.0 - size_margin);
    for (VertexId a = begin; a < static_cast<VertexId>(end); ++a) {
      if (sink->aborted()) return;
      const uint32_t tb = tok_offsets_[a];
      for (uint32_t i = tb; i < tb + prefix_len_[a]; ++i) {
        const uint32_t r = ranked_[i];
        auto first = postings_.begin() + post_offsets_[r];
        auto last = postings_.begin() + post_offsets_[r + 1];
        for (auto it = std::upper_bound(first, last, a); it != last; ++it) {
          if (!flag[*it]) {
            flag[*it] = 1;
            touched.push_back(*it);
          }
        }
      }
      const double ka = size_key_[a];
      for (VertexId b = a + 1; b < n_; ++b) {
        if (!flag[b]) {
          sink->CertifiedDissimilar(a, b);
          continue;
        }
        if (use_size) {
          const double kb = size_key_[b];
          const double lo = std::min(ka, kb);
          const double hi = std::max(ka, kb);
          // metric <= lo / hi, so lo < t * (1 - margin) * hi certifies the
          // oracle's verdict dissimilar (hi > 0: flagged pairs share a
          // token, so neither side is empty).
          if (lo < size_bound * hi) {
            sink->CertifiedDissimilar(a, b);
            continue;
          }
        }
        sink->Candidate(a, b);
      }
      for (VertexId b : touched) flag[b] = 0;
      touched.clear();
    }
  }

 private:
  /// Number of leading (rarest-first) tokens the vector must index so that
  /// any fl-similar partner is guaranteed to collide inside both prefixes.
  /// Also leaves the per-vertex size key (|a|, l1 or unused) behind.
  uint32_t PrefixLength(const std::vector<std::pair<uint32_t, double>>& toks,
                        std::vector<double>* scratch, double* size_key) const {
    const size_t sz = toks.size();
    if (sz == 0) return 0;  // empty vector: every metric scores exactly 0
    if (metric_ == Metric::kJaccard) {
      *size_key = static_cast<double>(sz);
      // Conservative floor: undershooting L only lengthens the prefix.
      const uint32_t overlap_needed = static_cast<uint32_t>(
          std::ceil(threshold_ * static_cast<double>(sz) *
                    (1.0 - kSetCertifyMargin)));
      return static_cast<uint32_t>(sz) - overlap_needed + 1;
    }
    // Weighted prefixes: index until the un-indexed suffix mass can no
    // longer carry a similar pair's common-token contribution.
    scratch->clear();
    double total = 0.0;
    if (metric_ == Metric::kWeightedJaccard) {
      for (const auto& rw : toks) scratch->push_back(rw.second);
    } else {  // kCosine
      for (const auto& rw : toks) scratch->push_back(rw.second * rw.second);
    }
    for (double v : *scratch) total += v;
    *size_key = metric_ == Metric::kWeightedJaccard ? total : 0.0;
    const double bound = threshold_ *
                         (metric_ == Metric::kWeightedJaccard
                              ? total
                              : threshold_ * total) *
                         (1.0 - kWeightCertifyMargin);
    double suffix = total;
    uint32_t p = 0;
    while (p < sz && suffix >= bound) {
      suffix -= (*scratch)[p];
      ++p;
    }
    return p;
  }

  VertexId n_;
  Metric metric_;
  double threshold_;
  std::vector<uint32_t> tok_offsets_;  // CSR into ranked_ by local id
  std::vector<uint32_t> ranked_;       // rank-sorted token ranks
  std::vector<uint32_t> prefix_len_;   // indexed prefix per local id
  std::vector<double> size_key_;       // |a| (Jaccard) / l1 (weighted)
  std::vector<uint32_t> post_offsets_;  // CSR by rank
  std::vector<VertexId> postings_;      // vertices indexing that rank
};

}  // namespace

std::unique_ptr<PairFilter> MakeTokenPairFilter(
    const AttributeTable& attributes, std::span<const VertexId> members,
    Metric metric, double serve_threshold) {
  if (attributes.kind() != AttributeTable::Kind::kVector) return nullptr;
  if (metric == Metric::kEuclideanDistance) return nullptr;
  if (!std::isfinite(serve_threshold) || serve_threshold <= 0.0 ||
      serve_threshold > 1.0) {
    return nullptr;
  }
  return std::make_unique<TokenPairFilter>(attributes, members, metric,
                                           serve_threshold);
}

}  // namespace krcore
