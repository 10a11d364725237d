#ifndef KRCORE_SIMILARITY_JOIN_PAIR_FILTER_H_
#define KRCORE_SIMILARITY_JOIN_PAIR_FILTER_H_

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/dissimilarity_index.h"
#include "graph/graph.h"
#include "similarity/join/self_join.h"
#include "similarity/similarity_oracle.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace krcore {

/// Conservative margins for certified threshold verdicts. A certificate is
/// only sound if the *oracle's floating-point verdict* on the pair is the
/// certified one, so every bound is tightened by a relative margin that
/// strictly dominates the accumulated rounding error of both the bound
/// computation and the metric evaluation (a handful of ulps, ~1e-15
/// relative). Pairs inside the margin are not mis-certified — they simply
/// become candidates and get the oracle's own verdict, which is what keeps
/// filtered joins bit-identical to brute force.
///
///  - kGeoCertifyMargin guards squared-distance bounds built from
///    coordinate min/max boxes (a few subtractions and multiplies).
///  - kSetCertifyMargin guards the exact-cardinality Jaccard size bound
///    (one integer-to-double divide).
///  - kWeightCertifyMargin guards bounds built from cached floating-point
///    norm sums, whose error grows with vector length; 1e-9 dominates the
///    summation error of any vector shorter than ~1e6 terms.
inline constexpr double kGeoCertifyMargin = 1e-9;
inline constexpr double kSetCertifyMargin = 1e-12;
inline constexpr double kWeightCertifyMargin = 1e-9;

/// The verification sink a PairFilter emits into. The sink owns the oracle
/// calls, the serve/cover classification (identical to the brute sweep's),
/// the work counters, and the deadline poll; the filter's only job is to
/// route every unordered pair {a, b} of its partition range into exactly
/// one of:
///
///  - Candidate(a, b): could not certify — the sink evaluates the oracle
///    and classifies exactly like the brute sweep: dissimilar at serve is
///    an active pair, similar at serve but dissimilar at cover a reserve
///    pair with its score, anything else is not stored.
///  - CertifiedDissimilar(a, b): certified dissimilar at the serving
///    threshold — an active pair, which carries no score.
///  - SkipSimilar(count): `count` pairs certified similar at the cover
///    threshold — the one verdict under which the brute sweep stores
///    nothing. This is the O(1)-per-partition bulk skip that makes the join
///    sub-brute.
///
/// A sink writes either directly into the builder (sequential join) or
/// into a local replay buffer (one sink per parallel task; buffers are
/// replayed into the builder in partition order, and the final index is
/// order-independent anyway because Builder::Build sorts each row).
class PairSink {
 public:
  /// One buffered pair: a reserve pair when `score` is not NaN, an active
  /// pair otherwise (a reserve score is a finite oracle value).
  struct Rec {
    VertexId a;
    VertexId b;
    double score;
  };

  PairSink(const SimilarityOracle& oracle, std::span<const VertexId> members,
           double cover, const Deadline& deadline, std::atomic<bool>* aborted,
           DissimilarityIndex::Builder* builder, std::vector<Rec>* buffer)
      : oracle_(oracle),
        members_(members),
        cover_(cover),
        is_distance_(oracle.is_distance()),
        deadline_(deadline),
        aborted_(aborted),
        builder_(builder),
        buffer_(buffer) {}

  void Candidate(VertexId a, VertexId b) {
    ++report_.candidate_pairs;
    ++report_.oracle_calls;
    const double s = oracle_.Score(members_[a], members_[b]);
    if (!oracle_.SimilarAt(s)) {
      Emit(a, b, kNoScore);
    } else if (!ScoreSimilarUnder(s, cover_, is_distance_)) {
      Emit(a, b, s);
    }
    CountOp();
  }

  void CertifiedDissimilar(VertexId a, VertexId b) {
    ++report_.pruned_pairs;
    Emit(a, b, kNoScore);
    CountOp();
  }

  void SkipSimilar(uint64_t count) {
    report_.pruned_pairs += count;
    CountOp();
  }

  /// True once the deadline expired or another worker aborted; filters
  /// should bail out of their partition loop when this turns true. Checked
  /// lazily (every few thousand sink operations), so it is cheap to consult
  /// per partition or per row.
  bool aborted() const { return local_abort_; }

  const JoinReport& report() const { return report_; }
  JoinReport* mutable_report() { return &report_; }

  /// Records `rec` into `builder`: the replay half of a buffered sink.
  static void Replay(const Rec& rec, DissimilarityIndex::Builder* builder) {
    if (std::isnan(rec.score)) {
      builder->AddPair(rec.a, rec.b);
    } else {
      builder->AddReservePair(rec.a, rec.b, rec.score);
    }
  }

 private:
  static constexpr double kNoScore = std::numeric_limits<double>::quiet_NaN();

  void Emit(VertexId a, VertexId b, double score) {
    if (a > b) std::swap(a, b);  // filters may discover pairs in either order
    if (builder_ != nullptr) {
      Replay({a, b, score}, builder_);
    } else {
      buffer_->push_back({a, b, score});
    }
  }

  void CountOp() {
    if (++since_poll_ >= kPollInterval) {
      since_poll_ = 0;
      if (Failpoints::ShouldFail("join/pairs")) {
        report_.injected_fault = true;
        aborted_->store(true, std::memory_order_relaxed);
        local_abort_ = true;
        return;
      }
      if (aborted_->load(std::memory_order_relaxed) || deadline_.Expired()) {
        aborted_->store(true, std::memory_order_relaxed);
        local_abort_ = true;
      }
    }
  }

  static constexpr uint64_t kPollInterval = 8192;

  const SimilarityOracle& oracle_;
  std::span<const VertexId> members_;
  const double cover_;
  const bool is_distance_;
  const Deadline& deadline_;
  std::atomic<bool>* aborted_;
  DissimilarityIndex::Builder* builder_;  // exactly one of builder_/buffer_
  std::vector<Rec>* buffer_;
  JoinReport report_;
  uint64_t since_poll_ = 0;
  bool local_abort_ = false;
};

/// A certified pair filter over a fixed member set: partitions the n(n-1)/2
/// pair space into NumPartitions() independent slices and routes every pair
/// of a slice into the sink exactly once. Construction (the factory) does
/// any sequential indexing work (grid binning, inverted-index build);
/// Run() is const and safe to call concurrently on disjoint ranges.
class PairFilter {
 public:
  virtual ~PairFilter() = default;
  virtual uint32_t NumPartitions() const = 0;
  /// Processes partitions [begin, end); each unordered pair of the member
  /// set is covered by exactly one partition across the whole range
  /// [0, NumPartitions()).
  virtual void Run(uint32_t begin, uint32_t end, PairSink* sink) const = 0;
  /// Relative cost estimate for one partition, used to cut the partition
  /// range into balanced parallel chunks (partitions that compare against
  /// every later one are front-loaded, so equal-count chunks skew badly).
  virtual uint64_t PartitionCost(uint32_t partition) const {
    (void)partition;
    return 1;
  }
};

/// Grid filter for kEuclideanDistance over geo attributes; nullptr when the
/// configuration is outside its certificate domain (non-geo attributes or a
/// non-finite/negative threshold). Pairs are certified dissimilar at
/// `serve_threshold` and certified similar (skipped) at `cover_threshold`,
/// the loosest verdict under which a pair is not stored.
std::unique_ptr<PairFilter> MakeGridPairFilter(
    const AttributeTable& attributes, std::span<const VertexId> members,
    double serve_threshold, double cover_threshold);

/// Prefix/size/disjointness filter for the token metrics (kJaccard,
/// kWeightedJaccard, kCosine) over vector attributes; nullptr outside its
/// certificate domain (non-vector attributes, or a threshold <= 0 or > 1
/// for which token overlap certifies nothing). It certifies dissimilarity
/// at the serving threshold only, so every pair it cannot settle — reserve
/// pairs included — is a candidate.
std::unique_ptr<PairFilter> MakeTokenPairFilter(
    const AttributeTable& attributes, std::span<const VertexId> members,
    Metric metric, double serve_threshold);

}  // namespace krcore

#endif  // KRCORE_SIMILARITY_JOIN_PAIR_FILTER_H_
