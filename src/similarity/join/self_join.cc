#include "similarity/join/self_join.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/parallel.h"
#include "similarity/join/pair_filter.h"
#include "util/failpoint.h"

namespace krcore {

namespace {

/// The baseline: the tiled O(n^2) sweep, evaluating every pair through the
/// sink so classification, counters and the deadline poll are shared with
/// the filtered paths verbatim.
void BruteJoin(std::span<const VertexId> members, VertexId tile_size,
               PairSink* sink) {
  const VertexId n = static_cast<VertexId>(members.size());
  const VertexId tile = std::max<VertexId>(1, tile_size);
  for (VertexId a0 = 0; a0 < n; a0 += tile) {
    const VertexId a1 = std::min<VertexId>(a0 + tile, n);
    for (VertexId b0 = a0; b0 < n; b0 += tile) {
      const VertexId b1 = std::min<VertexId>(b0 + tile, n);
      for (VertexId a = a0; a < a1; ++a) {
        if (sink->aborted()) return;
        for (VertexId b = std::max<VertexId>(b0, a + 1); b < b1; ++b) {
          sink->Candidate(a, b);
        }
      }
    }
  }
}

/// Constructs the certified filter for the oracle's metric/attribute
/// configuration, or nullptr when none applies (-> brute fallback).
std::unique_ptr<PairFilter> MakeFilter(const SimilarityOracle& oracle,
                                       std::span<const VertexId> members,
                                       double cover) {
  const AttributeTable* attrs = oracle.attributes();
  if (attrs == nullptr) return nullptr;
  if (oracle.metric() == Metric::kEuclideanDistance) {
    return MakeGridPairFilter(*attrs, members, oracle.threshold(), cover);
  }
  return MakeTokenPairFilter(*attrs, members, oracle.metric(),
                             oracle.threshold());
}

/// Weight-balanced contiguous chunking of [0, parts): front partitions of
/// a triangular sweep cover more pairs, so equal-count chunks would leave
/// trailing workers idle.
std::vector<uint32_t> ChunkBoundaries(const PairFilter& filter,
                                      uint32_t parts, uint32_t num_chunks) {
  uint64_t total = 0;
  for (uint32_t i = 0; i < parts; ++i) total += filter.PartitionCost(i);
  std::vector<uint32_t> bounds;
  bounds.push_back(0);
  uint64_t acc = 0;
  uint32_t next_chunk = 1;
  for (uint32_t i = 0; i < parts && next_chunk < num_chunks; ++i) {
    acc += filter.PartitionCost(i);
    if (acc * num_chunks >= total * next_chunk) {
      bounds.push_back(i + 1);
      ++next_chunk;
    }
  }
  while (bounds.size() < num_chunks + 1u) bounds.push_back(parts);
  bounds.back() = parts;
  return bounds;
}

}  // namespace

JoinReport SelfJoinPairs(const SimilarityOracle& oracle,
                         std::span<const VertexId> members,
                         const SelfJoinOptions& options,
                         std::atomic<bool>* aborted,
                         DissimilarityIndex::Builder* builder) {
  const uint64_t n = members.size();
  JoinReport report;
  report.total_pairs = n < 2 ? 0 : n * (n - 1) / 2;
  if (n < 2) return report;
  // Entry poll: an already-expired budget must abort no matter how little
  // work the filters would need (a bulk certificate can settle the whole
  // pair space in fewer operations than one lazy poll interval). The
  // entry-level failpoint fires here for the same reason — a small join can
  // finish inside one lazy poll interval of the per-pair site.
  if (Failpoints::ShouldFail("join/self_join")) {
    report.injected_fault = true;
    aborted->store(true, std::memory_order_relaxed);
    return report;
  }
  if (aborted->load(std::memory_order_relaxed) || options.deadline.Expired()) {
    aborted->store(true, std::memory_order_relaxed);
    return report;
  }
  const double cover = std::isnan(options.score_cover)
                           ? oracle.threshold()
                           : options.score_cover;

  std::unique_ptr<PairFilter> filter;
  if (options.strategy == JoinStrategy::kFiltered) {
    filter = MakeFilter(oracle, members, cover);
  }

  if (filter == nullptr) {
    PairSink sink(oracle, members, cover, options.deadline, aborted, builder,
                  nullptr);
    BruteJoin(members, options.tile_size, &sink);
    report.MergeFrom(sink.report());
    return report;
  }
  report.filtered = true;

  const uint32_t parts = filter->NumPartitions();
  const uint32_t threads =
      std::min<uint32_t>(std::max<uint32_t>(1, options.num_threads), parts);
  if (threads <= 1) {
    PairSink sink(oracle, members, cover, options.deadline, aborted, builder,
                  nullptr);
    filter->Run(0, parts, &sink);
    report.MergeFrom(sink.report());
    return report;
  }

  // Partition-parallel emission: each chunk fills a private replay buffer,
  // then the buffers are drained into the builder in chunk order. The pair
  // *set* (and with it the built index — Build() sorts every row)
  // and all counters are chunking-independent, so results are identical
  // for every thread count.
  const uint32_t num_chunks = std::min(parts, threads * 4);
  const std::vector<uint32_t> bounds =
      ChunkBoundaries(*filter, parts, num_chunks);
  std::vector<std::vector<PairSink::Rec>> buffers(num_chunks);
  std::vector<JoinReport> chunk_reports(num_chunks);
  {
    TaskPool pool(threads);
    for (uint32_t c = 0; c < num_chunks; ++c) {
      pool.Submit([&, c]() {
        PairSink sink(oracle, members, cover, options.deadline, aborted,
                      nullptr, &buffers[c]);
        filter->Run(bounds[c], bounds[c + 1], &sink);
        chunk_reports[c] = sink.report();
      });
    }
    pool.Wait();
  }
  for (uint32_t c = 0; c < num_chunks; ++c) {
    report.MergeFrom(chunk_reports[c]);
  }
  if (aborted->load(std::memory_order_relaxed)) return report;
  for (const auto& buffer : buffers) {
    for (const PairSink::Rec& rec : buffer) PairSink::Replay(rec, builder);
  }
  return report;
}

}  // namespace krcore
