// The benchmark's workloads. Each fills the run's metrics and reports how
// many operations it attempted and how many failed their exactness check.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {

struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Threads the workload's engine calls use (stamped on the result).
  uint32_t threads = 1;
  /// Exactness failures; any entry fails the run.
  std::vector<std::string> errors;
  /// Open-loop validity: non-empty when the generator fell behind its
  /// schedule or admission rejected requests, so latencies are not valid.
  std::string invalid;
};

/// Closed loop, 1 client: seeded list of AdvEnum (k, r) queries, each a
/// DeriveWorkspace from the shared base plus EnumerateMaximalCores.
void RunEnumGrid(const RunConfig& config, Tracer* tracer, Metrics* metrics,
                 Outcome* outcome);

/// Closed loop, 1 client: the same shape with FindMaximumCore on 1 thread.
void RunMaxGrid(const RunConfig& config, Tracer* tracer, Metrics* metrics,
                Outcome* outcome);

/// Open loop against a QueryServer over a lazily loaded snapshot and a
/// live workspace fed by a closed-loop edge-update submitter.
void RunServeLive(const RunConfig& config, Tracer* tracer, Metrics* metrics,
                  Outcome* outcome);

/// Span names: one per layer boundary the benchmark times.
inline const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "prepare",       "snapshot_save", "snapshot_load", "live_init",
      "query",         "derive",        "enumerate",     "maximum",
      "server_submit", "server_wait",   "server_derive", "server_mine",
      "ingest_submit", "ingest_flush"};
  return names;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
