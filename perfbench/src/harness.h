// Shared plumbing of the krcore benchmark: run configuration, metrics with
// sample counts, count-aware percentiles, in-memory span tracing and
// process resource probes. Everything here lives outside the library and
// observes it only through its public headers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/krcore_types.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  /// Directory for the run's files (snapshots, span dumps).
  std::string work_dir = ".bench_build/run";
  /// Test hook: perturbs the expected result of one checked cell, so the
  /// exactness check must fail the run.
  bool corrupt_expected = false;
};

/// Setups repeated per run; setup_s reports their median.
inline constexpr int kSetupRepeats = 11;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or nullopt when
/// fewer than 10 samples lie above the chosen rank — a tail figure is never
/// the maximum of a handful of samples.
std::optional<double> TailPercentile(std::vector<double> samples, double q);

double Median(std::vector<double> samples);

/// Percentile `q` of `samples` (in arrival order) as the median over up to
/// five contiguous blocks, using as many blocks as keep every block's
/// percentile supported: a slow stretch of the host moves only a minority of
/// the blocks. nullopt when even the whole run lacks the support.
std::optional<double> BlockPercentile(const std::vector<double>& samples,
                                      double q);

/// Closed-loop throughput of back-to-back calls with these latencies (ms),
/// as the median over five contiguous blocks of calls per second.
double BlockRate(const std::vector<double>& ms);

struct MetricValue {
  double value = 0.0;
  std::string unit;
  uint64_t samples = 1;
};

/// Named metrics of one run. Names follow BENCHMARK.json.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 1);
  /// Sets `<prefix>_p50_ms`, `_p90_ms` and `_p99_ms` from millisecond
  /// samples; a percentile without enough samples beyond it is left unset
  /// and reported in the returned error text ("" when all three are set).
  std::string SetLatencies(const std::string& prefix,
                           const std::vector<double>& ms);
  const std::map<std::string, MetricValue>& values() const { return values_; }

 private:
  std::map<std::string, MetricValue> values_;
};

/// One recorded interval. Times are seconds since the tracer's epoch.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by the spans of one query
};

/// Spans kept in memory and written out once at exit. Disabled tracers
/// record nothing and cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  double Now() const;
  double ToTracerTime(Clock::time_point t) const;
  /// Records a finished span and returns its id (0 when disabled).
  uint64_t Add(const std::string& name, double start, double end,
               uint64_t parent, uint64_t request);
  /// Per span name: total duration minus the time its children cover.
  std::map<std::string, double> SelfSeconds() const;
  size_t size() const;
  /// Writes every span as one JSON array; false on an I/O error.
  bool Write(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
/// VmHWM of this process in MB (0 when /proc is unavailable).
double PeakRssMb();

/// Order-sensitive FNV-1a digest of a core list (cores are sorted sets and
/// the engines return them in a canonical order).
uint64_t Fingerprint(const std::vector<krcore::VertexSet>& cores);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
