#ifndef KRCORE_BENCH_SUPPORT_EXPERIMENT_H_
#define KRCORE_BENCH_SUPPORT_EXPERIMENT_H_

#include <string>
#include <vector>

#include "core/krcore_types.h"
#include "datasets/dataset.h"
#include "similarity/similarity_oracle.h"
#include "util/options.h"

namespace krcore {

/// Shared configuration for the figure-regenerating bench drivers.
struct ExperimentEnv {
  /// Per-run wall-clock limit; expired runs are reported as INF like the
  /// paper's one-hour cutoff (Sec 8.1). 20 s on the scaled-down analogues
  /// plays the role the 1 h limit plays at the paper's scale.
  double timeout_seconds = 20.0;
  /// Dataset scale factor (1.0 ≈ 20k vertices; see DESIGN.md §4).
  double scale = 1.0;
  /// Quick mode shrinks datasets and sweeps for smoke runs / CI.
  bool quick = false;
  /// Threads for the per-component parallel drivers (--threads; 0 = all
  /// hardware cores, 1 = the paper's sequential setting).
  uint32_t threads = 1;
  uint64_t seed = 1;
  /// Optional CSV output path ("" = none).
  std::string csv_path;

  static ExperimentEnv FromOptions(const OptionParser& options);
};

/// One measured cell of a figure: an algorithm at one x-axis point.
struct Measurement {
  std::string series;   // e.g. "AdvEnum"
  std::string x_label;  // e.g. "r=100km"
  double seconds = 0.0;
  bool timed_out = false;
  MiningStats stats;
  uint64_t result_count = 0;   // #maximal cores or |maximum core|
  uint64_t result_size_max = 0;
  double result_size_avg = 0.0;

  /// "INF" when timed out, otherwise seconds with 3 decimals.
  std::string TimeString() const;
};

/// Accumulates measurements, prints a paper-style table (series as columns),
/// and optionally writes CSV.
class FigureReport {
 public:
  FigureReport(std::string figure_id, std::string title);

  void Add(Measurement m);

  /// Renders the table: one row per x point, one column per series.
  void Print() const;

  /// Writes all measurements as CSV rows.
  void WriteCsv(const std::string& path) const;

  /// Print() then WriteCsv(env.csv_path) when set.
  void Finish(const ExperimentEnv& env) const;

  const std::vector<Measurement>& measurements() const {
    return measurements_;
  }
  const std::string& figure_id() const { return figure_id_; }

 private:
  std::string figure_id_;
  std::string title_;
  std::vector<Measurement> measurements_;
};

/// Converts a MaximalCoresResult / MaximumCoreResult into a Measurement.
Measurement MeasureEnum(const std::string& series, const std::string& x_label,
                        const MaximalCoresResult& result);
Measurement MeasureMax(const std::string& series, const std::string& x_label,
                       const MaximumCoreResult& result);

/// Builds (and caches per process) a paper-analogue dataset at env.scale
/// (quick mode shrinks it further). Names: brightkite/gowalla/dblp/pokec.
const Dataset& GetDataset(const std::string& name, const ExperimentEnv& env);

/// Resolves the paper's keyword-dataset r axis: top-permille calibration
/// ("r_permille", Sec 8.1). The geo datasets take kilometers directly. The
/// returned value feeds Dataset::MakeOracle.
double ResolveThresholdPermille(const Dataset& dataset, double permille);

}  // namespace krcore

#endif  // KRCORE_BENCH_SUPPORT_EXPERIMENT_H_
