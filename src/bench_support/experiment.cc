#include "bench_support/experiment.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "datasets/generators.h"
#include "similarity/threshold.h"
#include "util/logging.h"

namespace krcore {

ExperimentEnv ExperimentEnv::FromOptions(const OptionParser& options) {
  // Bench output is often piped to files; line-buffer stdout so progress is
  // visible while long sweeps (and INF cells) run.
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  ExperimentEnv env;
  env.timeout_seconds = options.GetDouble("timeout", env.timeout_seconds);
  env.scale = options.GetDouble("scale", env.scale);
  env.quick = options.GetBool("quick", false);
  env.threads = static_cast<uint32_t>(options.GetInt("threads", env.threads));
  env.seed = options.GetInt("seed", env.seed);
  env.csv_path = options.GetString("csv", "");
  if (env.quick) {
    env.scale = std::min(env.scale, 0.15);
    env.timeout_seconds = std::min(env.timeout_seconds, 10.0);
  }
  return env;
}

std::string Measurement::TimeString() const {
  if (timed_out) return "INF";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  return buf;
}

FigureReport::FigureReport(std::string figure_id, std::string title)
    : figure_id_(std::move(figure_id)), title_(std::move(title)) {}

void FigureReport::Add(Measurement m) { measurements_.push_back(std::move(m)); }

void FigureReport::Print() const {
  std::cout << "\n=== " << figure_id_ << ": " << title_ << " ===\n";
  // Preserve first-seen order for both axes.
  std::vector<std::string> xs, series;
  for (const auto& m : measurements_) {
    if (std::find(xs.begin(), xs.end(), m.x_label) == xs.end()) {
      xs.push_back(m.x_label);
    }
    if (std::find(series.begin(), series.end(), m.series) == series.end()) {
      series.push_back(m.series);
    }
  }
  std::map<std::pair<std::string, std::string>, const Measurement*> cell;
  for (const auto& m : measurements_) cell[{m.x_label, m.series}] = &m;

  std::cout << "time(sec)";
  for (const auto& s : series) std::cout << "\t" << s;
  std::cout << "\n";
  for (const auto& x : xs) {
    std::cout << x;
    for (const auto& s : series) {
      auto it = cell.find({x, s});
      std::cout << "\t" << (it == cell.end() ? "-" : it->second->TimeString());
    }
    std::cout << "\n";
  }
  std::cout.flush();
}

void FigureReport::WriteCsv(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    KRCORE_LOG(Warning) << "cannot open csv " << path;
    return;
  }
  for (const auto& m : measurements_) {
    out << figure_id_ << "," << m.series << "," << m.x_label << ","
        << (m.timed_out ? "INF" : std::to_string(m.seconds)) << ","
        << m.result_count << "," << m.result_size_max << ","
        << m.result_size_avg << "," << m.stats.search_nodes << "\n";
  }
}

void FigureReport::Finish(const ExperimentEnv& env) const {
  Print();
  if (!env.csv_path.empty()) WriteCsv(env.csv_path);
}

Measurement MeasureEnum(const std::string& series, const std::string& x_label,
                        const MaximalCoresResult& result) {
  Measurement m;
  m.series = series;
  m.x_label = x_label;
  m.seconds = result.stats.seconds;
  m.timed_out = result.status.IsDeadlineExceeded();
  m.stats = result.stats;
  m.result_count = result.cores.size();
  uint64_t total = 0;
  for (const auto& c : result.cores) {
    m.result_size_max = std::max<uint64_t>(m.result_size_max, c.size());
    total += c.size();
  }
  m.result_size_avg = result.cores.empty()
                          ? 0.0
                          : static_cast<double>(total) / result.cores.size();
  return m;
}

Measurement MeasureMax(const std::string& series, const std::string& x_label,
                       const MaximumCoreResult& result) {
  Measurement m;
  m.series = series;
  m.x_label = x_label;
  m.seconds = result.stats.seconds;
  m.timed_out = result.status.IsDeadlineExceeded();
  m.stats = result.stats;
  m.result_count = result.best.size();
  m.result_size_max = result.best.size();
  m.result_size_avg = static_cast<double>(result.best.size());
  return m;
}

const Dataset& GetDataset(const std::string& name, const ExperimentEnv& env) {
  static std::map<std::string, Dataset>* cache =
      new std::map<std::string, Dataset>();
  std::ostringstream key;
  key << name << "@" << env.scale << "#" << env.seed;
  auto it = cache->find(key.str());
  if (it == cache->end()) {
    KRCORE_LOG(Info) << "generating dataset " << name << " scale=" << env.scale;
    Dataset d = MakePaperAnalogue(name, env.scale, env.seed);
    KRCORE_LOG(Info) << d.StatsString();
    it = cache->emplace(key.str(), std::move(d)).first;
  }
  return it->second;
}

double ResolveThresholdPermille(const Dataset& dataset, double permille) {
  SimilarityOracle probe = dataset.MakeOracle(0.0);
  return TopPermilleThreshold(probe, dataset.graph.num_vertices(), permille);
}

}  // namespace krcore
