#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <unordered_map>

namespace perfbench {

std::optional<double> TailPercentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  // 1-based nearest rank: the smallest rank covering a q share of samples.
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

constexpr size_t kMaxBlocks = 5;

/// `samples` cut into `blocks` contiguous runs of near-equal length.
std::vector<std::vector<double>> Blocks(const std::vector<double>& samples,
                                        size_t blocks) {
  std::vector<std::vector<double>> out(blocks);
  for (size_t b = 0; b < blocks; ++b) {
    out[b].assign(samples.begin() + samples.size() * b / blocks,
                  samples.begin() + samples.size() * (b + 1) / blocks);
  }
  return out;
}

}  // namespace

std::optional<double> BlockPercentile(const std::vector<double>& samples,
                                      double q) {
  for (size_t blocks = kMaxBlocks; blocks >= 1; --blocks) {
    std::vector<double> values;
    for (const std::vector<double>& block : Blocks(samples, blocks)) {
      if (std::optional<double> v = TailPercentile(block, q)) {
        values.push_back(*v);
      }
    }
    if (values.size() == blocks) return Median(values);
  }
  return std::nullopt;
}

double BlockRate(const std::vector<double>& ms) {
  std::vector<double> rates;
  for (const std::vector<double>& block : Blocks(ms, kMaxBlocks)) {
    double total_ms = 0.0;
    for (double v : block) total_ms += v;
    if (total_ms > 0.0) rates.push_back(block.size() * 1e3 / total_ms);
  }
  return Median(rates);
}

void Metrics::Set(const std::string& name, double value,
                  const std::string& unit, uint64_t samples) {
  values_[name] = MetricValue{value, unit, samples};
}

std::string Metrics::SetLatencies(const std::string& prefix,
                                  const std::vector<double>& ms) {
  std::string missing;
  for (const auto& [label, q] :
       {std::pair<const char*, double>{"p50", 0.50}, {"p90", 0.90},
        {"p99", 0.99}}) {
    const std::string name = prefix + "_" + label + "_ms";
    if (std::optional<double> v = BlockPercentile(ms, q)) {
      Set(name, *v, "ms", ms.size());
    } else {
      missing += (missing.empty() ? "" : ", ") + name + " (" +
                 std::to_string(ms.size()) + " samples)";
    }
  }
  return missing;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double Tracer::Now() const { return ToTracerTime(Clock::now()); }

double Tracer::ToTracerTime(Clock::time_point t) const {
  return SecondsBetween(epoch_, t);
}

uint64_t Tracer::Add(const std::string& name, double start, double end,
                     uint64_t parent, uint64_t request) {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{name, start, end, id, parent, request});
  return id;
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent never overlap in this benchmark (each query's
  // layers run one after another), so their summed durations are the
  // covered part of the parent's interval.
  std::unordered_map<uint64_t, double> covered;
  for (const Span& s : spans_) {
    if (s.parent != 0) covered[s.parent] += s.end - s.start;
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    const auto it = covered.find(s.id);
    const double child = it == covered.end() ? 0.0 : it->second;
    self[s.name] += std::max(0.0, s.end - s.start - child);
  }
  return self;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool Tracer::Write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  char line[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"id\":%llu,"
                  "\"parent\":%llu,\"request\":%llu}%s\n",
                  s.name.c_str(), s.start, s.end, (unsigned long long)s.id,
                  (unsigned long long)s.parent,
                  (unsigned long long)s.request,
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]\n";
  return static_cast<bool>(out);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

uint64_t Fingerprint(const std::vector<krcore::VertexSet>& cores) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const krcore::VertexSet& core : cores) {
    mix(core.size());
    for (krcore::VertexId v : core) mix(v);
  }
  return h;
}

}  // namespace perfbench
