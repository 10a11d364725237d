// krbench: runs one benchmark workload and prints its metrics.
//
//   krbench --workload=enum-grid|max-grid|serve-live --seed=N --seconds=S
//           --trace=0|1 [--work_dir=DIR] [--commit=ID] [--corrupt_expected]
//
// stdout: a stamp line, one line per checked cell or phase, a metric table
// (name, value, unit, samples) and, last, one JSON object
// {"correct", "attempted", "failed", "metrics"} holding the end-to-end
// metrics (--trace=0) or the per-layer metrics (--trace=1). Exit status:
// 0 on success, 1 when an exactness check failed, 2 on bad arguments or a
// setup error, 3 when an open-loop run was invalid (no latencies reported).

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

const std::vector<std::string>& EndToEndNames() {
  static const std::vector<std::string> names = {
      "setup_s",      "queries_per_s", "query_p50_ms", "query_p90_ms",
      "query_p99_ms", "ok_frac",       "peak_rss_mb"};
  return names;
}

/// Per-layer metrics with their units; a workload that does no work in a
/// layer reports 0 there.
const std::vector<std::pair<std::string, std::string>>& PerLayerNames() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> n = {
        {"join.oracle_calls", "count"},
        {"join.pruned_frac", "ratio"},
        {"prepare.s", "s"},
        {"prepare.index_mb", "MB"},
        {"prepare.components", "count"},
        {"derive.ms_p50", "ms"},
        {"derive.share", "ratio"},
        {"search.nodes", "count"},
        {"search.us_per_node", "us"},
        {"search.share", "ratio"},
        {"enum.maximal_check_calls", "count"},
        {"enum.maximal_check_nodes", "count"},
        {"enum.maximal_yield", "ratio"},
        {"enum.cores", "count"},
        {"max.bound_recomputes", "count"},
        {"max.bound_expensive_prunes", "count"},
        {"max.bound_naive_prunes", "count"},
        {"max.prune_yield", "ratio"},
        {"parallel.tasks_spawned", "count"},
        {"parallel.task_steals", "count"},
        {"parallel.cpu_per_wall", "ratio"},
        {"snapshot.save_s", "s"},
        {"snapshot.load_s", "s"},
        {"snapshot.file_mb", "MB"},
        {"snapshot.first_frozen_query_ms", "ms"},
        {"server.wait_ms_p50", "ms"},
        {"server.wait_ms_p99", "ms"},
        {"server.derive_ms_p50", "ms"},
        {"server.mine_ms_p50", "ms"},
        {"server.mine_ms_p99", "ms"},
        {"server.coalesce_frac", "ratio"},
        {"server.derive_busy_frac", "ratio"},
        {"server.mine_busy_frac", "ratio"},
        {"server.max_queue_depth", "count"},
        {"server.rejected", "count"},
        {"ingest.updates_per_s", "1/s"},
        {"ingest.busy_updates_per_s", "1/s"},
        {"ingest.apply_s", "s"},
        {"ingest.publish_s", "s"},
        {"ingest.emitted_frac", "ratio"},
        {"ingest.applied_batches", "count"},
        {"ingest.fallback_rebuilds", "count"},
        {"ingest.rolled_back_batches", "count"},
        {"ingest.max_staleness_ms", "ms"},
        {"live.epochs_served", "count"},
        {"gen.queries", "count"},
        {"gen.update_batches", "count"},
        {"gen.late_ms_p99", "ms"},
        {"gen.late_ms_max", "ms"},
        {"trace.overhead_frac", "ratio"},
        {"trace.spans", "count"},
    };
    for (const std::string& span : SpanNames()) {
      n.push_back({"trace.self_ms." + span, "ms"});
    }
    return n;
  }();
  return names;
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

int Usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: krbench --workload=enum-grid|max-grid|"
               "serve-live --seed=N --seconds=S --trace=0|1 "
               "[--work_dir=DIR] [--commit=ID] [--corrupt_expected]\n",
               error);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig config;
  std::string commit = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string v;
    if (ParseFlag(argv[i], "--workload", &v)) {
      config.workload = v;
    } else if (ParseFlag(argv[i], "--seed", &v)) {
      config.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (ParseFlag(argv[i], "--seconds", &v)) {
      config.seconds = std::strtod(v.c_str(), nullptr);
    } else if (ParseFlag(argv[i], "--trace", &v)) {
      if (v != "0" && v != "1") return Usage("--trace takes 0 or 1");
      config.trace = v == "1";
    } else if (ParseFlag(argv[i], "--work_dir", &v)) {
      config.work_dir = v;
    } else if (ParseFlag(argv[i], "--commit", &v)) {
      commit = v;
    } else if (std::strcmp(argv[i], "--corrupt_expected") == 0) {
      config.corrupt_expected = true;
    } else {
      return Usage((std::string("unknown argument ") + argv[i]).c_str());
    }
  }
  if (!(config.seconds > 0.0)) return Usage("--seconds must be > 0");
  void (*run)(const RunConfig&, Tracer*, Metrics*, Outcome*) = nullptr;
  if (config.workload == "enum-grid") run = RunEnumGrid;
  if (config.workload == "max-grid") run = RunMaxGrid;
  if (config.workload == "serve-live") run = RunServeLive;
  if (run == nullptr) return Usage("unknown --workload");
  mkdir(config.work_dir.c_str(), 0755);

  Tracer tracer(config.trace);
  Metrics metrics;
  Outcome outcome;
  run(config, &tracer, &metrics, &outcome);

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
  std::printf(
      "stamp: {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%g,\"trace\":%d,"
      "\"nproc\":%u,\"threads\":%u,\"build_type\":\"%s\",\"compiler\":\"%s\","
      "\"commit\":\"%s\"}\n",
      config.workload.c_str(), (unsigned long long)config.seed,
      config.seconds, config.trace ? 1 : 0,
      std::thread::hardware_concurrency(), outcome.threads,
      PERFBENCH_BUILD_TYPE, __VERSION__, commit.c_str());

  if (!outcome.invalid.empty()) {
    std::printf("invalid run: %s\n", outcome.invalid.c_str());
    return 3;
  }
  if (outcome.attempted == 0 && outcome.errors.empty()) {
    outcome.errors.push_back("no operation attempted");
  }

  std::vector<std::pair<std::string, std::string>> wanted;
  if (config.trace) {
    for (const auto& [span, seconds] : tracer.SelfSeconds()) {
      metrics.Set("trace.self_ms." + span, seconds * 1e3, "ms");
    }
    metrics.Set("trace.spans", static_cast<double>(tracer.size()), "count");
    const std::string path = config.work_dir + "/spans-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".json";
    if (tracer.Write(path)) {
      std::printf("spans: %zu written to %s\n", tracer.size(), path.c_str());
    } else {
      outcome.errors.push_back("cannot write spans to " + path);
    }
    wanted = PerLayerNames();
    for (const auto& [name, unit] : wanted) {
      if (!metrics.values().count(name)) metrics.Set(name, 0.0, unit, 0);
    }
  } else {
    for (const std::string& name : EndToEndNames()) {
      const auto it = metrics.values().find(name);
      if (it == metrics.values().end()) {
        if (outcome.errors.empty()) {
          outcome.errors.push_back("metric " + name + " not measured");
        }
        continue;
      }
      wanted.push_back({name, it->second.unit});
    }
  }

  std::printf("%-34s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  std::string json;
  for (const auto& [name, unit] : wanted) {
    const auto it = metrics.values().find(name);
    if (it == metrics.values().end()) continue;
    const MetricValue& m = it->second;
    std::printf("%-34s %16.6f  %-6s %llu\n", name.c_str(), m.value,
                m.unit.c_str(), (unsigned long long)m.samples);
    if (!json.empty()) json += ", ";
    json += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  for (const std::string& e : outcome.errors) {
    std::printf("failure: %s\n", e.c_str());
  }
  const bool correct = outcome.errors.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false", (unsigned long long)outcome.attempted,
      (unsigned long long)outcome.failed, json.c_str());
  return correct ? 0 : 1;
}
