// enum-grid and max-grid: a closed loop of one client walking a seeded,
// shuffled list of (k, r) queries over one prepared score-covered
// workspace. Every query derives its cell (DeriveWorkspace) and mines it;
// the list is fixed by --seed and --seconds, so every run does the same work.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/pipeline.h"
#include "datasets/dataset_spec.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using krcore::ComponentContext;
using krcore::MiningStats;
using krcore::PipelineOptions;
using krcore::PreparedWorkspace;
using krcore::PreprocessReport;
using krcore::Status;

enum class Engine { kEnumerate, kMaximum };

struct Cell {
  uint32_t k;
  double r;  // km (Euclidean distance: smaller is stricter)
};

struct GridSpec {
  Engine engine;
  /// Cells whose search dominates derivation, with well-separated costs.
  /// Five cells with equal repeats put p50 at the median of the third
  /// cell's samples and p90 at the median of the slowest cell's, never on
  /// the jump between two cells.
  std::vector<Cell> cells;
  /// Queries per second of --seconds: the list length, fixed per run, set
  /// near the throughput of a 4-core host so a run lasts about --seconds.
  double queries_per_second;
  uint32_t threads;
};

/// The substrate: the gowalla analogue (clustered geo points, Euclidean km,
/// so the self-join runs the grid filter), fixed across seeds so counts and
/// result fingerprints repeat exactly; --seed orders the query list.
constexpr double kDatasetScale = 1.0;
constexpr uint64_t kDatasetSeed = 1;

GridSpec EnumGridSpec() {
  return {Engine::kEnumerate,
          {{7, 10}, {5, 8}, {6, 10}, {7, 12}, {6, 12}},
          52.0,
          std::min(2u, std::max(1u, std::thread::hardware_concurrency()))};
}

GridSpec MaxGridSpec() {
  return {Engine::kMaximum,
          {{7, 12}, {6, 11}, {5, 10}, {4, 8}, {6, 12}},
          45.0,
          1};
}

struct Answer {
  Status status;
  uint64_t fingerprint = 0;
  uint64_t count = 0;  // cores (enum) or maximum size (max)
  MiningStats stats;
};

Answer Mine(const std::vector<ComponentContext>& components,
            const GridSpec& spec, uint32_t k) {
  Answer a;
  if (spec.engine == Engine::kEnumerate) {
    krcore::EnumOptions options = krcore::AdvEnumOptions(k);
    options.parallel.num_threads = spec.threads;
    krcore::MaximalCoresResult r =
        krcore::EnumerateMaximalCores(components, options);
    a.status = r.status;
    a.fingerprint = Fingerprint(r.cores);
    a.count = r.cores.size();
    a.stats = r.stats;
  } else {
    krcore::MaxOptions options = krcore::AdvMaxOptions(k);
    options.parallel.num_threads = spec.threads;
    krcore::MaximumCoreResult r = krcore::FindMaximumCore(components, options);
    a.status = r.status;
    a.fingerprint = Fingerprint({r.best});
    a.count = r.best.size();
    a.stats = r.stats;
  }
  return a;
}

struct QueryRecord {
  size_t cell = 0;
  double latency_ms = 0.0;
  double derive_ms = 0.0;
  double mine_ms = 0.0;
  double mine_cpu_s = 0.0;
  Answer answer;
};

/// Runs the whole query list once; returns its wall seconds.
double RunPass(const GridSpec& spec, const PreparedWorkspace& base,
               const PipelineOptions& derive_options,
               const std::vector<size_t>& order, Tracer* tracer,
               std::vector<QueryRecord>* records) {
  const char* mine_span =
      spec.engine == Engine::kEnumerate ? "enumerate" : "maximum";
  records->assign(order.size(), QueryRecord{});
  const Clock::time_point pass_start = Clock::now();
  for (size_t i = 0; i < order.size(); ++i) {
    QueryRecord& rec = (*records)[i];
    rec.cell = order[i];
    const Cell cell = spec.cells[rec.cell];
    PreparedWorkspace ws;
    const Clock::time_point t0 = Clock::now();
    Status s = krcore::DeriveWorkspace(base, cell.k, cell.r, derive_options,
                                       &ws);
    const Clock::time_point t1 = Clock::now();
    const double cpu0 = ProcessCpuSeconds();
    if (s.ok()) {
      rec.answer = Mine(ws.components, spec, cell.k);
    } else {
      rec.answer.status = s;
    }
    const double cpu1 = ProcessCpuSeconds();
    const Clock::time_point t2 = Clock::now();
    rec.latency_ms = SecondsBetween(t0, t2) * 1e3;
    rec.derive_ms = SecondsBetween(t0, t1) * 1e3;
    rec.mine_ms = SecondsBetween(t1, t2) * 1e3;
    rec.mine_cpu_s = cpu1 - cpu0;
    if (tracer->enabled()) {
      const uint64_t request = i + 1;
      const uint64_t q = tracer->Add("query", tracer->ToTracerTime(t0),
                                     tracer->ToTracerTime(t2), 0, request);
      tracer->Add("derive", tracer->ToTracerTime(t0),
                  tracer->ToTracerTime(t1), q, request);
      tracer->Add(mine_span, tracer->ToTracerTime(t1),
                  tracer->ToTracerTime(t2), q, request);
    }
  }
  return SecondsBetween(pass_start, Clock::now());
}

void RunGrid(const GridSpec& spec, const RunConfig& config, Tracer* tracer,
             Metrics* metrics, Outcome* outcome) {
  outcome->threads = spec.threads;
  krcore::Dataset dataset;
  if (Status s = krcore::MakeDataset({"gowalla", kDatasetScale, kDatasetSeed},
                                     &dataset);
      !s.ok()) {
    outcome->errors.push_back("dataset: " + s.ToString());
    return;
  }

  // One base at the grid's smallest k and loosest r, score-covered down to
  // its strictest r: every cell then derives with zero oracle calls.
  uint32_t k_min = spec.cells[0].k;
  double r_loose = spec.cells[0].r;
  double r_strict = spec.cells[0].r;
  for (const Cell& c : spec.cells) {
    k_min = std::min(k_min, c.k);
    r_loose = std::max(r_loose, c.r);
    r_strict = std::min(r_strict, c.r);
  }
  PipelineOptions prep;
  prep.k = k_min;
  prep.score_cover = r_strict;
  const krcore::SimilarityOracle oracle = dataset.MakeOracle(r_loose);

  PreparedWorkspace base;
  PreprocessReport report;
  std::vector<double> setup_seconds;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    base = PreparedWorkspace();
    report = PreprocessReport();
    const double start = tracer->Now();
    const Clock::time_point t0 = Clock::now();
    Status s = krcore::PrepareWorkspace(dataset.graph, oracle, prep, &base,
                                        &report);
    setup_seconds.push_back(SecondsBetween(t0, Clock::now()));
    tracer->Add("prepare", start, tracer->Now(), 0, 0);
    if (!s.ok()) {
      outcome->errors.push_back("prepare: " + s.ToString());
      return;
    }
  }

  // The seeded list: every cell repeated equally, shuffled by --seed.
  const size_t target =
      static_cast<size_t>(std::llround(spec.queries_per_second * config.seconds));
  const size_t repeats =
      std::max<size_t>(1, (target + spec.cells.size() - 1) / spec.cells.size());
  std::vector<size_t> order;
  for (size_t rep = 0; rep < repeats; ++rep) {
    for (size_t c = 0; c < spec.cells.size(); ++c) order.push_back(c);
  }
  krcore::Rng rng(config.seed);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }

  // Warm-up: one untimed query per cell fills caches and the allocator and
  // fixes each cell's reference answer for the repeat-consistency check.
  std::vector<Answer> reference;
  for (const Cell& c : spec.cells) {
    PreparedWorkspace ws;
    Status s = krcore::DeriveWorkspace(base, c.k, c.r, prep, &ws);
    reference.push_back(s.ok() ? Mine(ws.components, spec, c.k)
                               : Answer{s, 0, 0, {}});
  }

  std::vector<QueryRecord> records;
  if (tracer->enabled()) {
    // Same list untraced, then traced: the difference is the overhead.
    Tracer off(false);
    const double untraced = RunPass(spec, base, prep, order, &off, &records);
    const double traced = RunPass(spec, base, prep, order, tracer, &records);
    metrics->Set("trace.overhead_frac", (traced - untraced) / untraced,
                 "ratio");
  } else {
    RunPass(spec, base, prep, order, tracer, &records);
  }
  const double peak_rss = PeakRssMb();

  // Exactness, untimed, once per distinct cell: the reference answer must
  // equal mining a cold preparation at exactly (k, r).
  std::vector<bool> cell_ok(spec.cells.size(), true);
  for (size_t c = 0; c < spec.cells.size(); ++c) {
    const Cell cell = spec.cells[c];
    PipelineOptions cold;
    cold.k = cell.k;
    PreparedWorkspace ws;
    Status s = krcore::PrepareWorkspace(
        dataset.graph, dataset.MakeOracle(cell.r), cold, &ws);
    Answer expected = s.ok() ? Mine(ws.components, spec, cell.k)
                             : Answer{s, 0, 0, {}};
    if (config.corrupt_expected && c == 0) {
      expected.fingerprint ^= 1;
      expected.count += 1;
    }
    const Answer& got = reference[c];
    const bool same = spec.engine == Engine::kEnumerate
                          ? got.fingerprint == expected.fingerprint &&
                                got.count == expected.count
                          : got.count == expected.count;
    if (!got.status.ok() || !expected.status.ok() || !same) {
      cell_ok[c] = false;
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "cell k=%u r=%g: derived count %llu vs cold %llu",
                    cell.k, cell.r, (unsigned long long)got.count,
                    (unsigned long long)expected.count);
      outcome->errors.push_back(msg);
    }
    std::printf("cell k=%u r=%g count=%llu fingerprint=%016llx nodes=%llu\n",
                cell.k, cell.r, (unsigned long long)got.count,
                (unsigned long long)got.fingerprint,
                (unsigned long long)got.stats.search_nodes);
  }

  // Every repeat must reproduce its cell's reference answer (and, on one
  // thread, its exact search tree).
  uint64_t ok = 0;
  std::vector<double> latency, derive;
  double derive_total = 0.0, mine_total = 0.0, cpu_total = 0.0;
  MiningStats sum;
  uint64_t cores = 0;
  for (const QueryRecord& rec : records) {
    const Answer& ref = reference[rec.cell];
    const Answer& a = rec.answer;
    bool same = a.status.ok() && a.fingerprint == ref.fingerprint &&
                a.count == ref.count;
    if (spec.engine == Engine::kMaximum) {
      same = same && a.stats.search_nodes == ref.stats.search_nodes;
    }
    if (same && cell_ok[rec.cell]) ++ok;
    latency.push_back(rec.latency_ms);
    derive.push_back(rec.derive_ms);
    derive_total += rec.derive_ms;
    mine_total += rec.mine_ms;
    cpu_total += rec.mine_cpu_s;
    sum.MergeFrom(a.stats);
    if (spec.engine == Engine::kEnumerate) cores += a.count;
  }
  const uint64_t n = records.size();
  outcome->attempted = n;
  outcome->failed = n - ok;
  if (ok != n && outcome->errors.empty()) {
    outcome->errors.push_back(std::to_string(n - ok) +
                              " queries differ from their cell's reference");
  }

  const double latency_total = derive_total + mine_total;
  metrics->Set("setup_s", Median(setup_seconds), "s", setup_seconds.size());
  metrics->Set("queries_per_s", BlockRate(latency), "1/s", n);
  if (std::string missing = metrics->SetLatencies("query", latency);
      !missing.empty()) {
    outcome->errors.push_back("too few samples for " + missing);
  }
  metrics->Set("ok_frac", static_cast<double>(ok) / n, "ratio", n);
  metrics->Set("peak_rss_mb", peak_rss, "MB");

  metrics->Set("join.oracle_calls", report.oracle_calls, "count");
  metrics->Set("join.pruned_frac",
               report.pairs_evaluated
                   ? static_cast<double>(report.pruned_pairs) /
                         report.pairs_evaluated
                   : 0.0,
               "ratio");
  metrics->Set("prepare.s", Median(setup_seconds), "s", setup_seconds.size());
  metrics->Set("prepare.index_mb", report.index_bytes / 1048576.0, "MB");
  metrics->Set("prepare.components", report.components, "count");
  metrics->Set("derive.ms_p50", Median(derive), "ms", n);
  metrics->Set("derive.share", derive_total / latency_total, "ratio");
  metrics->Set("search.nodes", sum.search_nodes, "count");
  metrics->Set("search.us_per_node",
               sum.search_nodes ? mine_total * 1e3 / sum.search_nodes : 0.0,
               "us");
  metrics->Set("search.share", mine_total / latency_total, "ratio");
  metrics->Set("enum.maximal_check_calls", sum.maximal_check_calls, "count");
  metrics->Set("enum.maximal_check_nodes", sum.maximal_check_nodes, "count");
  metrics->Set("enum.maximal_yield",
               sum.emitted_candidates
                   ? static_cast<double>(sum.maximal_found) /
                         sum.emitted_candidates
                   : 0.0,
               "ratio");
  metrics->Set("enum.cores", cores, "count");
  metrics->Set("max.bound_recomputes", sum.bound_recomputes, "count");
  metrics->Set("max.bound_expensive_prunes", sum.bound_expensive_prunes,
               "count");
  metrics->Set("max.bound_naive_prunes", sum.bound_naive_prunes, "count");
  metrics->Set("max.prune_yield",
               sum.bound_recomputes
                   ? static_cast<double>(sum.bound_expensive_prunes) /
                         sum.bound_recomputes
                   : 0.0,
               "ratio");
  metrics->Set("parallel.tasks_spawned", sum.tasks_spawned, "count");
  metrics->Set("parallel.task_steals", sum.task_steals, "count");
  metrics->Set("parallel.cpu_per_wall", cpu_total * 1e3 / mine_total,
               "ratio");
  metrics->Set("gen.queries", n, "count");
}

}  // namespace

void RunEnumGrid(const RunConfig& config, Tracer* tracer, Metrics* metrics,
                 Outcome* outcome) {
  RunGrid(EnumGridSpec(), config, tracer, metrics, outcome);
}

void RunMaxGrid(const RunConfig& config, Tracer* tracer, Metrics* metrics,
                Outcome* outcome) {
  RunGrid(MaxGridSpec(), config, tracer, metrics, outcome);
}

}  // namespace perfbench
