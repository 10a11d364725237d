// serve-live: an open-loop request schedule against a QueryServer that
// serves a lazily loaded v4 snapshot ("frozen") and an ingesting
// LiveWorkspace ("live"), while one closed-loop submitter pushes a
// hub-churn edge stream through an IngestPipeline. Latency runs from each
// request's due time to its response, so a stall is charged to every
// request it delays.

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/pipeline.h"
#include "core/workspace_update.h"
#include "datasets/dataset_spec.h"
#include "ingest/ingest_pipeline.h"
#include "ingest/live_workspace.h"
#include "server/query_server.h"
#include "server/workspace_registry.h"
#include "snapshot/workspace_snapshot.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

using krcore::EdgeUpdate;
using krcore::IngestPipeline;
using krcore::LiveWorkspace;
using krcore::PipelineOptions;
using krcore::PreparedWorkspace;
using krcore::QueryKind;
using krcore::QueryRequest;
using krcore::QueryResponse;
using krcore::QueryServer;
using krcore::Status;
using krcore::VertexId;
using krcore::WorkspaceRegistry;

/// The skewed substrate (power-law hubs, clustered keyword sets; Jaccard, so
/// the self-join runs the token filter), fixed across seeds; --seed draws
/// the request mix and the edge stream.
constexpr double kDatasetScale = 0.5;
constexpr uint64_t kDatasetSeed = 1;
constexpr uint32_t kBaseK = 3;
constexpr double kServeR = 0.10;  // loosest served threshold
constexpr double kCoverR = 0.20;  // strictest served threshold

/// Light cells: derivation, the server stages and ingestion carry the time
/// here, and search stays a few milliseconds per query.
struct Cell {
  uint32_t k;
  double r;
};
const Cell kCells[] = {{3, 0.18}, {3, 0.20}, {4, 0.10}, {4, 0.12}};
constexpr size_t kNumCells = sizeof(kCells) / sizeof(kCells[0]);

/// Open-loop arrival rate, chosen so the mine stage is about half busy,
/// and the generator's lateness limit beyond which a run is invalid.
constexpr double kQueriesPerSecond = 120.0;
constexpr double kMaxLateMsP99 = 50.0;
/// One request in this many repeats its predecessor at the same due time,
/// so the duplicate is in flight with its original and coalesces.
constexpr size_t kDuplicateEvery = 5;

/// The edge stream: a fixed number of batches per second of run, sized so
/// ingesting it takes most of the query window at the parent commit. A
/// fixed stream gives every run the same final live graph.
constexpr int kUpdatesPerBatch = 160;
constexpr double kBatchesPerSecond = 320.0;
constexpr size_t kQueuedBatches = 4;
/// Length of the untimed warm-up pass.
constexpr double kWarmupSeconds = 3.0;
/// Threads blocking on responses; more than the requests ever in flight.
constexpr int kWaiterThreads = 16;

/// Quadratic bias toward low ids, where the skewed generator puts its hubs.
VertexId HubBiased(krcore::Rng* rng, VertexId n) {
  const double x = rng->NextDouble();
  return static_cast<VertexId>(std::min<double>(n - 1, x * x * n));
}

/// Hub churn that keeps the graph near its original shape: each update
/// inserts a similar pair at a hub-biased vertex, removes a pair the stream
/// inserted, removes an original similar edge, or reinserts one it removed,
/// with at most kChurnCap stream edges added and kChurnCap original edges
/// missing at any time. Every update reaches the similarity-filtered graph
/// the repair engine maintains, and live queries cost about what frozen
/// ones do however far the stream has run.
constexpr size_t kChurnCap = 256;

std::vector<std::vector<EdgeUpdate>> MakeStream(
    const krcore::Graph& g, const krcore::SimilarityOracle& oracle,
    size_t batches, uint64_t seed) {
  using Edge = std::pair<VertexId, VertexId>;
  krcore::Rng rng(seed);
  const VertexId n = g.num_vertices();
  std::vector<Edge> original;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v && oracle.Similar(u, v)) original.push_back({u, v});
    }
  }
  std::vector<char> missing(original.size(), 0);
  std::vector<Edge> added;
  std::vector<size_t> removed;  // indexes into `original`
  auto take = [&rng](auto* pool) {
    const size_t i = rng.NextBounded(pool->size());
    auto item = (*pool)[i];
    (*pool)[i] = pool->back();
    pool->pop_back();
    return item;
  };
  std::vector<std::vector<EdgeUpdate>> stream(batches);
  for (auto& batch : stream) {
    batch.reserve(kUpdatesPerBatch);
    while (batch.size() < static_cast<size_t>(kUpdatesPerBatch)) {
      const double roll = rng.NextDouble();
      if (roll < 0.25 && added.size() < kChurnCap) {
        const VertexId u = HubBiased(&rng, n);
        for (int attempt = 0; attempt < 64; ++attempt) {
          const auto v = static_cast<VertexId>(rng.NextBounded(n));
          if (v != u && oracle.Similar(u, v)) {
            batch.push_back(EdgeUpdate::Insert(u, v));
            added.push_back({std::min(u, v), std::max(u, v)});
            break;
          }
        }
      } else if (roll < 0.5 && !added.empty()) {
        const Edge e = take(&added);
        batch.push_back(EdgeUpdate::Remove(e.first, e.second));
      } else if (roll < 0.75 && removed.size() < kChurnCap) {
        const size_t i = rng.NextBounded(original.size());
        if (missing[i]) continue;
        missing[i] = 1;
        removed.push_back(i);
        batch.push_back(
            EdgeUpdate::Remove(original[i].first, original[i].second));
      } else if (!removed.empty()) {
        const size_t i = take(&removed);
        missing[i] = 0;
        batch.push_back(
            EdgeUpdate::Insert(original[i].first, original[i].second));
      }
    }
  }
  return stream;
}

struct Planned {
  QueryRequest request;
  size_t cell = 0;
  size_t slot = 0;  // due time = start + slot / kQueriesPerSecond
};

/// The request list in exact proportions, so the mix does not vary with the
/// seed: distinct requests come in shuffled blocks holding every (workspace,
/// op, cell) combination once — half per workspace, 25% derive, 50% max,
/// 25% enum, which by latency puts p50 mid-way through the max requests and
/// p90 inside the enum ones — and every fifth request repeats its
/// predecessor at the same due time.
std::vector<Planned> MakePlan(size_t n, uint64_t seed) {
  std::vector<Planned> combos;
  for (const char* ws : {"frozen", "live"}) {
    for (int slot = 0; slot < 8; ++slot) {
      for (size_t cell = 0; cell < kNumCells; ++cell) {
        Planned p;
        p.request.workspace = ws;
        p.request.kind = slot < 2   ? QueryKind::kDerive
                         : slot < 6 ? QueryKind::kMaximum
                                    : QueryKind::kEnumerate;
        p.request.k = kCells[cell].k;
        p.request.r = kCells[cell].r;
        p.cell = cell;
        combos.push_back(p);
      }
    }
  }
  krcore::Rng rng(seed);
  std::vector<Planned> plan(n);
  size_t next = combos.size();
  for (size_t i = 0; i < n; ++i) {
    if (i % kDuplicateEvery == kDuplicateEvery - 1) {
      plan[i] = plan[i - 1];
    } else {
      if (next == combos.size()) {
        for (size_t j = combos.size(); j > 1; --j) {
          std::swap(combos[j - 1], combos[rng.NextBounded(j)]);
        }
        next = 0;
      }
      plan[i] = combos[next++];
      plan[i].slot = i;
    }
    plan[i].request.id = std::to_string(i);
  }
  return plan;
}

/// What the checks and metrics need from one response.
struct Sample {
  Status status;
  bool live = false;
  bool coalesced = false;
  uint64_t epoch = 0;
  uint64_t count = 0;
  uint64_t components = 0;
  uint64_t fingerprint = 0;
  double late_ms = 0.0;     // sent - due
  double latency_ms = 0.0;  // ready - due
  double wait_s = 0.0, derive_s = 0.0, mine_s = 0.0;
  krcore::MiningStats stats;
};

/// The serving stack over one prepared base: the snapshot registered lazily
/// as "frozen" and a LiveWorkspace registered as "live".
struct Stack {
  std::unique_ptr<WorkspaceRegistry> registry;
  std::shared_ptr<LiveWorkspace> live;
  double save_s = 0.0;
  double load_s = 0.0;
};

Status BuildStack(const krcore::Dataset& dataset,
                  const krcore::SimilarityOracle& oracle,
                  const PreparedWorkspace& base, const std::string& path,
                  Tracer* tracer, Stack* out) {
  Clock::time_point t = Clock::now();
  if (Status s = krcore::SaveWorkspaceSnapshot(base, path); !s.ok()) return s;
  tracer->Add("snapshot_save", tracer->ToTracerTime(t), tracer->Now(), 0, 0);
  out->save_s = SecondsBetween(t, Clock::now());

  out->registry = std::make_unique<WorkspaceRegistry>();
  t = Clock::now();
  if (Status s = out->registry->AddFromSnapshot(
          "frozen", path, WorkspaceRegistry::SnapshotLoadMode::kLazy);
      !s.ok()) {
    return s;
  }
  tracer->Add("snapshot_load", tracer->ToTracerTime(t), tracer->Now(), 0, 0);
  out->load_s = SecondsBetween(t, Clock::now());

  t = Clock::now();
  out->live = std::make_shared<LiveWorkspace>(dataset.graph, oracle, base);
  Status s = out->registry->AddLive("live", out->live);
  tracer->Add("live_init", tracer->ToTracerTime(t), tracer->Now(), 0, 0);
  return s;
}

krcore::ServerOptions MakeServerOptions() {
  krcore::ServerOptions options;
  options.derive_threads = 1;
  options.mine_threads = 1;
  options.parallel.num_threads = 1;
  options.coalesce = true;
  // Room for a few seconds of arrivals: a host stall must not turn into
  // rejections, which would void the open-loop figures.
  options.queue_capacity = 1024;
  return options;
}

struct PhaseResult {
  std::vector<Sample> samples;
  double wall_s = 0.0;  // first due time to last response
  double first_frozen_query_ms = 0.0;
  krcore::ServerStatsSnapshot server_before, server_after;
  krcore::IngestStatsSnapshot ingest;
  uint64_t submitted_batches = 0;
  uint64_t submitted_updates = 0;
  double ingest_wall_s = 0.0;  // first Submit to the return of Flush
};

/// One pass of the open-loop schedule against `stack` while the edge stream
/// ingests into its live workspace. The submitter pushes the whole stream
/// and flushes; requests arrive on schedule until at least `nominal` are
/// sent and Flush has returned.
void RunPhase(const Stack& stack, const std::vector<Planned>& plan,
              size_t nominal,
              const std::vector<std::vector<EdgeUpdate>>& stream,
              Tracer* tracer, PhaseResult* out) {
  QueryServer server(stack.registry.get(), MakeServerOptions());
  server.Start();

  // Warm-up, untimed: every (workspace, op, cell) once; the first frozen
  // query pays the lazy snapshot's first-touch validation.
  for (const char* ws : {"frozen", "live"}) {
    for (QueryKind kind :
         {QueryKind::kEnumerate, QueryKind::kMaximum, QueryKind::kDerive}) {
      for (const Cell& c : kCells) {
        QueryRequest q;
        q.workspace = ws;
        q.kind = kind;
        q.k = c.k;
        q.r = c.r;
        const Clock::time_point t = Clock::now();
        server.Execute(q);
        if (out->first_frozen_query_ms == 0.0) {
          out->first_frozen_query_ms = SecondsBetween(t, Clock::now()) * 1e3;
        }
      }
    }
  }
  out->server_before = server.Stats();

  krcore::IngestOptions ingest_options;
  ingest_options.update.max_dirty_fraction = 0.35;
  ingest_options.publish_every_applies = 1;
  ingest_options.max_queued_updates = kQueuedBatches * kUpdatesPerBatch;
  IngestPipeline pipeline(stack.live.get(), ingest_options);
  pipeline.Start();

  struct Pending {
    size_t index = 0;
    Clock::time_point due;
    Clock::time_point sent;
    std::shared_future<QueryResponse> future;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Pending> handed_over;
  bool generator_done = false;
  std::atomic<bool> flushed{false};
  size_t sent_count = 0;

  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kQueriesPerSecond));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);

  std::thread submitter([&] {
    const Clock::time_point first = Clock::now();
    for (const auto& batch : stream) {
      const double t0 = tracer->Now();
      if (!pipeline.Submit(batch).ok()) break;
      tracer->Add("ingest_submit", t0, tracer->Now(), 0, 0);
      ++out->submitted_batches;
      out->submitted_updates += batch.size();
    }
    const double t0 = tracer->Now();
    pipeline.Flush();
    tracer->Add("ingest_flush", t0, tracer->Now(), 0, 0);
    out->ingest_wall_s = SecondsBetween(first, Clock::now());
    flushed.store(true, std::memory_order_release);
  });

  std::thread generator([&] {
    for (size_t i = 0; i < plan.size(); ++i) {
      if (i >= nominal && flushed.load(std::memory_order_acquire)) break;
      const Clock::time_point due =
          start + interval * static_cast<int64_t>(plan[i].slot);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      std::shared_future<QueryResponse> future =
          server.Submit(plan[i].request);
      {
        std::lock_guard<std::mutex> lock(mu);
        handed_over.push_back(Pending{i, due, sent, std::move(future)});
      }
      cv.notify_one();
      sent_count = i + 1;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      generator_done = true;
    }
    cv.notify_all();
  });

  // Waiters: responses complete out of order (derive-only requests skip
  // the mine stage), so each of a few threads blocks on one response at a
  // time and stamps it the moment it is ready — no polling.
  out->samples.assign(plan.size(), Sample{});
  Clock::time_point last_ready = start;
  auto wait_for_responses = [&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return !handed_over.empty() || generator_done; });
        if (handed_over.empty()) return;
        p = std::move(handed_over.front());
        handed_over.pop_front();
      }
      const QueryResponse& r = p.future.get();
      const Clock::time_point ready = Clock::now();
      Sample& s = out->samples[p.index];
      s.status = r.status;
      s.live = r.live;
      s.coalesced = r.coalesced;
      s.epoch = r.epoch;
      s.count = r.count;
      s.components = r.num_components;
      s.fingerprint = Fingerprint(r.cores);
      s.late_ms = SecondsBetween(p.due, p.sent) * 1e3;
      s.latency_ms = SecondsBetween(p.due, ready) * 1e3;
      s.wait_s = r.wait_seconds;
      s.derive_s = r.derive_seconds;
      s.mine_s = r.mine_seconds;
      s.stats = r.stats;
      if (tracer->enabled()) {
        // The response's stage timings become children of its request.
        const uint64_t request = p.index + 1;
        const double t0 = tracer->ToTracerTime(p.sent);
        const double t1 = tracer->ToTracerTime(ready);
        const uint64_t id = tracer->Add("server_submit", t0, t1, 0, request);
        double t = t0;
        for (const auto& [name, seconds] :
             {std::pair<const char*, double>{"server_wait", r.wait_seconds},
              {"server_derive", r.derive_seconds},
              {"server_mine", r.mine_seconds}}) {
          const double end = std::min(t1, t + seconds);
          tracer->Add(name, t, end, id, request);
          t = end;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      last_ready = std::max(last_ready, ready);
    }
  };
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiterThreads; ++w) {
    waiters.emplace_back(wait_for_responses);
  }
  generator.join();
  for (std::thread& w : waiters) w.join();
  submitter.join();
  out->samples.resize(sent_count);
  out->wall_s = SecondsBetween(start, last_ready);
  out->server_after = server.Stats();
  out->ingest = pipeline.Stats();
  pipeline.Stop();
  server.Stop();
}

/// Structural equality of a published version with a cold preparation of
/// its stream prefix: component layout, structure rows and dissimilarity
/// rows. Returns "" when equal.
std::string CompareWorkspaces(const PreparedWorkspace& got,
                              const PreparedWorkspace& cold) {
  if (got.components.size() != cold.components.size()) {
    return "component count " + std::to_string(got.components.size()) +
           " vs cold " + std::to_string(cold.components.size());
  }
  for (size_t c = 0; c < cold.components.size(); ++c) {
    const krcore::ComponentContext& a = got.components[c];
    const krcore::ComponentContext& b = cold.components[c];
    const std::string where = "component " + std::to_string(c);
    if (a.to_parent != b.to_parent) return where + ": vertex map differs";
    if (a.dissimilar.num_pairs() != b.dissimilar.num_pairs()) {
      return where + ": dissimilar pair count differs";
    }
    for (VertexId u = 0; u < a.size(); ++u) {
      auto an = a.graph.neighbors(u);
      auto bn = b.graph.neighbors(u);
      auto ad = a.dissimilar[u];
      auto bd = b.dissimilar[u];
      if (!std::equal(an.begin(), an.end(), bn.begin(), bn.end()) ||
          !std::equal(ad.begin(), ad.end(), bd.begin(), bd.end())) {
        return where + ": rows differ at vertex " + std::to_string(u);
      }
    }
  }
  return "";
}

/// The direct answer a frozen response must equal: derive the cell from the
/// in-memory base and mine it with the server's engine settings.
Sample DirectAnswer(const PreparedWorkspace& base, QueryKind kind,
                    const Cell& cell, const PipelineOptions& prep) {
  Sample s;
  PreparedWorkspace ws;
  s.status = krcore::DeriveWorkspace(base, cell.k, cell.r, prep, &ws);
  if (!s.status.ok()) return s;
  const krcore::ServerOptions server = MakeServerOptions();
  if (kind == QueryKind::kEnumerate) {
    krcore::EnumOptions options = server.enumerate;
    options.k = cell.k;
    options.parallel = server.parallel;
    krcore::MaximalCoresResult r =
        krcore::EnumerateMaximalCores(ws.components, options);
    s.status = r.status;
    s.count = r.cores.size();
    s.fingerprint = Fingerprint(r.cores);
  } else if (kind == QueryKind::kMaximum) {
    krcore::MaxOptions options = server.maximum;
    options.k = cell.k;
    options.parallel = server.parallel;
    krcore::MaximumCoreResult r = krcore::FindMaximumCore(ws.components, options);
    s.status = r.status;
    s.count = r.best.size();
  } else {
    s.count = ws.num_vertices();
    s.components = ws.components.size();
  }
  return s;
}

bool SameAnswer(QueryKind kind, const Sample& got, const Sample& want) {
  if (!got.status.ok() || !want.status.ok()) return false;
  switch (kind) {
    case QueryKind::kEnumerate:
      return got.count == want.count && got.fingerprint == want.fingerprint;
    case QueryKind::kMaximum:
      return got.count == want.count;
    case QueryKind::kDerive:
      return got.count == want.count && got.components == want.components;
  }
  return false;
}

std::vector<double> Collect(const std::vector<Sample>& samples,
                            double Sample::*field, double scale) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.*field * scale);
  return out;
}

void SetPercentile(Metrics* metrics, const std::string& name,
                   const std::vector<double>& ms, double q) {
  if (std::optional<double> v = TailPercentile(ms, q)) {
    metrics->Set(name, *v, "ms", ms.size());
  }
}

}  // namespace

void RunServeLive(const RunConfig& config, Tracer* tracer, Metrics* metrics,
                  Outcome* outcome) {
  krcore::Dataset dataset;
  if (Status s = krcore::MakeDataset({"skewed", kDatasetScale, kDatasetSeed},
                                     &dataset);
      !s.ok()) {
    outcome->errors.push_back("dataset: " + s.ToString());
    return;
  }
  const krcore::SimilarityOracle oracle = dataset.MakeOracle(kServeR);
  PipelineOptions prep;
  prep.k = kBaseK;
  prep.score_cover = kCoverR;
  const size_t num_queries =
      static_cast<size_t>(std::llround(kQueriesPerSecond * config.seconds));
  // Slack past the nominal count for the schedule to run on until Flush
  // returns.
  const std::vector<Planned> plan = MakePlan(
      num_queries + static_cast<size_t>(kQueriesPerSecond * 30), config.seed);
  const std::vector<std::vector<EdgeUpdate>> stream = MakeStream(
      dataset.graph, oracle,
      static_cast<size_t>(std::llround(kBatchesPerSecond * config.seconds)),
      config.seed * 31 + 7);
  const std::string snapshot = config.work_dir + "/serve-live-seed" +
                               std::to_string(config.seed) + ".krws";

  // Setup, repeated: inputs -> prepared base -> v4 snapshot -> lazy load ->
  // live workspace; the last stack serves.
  PreparedWorkspace base;
  krcore::PreprocessReport report;
  Stack stack;
  std::vector<double> setup_s, prepare_s, save_s, load_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    base = PreparedWorkspace();
    report = krcore::PreprocessReport();
    stack = Stack();
    const Clock::time_point t0 = Clock::now();
    Status s = krcore::PrepareWorkspace(dataset.graph, oracle, prep, &base,
                                        &report);
    tracer->Add("prepare", tracer->ToTracerTime(t0), tracer->Now(), 0, 0);
    prepare_s.push_back(SecondsBetween(t0, Clock::now()));
    if (s.ok()) s = BuildStack(dataset, oracle, base, snapshot, tracer, &stack);
    if (!s.ok()) {
      outcome->errors.push_back("setup: " + s.ToString());
      return;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    save_s.push_back(stack.save_s);
    load_s.push_back(stack.load_s);
  }

  // Warm-up, untimed: a short stretch of the same traffic and stream on a
  // throwaway stack, so allocator growth and first-touch page faults of the
  // serving and ingest threads land outside the measured pass.
  {
    Tracer off(false);
    Stack scratch;
    const std::string scratch_path = snapshot + ".warmup";
    const size_t warm_batches = std::min(
        stream.size(), static_cast<size_t>(kBatchesPerSecond * kWarmupSeconds));
    const std::vector<std::vector<EdgeUpdate>> warm_stream(
        stream.begin(), stream.begin() + warm_batches);
    PhaseResult ignored;
    if (Status s = BuildStack(dataset, oracle, base, scratch_path, &off,
                              &scratch);
        !s.ok()) {
      outcome->errors.push_back("warm-up: " + s.ToString());
      return;
    }
    RunPhase(scratch, plan,
             static_cast<size_t>(kQueriesPerSecond * kWarmupSeconds),
             warm_stream, &off, &ignored);
    std::remove(scratch_path.c_str());
  }

  PhaseResult phase;
  if (tracer->enabled()) {
    // Untraced pass on this stack, traced pass on a fresh one from the
    // same base: the difference in summed latency is the overhead.
    Tracer off(false);
    PhaseResult untraced;
    RunPhase(stack, plan, num_queries, stream, &off, &untraced);
    Stack fresh;
    if (Status s = BuildStack(dataset, oracle, base, snapshot, &off, &fresh);
        !s.ok()) {
      outcome->errors.push_back("setup: " + s.ToString());
      return;
    }
    stack = std::move(fresh);
    RunPhase(stack, plan, num_queries, stream, tracer, &phase);
    double a = 0.0, b = 0.0;
    for (const Sample& s : untraced.samples) a += s.latency_ms;
    for (const Sample& s : phase.samples) b += s.latency_ms;
    metrics->Set("trace.overhead_frac", (b - a) / a, "ratio");
  } else {
    RunPhase(stack, plan, num_queries, stream, tracer, &phase);
  }
  const double peak_rss = PeakRssMb();
  struct stat file {};
  const double file_mb =
      stat(snapshot.c_str(), &file) == 0 ? file.st_size / 1048576.0 : 0.0;
  std::remove(snapshot.c_str());

  // Validity of the open-loop figures.
  const std::vector<double> late = Collect(phase.samples, &Sample::late_ms, 1);
  const double late_p99 = TailPercentile(late, 0.99).value_or(0.0);
  const double late_max =
      late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  const krcore::ServerStatsSnapshot& sa = phase.server_after;
  const krcore::ServerStatsSnapshot& sb = phase.server_before;
  const uint64_t rejected = (sa.rejected_queue_full - sb.rejected_queue_full) +
                            (sa.rejected_unservable - sb.rejected_unservable);
  if (late_p99 > kMaxLateMsP99) {
    outcome->invalid = "generator fell behind its schedule (late p99 " +
                       std::to_string(late_p99) + " ms)";
  } else if (rejected > 0) {
    outcome->invalid = std::to_string(rejected) + " requests rejected";
  }

  // Exactness, untimed. Frozen responses equal the direct derive + mine of
  // their cell; the final live version equals a cold preparation of the
  // submitted stream prefix; live responses must be OK.
  std::map<std::pair<int, size_t>, Sample> direct;
  uint64_t ok_queries = 0;
  for (size_t i = 0; i < phase.samples.size(); ++i) {
    const Sample& s = phase.samples[i];
    const QueryKind kind = plan[i].request.kind;
    bool ok = s.status.ok();
    if (ok && !s.live) {
      const auto key = std::make_pair(static_cast<int>(kind), plan[i].cell);
      auto it = direct.find(key);
      if (it == direct.end()) {
        Sample want = DirectAnswer(base, kind, kCells[plan[i].cell], prep);
        if (config.corrupt_expected && direct.empty()) want.count += 1;
        it = direct.emplace(key, want).first;
      }
      ok = SameAnswer(kind, s, it->second);
    }
    if (ok) {
      ++ok_queries;
    } else if (outcome->errors.size() < 5) {
      outcome->errors.push_back("request " + plan[i].request.id + " (" +
                                plan[i].request.workspace + " " +
                                krcore::QueryKindName(kind) + "): " +
                                (s.status.ok() ? "differs from direct answer"
                                               : s.status.ToString()));
    }
  }

  const krcore::IngestStatsSnapshot& ingest = phase.ingest;
  bool stream_ok = ingest.rolled_back_batches == 0;
  std::string live_error = stream_ok ? "" : "batches rolled back";
  krcore::PublishedVersion final_version = stack.live->Current();
  if (stream_ok &&
      final_version.batches_applied != phase.submitted_batches) {
    stream_ok = false;
    live_error = "final version covers " +
                 std::to_string(final_version.batches_applied) + " of " +
                 std::to_string(phase.submitted_batches) + " batches";
  }
  if (stream_ok) {
    krcore::EdgeSetMirror mirror(dataset.graph);
    for (uint64_t b = 0; b < phase.submitted_batches; ++b) {
      mirror.Apply(stream[b]);
    }
    PreparedWorkspace cold;
    Status s = krcore::PrepareWorkspace(mirror.Build(), oracle, prep, &cold);
    live_error = s.ok() ? CompareWorkspaces(*final_version.workspace, cold)
                        : "cold prepare: " + s.ToString();
    stream_ok = live_error.empty();
  }
  if (!stream_ok) outcome->errors.push_back("live: " + live_error);

  const uint64_t batches = phase.submitted_batches;
  outcome->attempted = phase.samples.size() + batches;
  outcome->failed = outcome->attempted - ok_queries - (stream_ok ? batches : 0);
  std::printf(
      "phase: %zu queries in %.3f s, %llu update batches (%llu raw) in "
      "%.3f s, final epoch %llu, late p99 %.3f ms\n",
      phase.samples.size(), phase.wall_s, (unsigned long long)batches,
      (unsigned long long)phase.submitted_updates, phase.ingest_wall_s,
      (unsigned long long)final_version.epoch, late_p99);

  // End-to-end.
  const std::vector<Sample>& samples = phase.samples;
  const uint64_t n = samples.size();
  metrics->Set("setup_s", Median(setup_s), "s", setup_s.size());
  metrics->Set("queries_per_s", n / phase.wall_s, "1/s", n);
  if (std::string missing = metrics->SetLatencies(
          "query", Collect(samples, &Sample::latency_ms, 1));
      !missing.empty()) {
    outcome->errors.push_back("too few samples for " + missing);
  }
  metrics->Set("ok_frac",
               static_cast<double>(outcome->attempted - outcome->failed) /
                   outcome->attempted,
               "ratio", outcome->attempted);
  metrics->Set("peak_rss_mb", peak_rss, "MB");

  // Per layer.
  metrics->Set("join.oracle_calls", report.oracle_calls, "count");
  metrics->Set("join.pruned_frac",
               report.pairs_evaluated
                   ? static_cast<double>(report.pruned_pairs) /
                         report.pairs_evaluated
                   : 0.0,
               "ratio");
  metrics->Set("prepare.s", Median(prepare_s), "s", prepare_s.size());
  metrics->Set("prepare.index_mb", report.index_bytes / 1048576.0, "MB");
  metrics->Set("prepare.components", report.components, "count");

  double latency_total = 0.0, derive_total = 0.0, mine_total = 0.0;
  double leader_mine = 0.0;
  krcore::MiningStats sum;
  std::vector<double> derive_ms, mine_ms;
  std::set<uint64_t> epochs;
  for (size_t i = 0; i < n; ++i) {
    const Sample& s = samples[i];
    latency_total += s.latency_ms / 1e3;
    derive_total += s.derive_s;
    mine_total += s.mine_s;
    derive_ms.push_back(s.derive_s * 1e3);
    if (plan[i].request.kind != QueryKind::kDerive) {
      mine_ms.push_back(s.mine_s * 1e3);
    }
    if (!s.coalesced) {
      sum.MergeFrom(s.stats);
      leader_mine += s.mine_s;
    }
    if (s.live) epochs.insert(s.epoch);
  }
  metrics->Set("derive.ms_p50", Median(derive_ms), "ms", n);
  metrics->Set("derive.share", derive_total / latency_total, "ratio");
  metrics->Set("search.nodes", sum.search_nodes, "count");
  metrics->Set("search.us_per_node",
               sum.search_nodes ? leader_mine * 1e6 / sum.search_nodes : 0.0,
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

  metrics->Set("snapshot.save_s", Median(save_s), "s", save_s.size());
  metrics->Set("snapshot.load_s", Median(load_s), "s", load_s.size());
  metrics->Set("snapshot.file_mb", file_mb, "MB");
  metrics->Set("snapshot.first_frozen_query_ms", phase.first_frozen_query_ms,
               "ms");

  const std::vector<double> wait_ms = Collect(samples, &Sample::wait_s, 1e3);
  metrics->Set("server.wait_ms_p50", Median(wait_ms), "ms", n);
  SetPercentile(metrics, "server.wait_ms_p99", wait_ms, 0.99);
  metrics->Set("server.derive_ms_p50", Median(derive_ms), "ms", n);
  metrics->Set("server.mine_ms_p50", Median(mine_ms), "ms", mine_ms.size());
  SetPercentile(metrics, "server.mine_ms_p99", mine_ms, 0.99);
  const uint64_t received = sa.received - sb.received;
  metrics->Set("server.coalesce_frac",
               received ? static_cast<double>(sa.coalesce_hits -
                                              sb.coalesce_hits) /
                              received
                        : 0.0,
               "ratio");
  metrics->Set("server.derive_busy_frac",
               (sa.derive.service_seconds - sb.derive.service_seconds) /
                   phase.wall_s,
               "ratio");
  metrics->Set("server.mine_busy_frac",
               (sa.mine.service_seconds - sb.mine.service_seconds) /
                   phase.wall_s,
               "ratio");
  metrics->Set("server.max_queue_depth",
               std::max(sa.derive.max_queue_depth, sa.mine.max_queue_depth),
               "count");
  metrics->Set("server.rejected", rejected, "count");

  metrics->Set("ingest.updates_per_s",
               phase.submitted_updates / phase.ingest_wall_s, "1/s");
  metrics->Set("ingest.busy_updates_per_s", ingest.UpdatesPerSecond(), "1/s");
  metrics->Set("ingest.apply_s", ingest.apply_seconds, "s");
  metrics->Set("ingest.publish_s", ingest.publish_seconds, "s");
  metrics->Set("ingest.emitted_frac",
               ingest.submitted_updates
                   ? static_cast<double>(ingest.emitted_updates) /
                         ingest.submitted_updates
                   : 0.0,
               "ratio");
  metrics->Set("ingest.applied_batches", ingest.applied_batches, "count");
  metrics->Set("ingest.fallback_rebuilds", ingest.fallback_rebuilds, "count");
  metrics->Set("ingest.rolled_back_batches", ingest.rolled_back_batches,
               "count");
  metrics->Set("ingest.max_staleness_ms", ingest.max_staleness_seconds * 1e3,
               "ms");
  metrics->Set("live.epochs_served", epochs.size(), "count");

  metrics->Set("gen.queries", n, "count");
  metrics->Set("gen.update_batches", batches, "count");
  metrics->Set("gen.late_ms_p99", late_p99, "ms", late.size());
  metrics->Set("gen.late_ms_max", late_max, "ms", late.size());
}

}  // namespace perfbench
