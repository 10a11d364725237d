// Command-line miner: enumerate maximal (k,r)-cores or find the maximum one
// on a user-supplied edge list + attribute file (see graph_io.h and
// attributes_io.h for the formats), or on a generated paper-analogue
// dataset. This is the entry point for using the library on external data.
//
// Usage:
//   krcore_cli --graph=edges.txt --attrs=attrs.txt --metric=jaccard \
//              --k=5 --r=0.6 [--mode=enum|max] [--timeout=60] [--out=cores.txt]
//   krcore_cli --dataset=gowalla --scale=0.2 --k=5 --r=25 --mode=max
//   krcore_cli --dataset=dblp --k=10 --permille=3       (calibrated r)
//
// Prepared-workspace workflow (save the Algorithm 1 preprocessing once,
// answer many (k,r) queries from it):
//   krcore_cli --dataset=gowalla --k=3 --r=25 --snapshot_out=ws.krws
//   krcore_cli --snapshot_in=ws.krws --k=5 --mode=max      (k >= saved k)
//   krcore_cli --snapshot_in=ws.krws --sweep=3,4,5,6
//   krcore_cli --dataset=gowalla --r=0 --sweep=3,4x10,25 --mode=enum
//
// Live edge updates (`+u v` / `-u v` lines, blank line = batch boundary):
// replay each batch into the prepared workspace incrementally and re-mine —
// no O(n^2) re-prepare between batches:
//   krcore_cli --dataset=gowalla --k=4 --r=25 --updates=stream.txt
//
// Exits non-zero on error; prints one core per line (sorted vertex ids).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/parameter_sweep.h"
#include "core/workspace_update.h"
#include "datasets/generators.h"
#include "ingest/ingest_pipeline.h"
#include "graph/graph_io.h"
#include "similarity/attributes_io.h"
#include "similarity/threshold.h"
#include "snapshot/workspace_snapshot.h"
#include "util/failpoint.h"
#include "util/options.h"

using namespace krcore;

namespace {

bool ParseMetric(const std::string& name, Metric* metric) {
  if (name == "jaccard") {
    *metric = Metric::kJaccard;
  } else if (name == "weighted_jaccard") {
    *metric = Metric::kWeightedJaccard;
  } else if (name == "cosine") {
    *metric = Metric::kCosine;
  } else if (name == "euclidean" || name == "distance") {
    *metric = Metric::kEuclideanDistance;
  } else {
    return false;
  }
  return true;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

std::vector<std::string> SplitOn(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(s);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

bool ParseKs(const std::string& spec, std::vector<uint32_t>* ks) {
  for (const std::string& p : SplitOn(spec, ',')) {
    char* end = nullptr;
    long v = std::strtol(p.c_str(), &end, 10);
    if (p.empty() || *end != '\0' || v <= 0 ||
        v > std::numeric_limits<uint32_t>::max()) {
      return false;
    }
    ks->push_back(static_cast<uint32_t>(v));
  }
  return !ks->empty();
}

bool ParseRs(const std::string& spec, std::vector<double>* rs) {
  for (const std::string& p : SplitOn(spec, ',')) {
    char* end = nullptr;
    double v = std::strtod(p.c_str(), &end);
    if (p.empty() || *end != '\0') return false;
    rs->push_back(v);
  }
  return !rs->empty();
}

/// Sorts ascending and drops duplicates. The sweep engine honors duplicate
/// grid entries as duplicate cells (in every reuse mode), so a spec like
/// 3,3x10,10 used to silently mine — and without reuse, re-sweep — the
/// same cell four times; normalizing the spec here keeps both reuse modes
/// mining each distinct cell exactly once, in a deterministic order.
template <typename T>
void SortDedupe(std::vector<T>* values) {
  std::sort(values->begin(), values->end());
  values->erase(std::unique(values->begin(), values->end()), values->end());
}

/// Parses "--sweep=k1,k2[xr1,r2]". The r part is optional (snapshot sweeps
/// default to the baked-in threshold; graph sweeps default to --r). Both
/// axes are sorted and deduplicated.
bool ParseSweepSpec(const std::string& spec, std::vector<uint32_t>* ks,
                    std::vector<double>* rs) {
  auto halves = SplitOn(spec, 'x');
  if (halves.empty() || halves.size() > 2) return false;
  if (!ParseKs(halves[0], ks)) return false;
  if (halves.size() == 2 && !ParseRs(halves[1], rs)) return false;
  SortDedupe(ks);
  SortDedupe(rs);
  return true;
}

/// Parses an edge-update stream: one `+u v` (insert) or `-u v` (remove)
/// line per update, optional whitespace after the sign, `#` comment lines
/// skipped; a blank line closes the current batch. Returns false (with a
/// message in *error) on any malformed line.
bool ParseUpdateStream(std::istream& in,
                       std::vector<std::vector<EdgeUpdate>>* batches,
                       std::string* error) {
  std::vector<EdgeUpdate> current;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) {
      if (!current.empty()) {
        batches->push_back(std::move(current));
        current.clear();
      }
      continue;
    }
    if (line[start] == '#') continue;
    char sign = line[start];
    if (sign != '+' && sign != '-') {
      *error = "line " + std::to_string(line_no) +
               ": expected '+u v' or '-u v', got: " + line;
      return false;
    }
    unsigned long long u = 0, v = 0;
    std::istringstream fields(line.substr(start + 1));
    if (!(fields >> u >> v)) {
      *error = "line " + std::to_string(line_no) +
               ": expected two vertex ids after '" + sign + "': " + line;
      return false;
    }
    // Reject ids that do not fit a VertexId here, with the line number —
    // a silent narrowing cast could wrap onto a different, valid vertex.
    constexpr unsigned long long kMaxId =
        std::numeric_limits<VertexId>::max();
    if (u > kMaxId || v > kMaxId) {
      *error = "line " + std::to_string(line_no) +
               ": vertex id exceeds the 32-bit id space: " + line;
      return false;
    }
    std::string trailing;
    if (fields >> trailing) {
      *error = "line " + std::to_string(line_no) +
               ": trailing tokens after the edge: " + line;
      return false;
    }
    current.push_back(sign == '+'
                          ? EdgeUpdate::Insert(static_cast<VertexId>(u),
                                               static_cast<VertexId>(v))
                          : EdgeUpdate::Remove(static_cast<VertexId>(u),
                                               static_cast<VertexId>(v)));
  }
  if (!current.empty()) batches->push_back(std::move(current));
  return true;
}

/// One-line summary per mined sweep cell (the cell vertex sets are not
/// printed — sweeps are for surveying the parameter space).
void PrintSweepResult(const SweepResult& result, SweepMode mode) {
  for (const auto& cell : result.cells) {
    const MiningStats& stats = cell.stats(mode);
    uint64_t count = mode == SweepMode::kEnumerate
                         ? cell.enum_result.cores.size()
                         : cell.max_result.best.size();
    std::fprintf(stderr,
                 "  k=%-3u r=%-10g %s=%-6llu %s%ssec=%.3f\n", cell.k, cell.r,
                 mode == SweepMode::kEnumerate ? "cores" : "|max|",
                 (unsigned long long)count,
                 cell.derived ? "derived " : "swept   ",
                 cell.status(mode).ok() ? "" : "FAILED ", stats.seconds);
  }
  std::fprintf(stderr,
               "sweep: %zu cells, %llu pair sweeps, %llu derived, "
               "prepare %.3fs, total %.3fs, status %s\n",
               result.cells.size(), (unsigned long long)result.pair_sweeps,
               (unsigned long long)result.derived_cells,
               result.prepare_seconds, result.seconds,
               result.status.ToString().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  if (options.Has("help")) {
    std::printf(
        "krcore_cli --graph=E --attrs=A --metric=M --k=K --r=R "
        "[--mode=enum|max] [--timeout=S] [--threads=N] [--out=F]\n"
        "krcore_cli --dataset=brightkite|gowalla|dblp|pokec [--scale=S] "
        "--k=K (--r=R | --permille=P) [--mode=...]\n"
        "  --threads=N       0 = all hardware cores, 1 = sequential\n"
        "prepared workspaces (save preprocessing once, query many times):\n"
        "  --snapshot_out=F  prepare at (--k, --r), save the workspace to F,\n"
        "                    then serve the requested query from it\n"
        "  --cover=R2        also store the scores of the pairs that turn\n"
        "                    dissimilar between --r and R2 (at least as\n"
        "                    strict as --r): the snapshot then serves any\n"
        "                    r between the two, not just --r\n"
        "  --snapshot_in=F   load a workspace instead of a graph; --k >= the\n"
        "                    saved k is served by k-core derivation, and a\n"
        "                    snapshot saved with --cover serves any --r in\n"
        "                    its covered range by score filtering\n"
        "  --sweep=KS[xRS]   mine every (k,r) cell, e.g. 3,4,5x10,25 —\n"
        "                    ONE pair sweep total (score-annotated base at\n"
        "                    the loosest r, every cell derived). Specs are\n"
        "                    sorted and deduplicated. With --snapshot_in the\n"
        "                    r values must lie in the snapshot's range\n"
        "live updates (maintain the workspace under edge churn):\n"
        "  --updates=FILE    replay `+u v` / `-u v` lines; a blank line\n"
        "                    closes a batch. Each batch is applied\n"
        "                    incrementally (no re-prepare) and the query is\n"
        "                    re-mined; results are byte-identical to a cold\n"
        "                    rebuild. Output holds one result section per\n"
        "                    mining call, each preceded by a `# version N`\n"
        "                    line. Combine with --snapshot_out to save the\n"
        "                    final (versioned) workspace\n"
        "  --stream          streaming ingestion mode for --updates: a\n"
        "                    dedicated writer thread coalesces and applies\n"
        "                    the batches while this thread keeps mining the\n"
        "                    published immutable version — reads never wait\n"
        "                    on repair work. One result section per epoch\n"
        "                    observed (headers name epoch + stream position;\n"
        "                    how many epochs the reader catches depends on\n"
        "                    timing). Ingestion stats land on stderr as JSON\n"
        "  --publish_every=N publish cadence (= staleness bound) in applied\n"
        "                    repair batches for --stream (default 1)\n"
        "  --checkpoint=F    with --stream: crash-atomically checkpoint the\n"
        "                    latest published version to F (temp file +\n"
        "                    rename; the previous checkpoint stays loadable\n"
        "                    through a crash)\n"
        "fault injection (robustness testing; see README 'Failure model'):\n"
        "  --failpoints=SPEC arm failpoints, e.g.\n"
        "                    snapshot/rename=once,join/pairs=prob:0.01:7 —\n"
        "                    modes: off, once, every:N, prob:P[:SEED]. The\n"
        "                    KRCORE_FAILPOINTS env var takes the same spec\n");
    return 0;
  }

  // Env first, then the flag, so --failpoints= refines or overrides an
  // environment-armed configuration site by site.
  if (Status s = Failpoints::ConfigureFromEnv(); !s.ok()) {
    return Fail("KRCORE_FAILPOINTS: " + s.message());
  }
  if (options.Has("failpoints")) {
    if (Status s = Failpoints::Configure(options.GetString("failpoints", ""));
        !s.ok()) {
      return Fail("--failpoints: " + s.message());
    }
  }

  double timeout = options.GetDouble("timeout", 60.0);
  std::string mode = options.GetString("mode", "enum");
  // 1 = sequential, 0 = all hardware cores (per-component parallelism plus
  // intra-component subtree splitting).
  uint32_t threads = options.GetUint32("threads", 1);
  if (mode != "enum" && mode != "max") {
    return Fail("unknown --mode (use enum or max)");
  }
  if (options.Has("permille")) {
    Status s = CheckPermille(options.GetDouble("permille", 3.0));
    if (!s.ok()) return Fail(s.message());
  }

  auto MakeEnumOptions = [&](uint32_t k) {
    EnumOptions opts = AdvEnumOptions(k);
    opts.deadline = Deadline::AfterSeconds(timeout);
    opts.parallel.num_threads = threads;
    return opts;
  };
  auto MakeMaxOptions = [&](uint32_t k) {
    MaxOptions opts = AdvMaxOptions(k);
    opts.deadline = Deadline::AfterSeconds(timeout);
    opts.parallel.num_threads = threads;
    return opts;
  };
  auto MakeSweepOptions = [&]() {
    SweepOptions sweep;
    sweep.mode = mode == "enum" ? SweepMode::kEnumerate : SweepMode::kMaximum;
    sweep.enumerate = MakeEnumOptions(0);
    sweep.maximum = MakeMaxOptions(0);
    return sweep;
  };

  std::ofstream out_file;
  std::FILE* sink = stdout;
  std::string out_path = options.GetString("out", "");

  auto PrintCore = [&](const VertexSet& core) {
    std::string line;
    for (size_t i = 0; i < core.size(); ++i) {
      if (i) line += ' ';
      line += std::to_string(core[i]);
    }
    line += '\n';
    if (out_path.empty()) {
      std::fputs(line.c_str(), sink);
    } else {
      out_file << line;
    }
  };
  if (!out_path.empty()) {
    out_file.open(out_path);
    if (!out_file) return Fail("cannot open --out file: " + out_path);
  }

  /// Serves the single-cell query from prepared components.
  auto MineComponents = [&](const std::vector<ComponentContext>& components,
                            uint32_t k) {
    if (mode == "enum") {
      auto result = EnumerateMaximalCores(components, MakeEnumOptions(k));
      std::fprintf(stderr, "status: %s; %zu maximal (%u,r)-cores; %s\n",
                   result.status.ToString().c_str(), result.cores.size(), k,
                   result.stats.ToJson().c_str());
      for (const auto& core : result.cores) PrintCore(core);
      return result.status.ok() ? 0 : 2;
    }
    auto result = FindMaximumCore(components, MakeMaxOptions(k));
    std::fprintf(stderr, "status: %s; |maximum| = %zu; %s\n",
                 result.status.ToString().c_str(), result.best.size(),
                 result.stats.ToJson().c_str());
    if (!result.best.empty()) PrintCore(result.best);
    return result.status.ok() ? 0 : 2;
  };

  // --- Serving from a saved workspace: no graph, no attributes, no oracle.
  if (options.Has("snapshot_in")) {
    if (options.Has("snapshot_out")) {
      return Fail("--snapshot_out cannot be combined with --snapshot_in");
    }
    if (options.Has("updates")) {
      return Fail(
          "--updates needs the graph and oracle and cannot be combined with "
          "--snapshot_in; replay updates on the cold path (--dataset or "
          "--graph/--attrs) and persist the result with --snapshot_out");
    }
    PreparedWorkspace ws;
    Status s =
        LoadWorkspaceSnapshot(options.GetString("snapshot_in", ""), &ws);
    if (!s.ok()) return Fail(s.ToString());
    const std::string cover_note =
        ws.score_cover != ws.threshold
            ? " (scores cover r=" + std::to_string(ws.score_cover) + ")"
            : "";
    std::fprintf(stderr,
                 "loaded workspace: k=%u r=%g%s, %zu components, "
                 "%u vertices\n",
                 ws.k, ws.threshold, cover_note.c_str(),
                 ws.components.size(), ws.num_vertices());

    if (options.Has("sweep")) {
      std::vector<uint32_t> ks;
      std::vector<double> rs;
      if (!ParseSweepSpec(options.GetString("sweep", ""), &ks, &rs)) {
        return Fail("bad --sweep spec (want k1,k2[xr1,r2]); see --help");
      }
      options.RejectUnknown();
      // A snapshot serves any r between its serving threshold and its
      // cover; when the two are equal, only the baked-in r.
      if (rs.empty()) rs = {ws.threshold};
      SweepResult result =
          SweepPreparedWorkspace(ws, ks, rs, MakeSweepOptions());
      PrintSweepResult(result,
                       mode == "enum" ? SweepMode::kEnumerate
                                      : SweepMode::kMaximum);
      return result.status.ok() ? 0 : 2;
    }

    uint32_t k = options.GetUint32("k", ws.k);
    double query_r = options.GetDouble("r", ws.threshold);
    options.RejectUnknown();
    if (k == ws.k && query_r == ws.threshold) {
      return MineComponents(ws.components, k);
    }
    PipelineOptions pipe;
    pipe.k = k;
    pipe.deadline = Deadline::AfterSeconds(timeout);
    PreparedWorkspace derived;
    s = DeriveWorkspace(ws, k, query_r, pipe, &derived);
    if (!s.ok()) return Fail(s.ToString());
    std::fprintf(stderr, "derived (k=%u, r=%g) workspace: %zu components\n",
                 k, query_r, derived.components.size());
    return MineComponents(derived.components, k);
  }

  // --- Cold path. Every flag it reads is read here, so an unknown one
  // fails before the graph is built.
  const bool from_dataset = options.Has("dataset");
  const std::string dataset_name = options.GetString("dataset", "gowalla");
  const double scale = options.GetDouble("scale", 0.25);
  const int64_t seed = options.GetInt("seed", 1);
  const bool from_files = options.Has("graph") && options.Has("attrs");
  const std::string graph_path = options.GetString("graph", "");
  const std::string attrs_path = options.GetString("attrs", "");
  const std::string metric_flag = options.GetString("metric", "");
  const uint32_t k = options.GetUint32("k", 3);
  const bool has_r = options.Has("r");
  const double r_flag = options.GetDouble("r", 0.5);
  const bool has_updates = options.Has("updates");
  const std::string updates_path = options.GetString("updates", "");
  const bool has_sweep = options.Has("sweep");
  const std::string sweep_spec = options.GetString("sweep", "");
  const bool save = options.Has("snapshot_out");
  const std::string snapshot_out = options.GetString("snapshot_out", "");
  const bool has_cover = options.Has("cover");
  const double cover = options.GetDouble("cover", 0.0);
  const bool stream = options.GetBool("stream", false);
  const uint32_t publish_every =
      std::max(1u, options.GetUint32("publish_every", 1));
  const std::string checkpoint = options.GetString("checkpoint", "");
  options.RejectUnknown();

  // Build or read the attributed graph.
  Dataset dataset;
  if (from_dataset) {
    dataset = MakePaperAnalogue(dataset_name, scale, seed);
  } else {
    if (!from_files) {
      return Fail("need --graph and --attrs (or --dataset); see --help");
    }
    Status s = ReadEdgeList(graph_path, &dataset.graph);
    if (!s.ok()) return Fail(s.ToString());
    s = ReadAttributes(attrs_path, &dataset.attributes);
    if (!s.ok()) return Fail(s.ToString());
    if (dataset.attributes.size() < dataset.graph.num_vertices()) {
      return Fail("attribute file has fewer rows than graph vertices");
    }
    std::string metric_name = metric_flag;
    if (metric_name.empty()) {
      metric_name = dataset.attributes.kind() == AttributeTable::Kind::kGeo
                        ? "euclidean"
                        : "jaccard";
    }
    if (!ParseMetric(metric_name, &dataset.metric)) {
      return Fail("unknown metric: " + metric_name);
    }
    dataset.name = "user";
  }

  double r;
  if (options.Has("permille")) {
    if (IsDistanceMetric(dataset.metric) && !from_dataset) {
      std::fprintf(stderr,
                   "note: calibrating a distance threshold from the pairwise "
                   "distribution\n");
    }
    r = TopPermilleThreshold(dataset.MakeOracle(0.0),
                             dataset.graph.num_vertices(),
                             options.GetDouble("permille", 3.0));
    std::fprintf(stderr, "calibrated r = %.6f\n", r);
  } else if (has_r) {
    r = r_flag;
  } else {
    return Fail("need --r or --permille");
  }

  SimilarityOracle oracle = dataset.MakeOracle(r);

  // --- Live edge-update replay: prepare once, then maintain the workspace
  // through each batch and re-mine between batches. The maintained
  // substrate mines byte-identically to a cold rebuild of the updated
  // graph; --snapshot_out persists the final (versioned) workspace.
  if (has_updates) {
    if (has_sweep) {
      return Fail("--updates cannot be combined with --sweep");
    }
    std::ifstream updates_in(updates_path);
    if (!updates_in) return Fail("cannot open --updates file: " + updates_path);
    std::vector<std::vector<EdgeUpdate>> batches;
    std::string parse_error;
    if (!ParseUpdateStream(updates_in, &batches, &parse_error)) {
      return Fail("bad --updates stream: " + parse_error);
    }

    PipelineOptions pipe;
    pipe.k = k;
    pipe.deadline = Deadline::AfterSeconds(timeout);
    pipe.num_threads = threads;
    if (has_cover) pipe.score_cover = cover;
    PreparedWorkspace ws;
    Status s = PrepareWorkspace(dataset.graph, oracle, pipe, &ws);
    if (!s.ok()) return Fail(s.ToString());
    std::fprintf(stderr, "prepared workspace: k=%u r=%g, %zu components\n",
                 ws.k, ws.threshold, ws.components.size());

    // --- Streaming ingestion: writer thread applies + publishes, this
    // thread mines whichever immutable version is published — a read never
    // waits on a repair, a repair never waits on a read.
    if (stream) {
      LiveWorkspace live(dataset.graph, oracle, std::move(ws));
      IngestOptions ingest;
      ingest.publish_every_applies = publish_every;
      ingest.checkpoint_path = checkpoint;
      IngestPipeline pipeline(&live, ingest);

      auto WriteEpochHeader = [&](const PublishedVersion& v) {
        std::string line = "# epoch " + std::to_string(v.epoch) +
                           " batches " + std::to_string(v.batches_applied) +
                           " updates " + std::to_string(v.updates_applied) +
                           "\n";
        if (out_path.empty()) {
          std::fputs(line.c_str(), sink);
        } else {
          out_file << line;
        }
      };

      PublishedVersion version = live.Current();
      WriteEpochHeader(version);
      int exit_code = MineComponents(version.workspace->components, k);
      uint64_t mined_epoch = version.epoch;

      pipeline.Start();
      std::atomic<bool> ingest_done{false};
      std::thread submitter([&] {
        for (const auto& batch : batches) {
          // Submit blocks on backpressure only; a stopped pipeline is the
          // sole error and cannot happen while we own it.
          (void)pipeline.Submit(batch);
        }
        pipeline.Flush();
        ingest_done.store(true, std::memory_order_release);
      });

      // Reader loop: re-mine every time a new epoch becomes visible. The
      // version each pass pins stays bit-stable no matter how many batches
      // the writer applies meanwhile.
      while (true) {
        version = live.Current();
        if (version.epoch != mined_epoch) {
          mined_epoch = version.epoch;
          WriteEpochHeader(version);
          int code = MineComponents(version.workspace->components, k);
          if (exit_code == 0) exit_code = code;
          continue;  // catch up without sleeping
        }
        if (ingest_done.load(std::memory_order_acquire)) break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      submitter.join();
      pipeline.Stop();

      // Final state (Flush guarantees it is published).
      version = live.Current();
      if (version.epoch != mined_epoch) {
        WriteEpochHeader(version);
        int code = MineComponents(version.workspace->components, k);
        if (exit_code == 0) exit_code = code;
      }
      const IngestStatsSnapshot ingest_stats = pipeline.Stats();
      std::fprintf(stderr, "ingest: %s\n", ingest_stats.ToJson().c_str());
      if (ingest_stats.rolled_back_batches > 0) {
        std::fprintf(stderr,
                     "warning: %llu batches rolled back and dropped\n",
                     (unsigned long long)ingest_stats.rolled_back_batches);
      }
      if (save) {
        s = SaveWorkspaceSnapshot(*version.workspace, snapshot_out);
        if (!s.ok()) return Fail(s.ToString());
        std::fprintf(stderr,
                     "saved workspace (epoch=%llu version=%llu) to %s\n",
                     (unsigned long long)version.epoch,
                     (unsigned long long)version.workspace->version,
                     snapshot_out.c_str());
      }
      return exit_code;
    }

    WorkspaceUpdater updater(dataset.graph, oracle, &ws);
    UpdateOptions update_options;
    // One result section per mining call lands in --out/stdout; a comment
    // header tags each section with the graph version it was mined at, so
    // consumers can split the stream and tell stale sections from the
    // final state.
    auto WriteVersionHeader = [&](uint64_t version) {
      std::string line = "# version " + std::to_string(version) + "\n";
      if (out_path.empty()) {
        std::fputs(line.c_str(), sink);
      } else {
        out_file << line;
      }
    };
    // Latch the first failing re-mine (fail-fast semantics like the
    // single-query path) instead of letting a clean final batch mask it.
    WriteVersionHeader(ws.version);
    int exit_code = MineComponents(ws.components, k);  // version 0 baseline
    for (size_t b = 0; b < batches.size(); ++b) {
      UpdateReport report;
      s = updater.ApplyEdgeUpdates(batches[b], update_options, &report);
      if (!s.ok()) return Fail(s.ToString());
      std::fprintf(stderr, "batch %zu (version %llu): %s\n", b + 1,
                   (unsigned long long)ws.version,
                   report.ToJson().c_str());
      WriteVersionHeader(ws.version);
      int batch_code = MineComponents(ws.components, k);
      if (exit_code == 0) exit_code = batch_code;
    }
    const UpdateReport& total = updater.cumulative();
    std::fprintf(stderr, "updates total: %s\n", total.ToJson().c_str());
    if (save) {
      s = SaveWorkspaceSnapshot(ws, snapshot_out);
      if (!s.ok()) return Fail(s.ToString());
      std::fprintf(stderr, "saved workspace (k=%u r=%g version=%llu) to %s\n",
                   ws.k, ws.threshold, (unsigned long long)ws.version,
                   snapshot_out.c_str());
    }
    return exit_code;
  }

  // --- Batched (k,r) grid over the raw graph. With --snapshot_out the
  // score-annotated base workspace — prepared once at the grid's loosest r
  // with scores covering its strictest, at the smallest k — is persisted
  // first, then the whole grid is served from it. The saved snapshot
  // keeps serving every (k' >= k_min, r inside the grid's r range) later.
  if (has_sweep) {
    SweepGrid grid;
    if (!ParseSweepSpec(sweep_spec, &grid.ks, &grid.rs)) {
      return Fail("bad --sweep spec (want k1,k2[xr1,r2]); see --help");
    }
    if (grid.rs.empty()) grid.rs = {r};
    if (save) {
      const bool is_distance = oracle.is_distance();
      const double r_serve = LoosestThreshold(grid.rs, is_distance);
      double r_cover = StrictestThreshold(grid.rs, is_distance);
      // Honor a wider (stricter) user-requested cover so the saved
      // snapshot serves beyond the grid; a looser one could not serve the
      // grid itself, so the stricter of the two wins.
      if (has_cover && ThresholdAtLeastAsStrict(cover, r_cover, is_distance)) {
        r_cover = cover;
      }
      PipelineOptions pipe;
      pipe.k = *std::min_element(grid.ks.begin(), grid.ks.end());
      pipe.deadline = Deadline::AfterSeconds(timeout);
      pipe.num_threads = threads;
      pipe.score_cover = r_cover;
      PreparedWorkspace ws;
      Status s = PrepareWorkspace(
          dataset.graph, oracle.WithThreshold(r_serve), pipe, &ws);
      if (!s.ok()) return Fail(s.ToString());
      s = SaveWorkspaceSnapshot(ws, snapshot_out);
      if (!s.ok()) return Fail(s.ToString());
      std::fprintf(stderr,
                   "saved workspace (k=%u r=%g, scores cover r=%g) to %s\n",
                   ws.k, ws.threshold, ws.score_cover, snapshot_out.c_str());
      SweepResult result =
          SweepPreparedWorkspace(ws, grid.ks, grid.rs, MakeSweepOptions());
      PrintSweepResult(result, mode == "enum" ? SweepMode::kEnumerate
                                              : SweepMode::kMaximum);
      return result.status.ok() ? 0 : 2;
    }
    SweepResult result =
        RunParameterSweep(dataset.graph, oracle, grid, MakeSweepOptions());
    PrintSweepResult(result, mode == "enum" ? SweepMode::kEnumerate
                                            : SweepMode::kMaximum);
    return result.status.ok() ? 0 : 2;
  }

  // --- Single cell, optionally persisting the prepared workspace first.
  // With --cover the same pair sweep keeps reserve scores down to the cover
  // threshold, so the saved snapshot serves a whole r range, not one point.
  if (save) {
    PipelineOptions pipe;
    pipe.k = k;
    pipe.deadline = Deadline::AfterSeconds(timeout);
    pipe.num_threads = threads;
    if (has_cover) pipe.score_cover = cover;
    PreparedWorkspace ws;
    PreprocessReport report;
    Status s = PrepareWorkspace(dataset.graph, oracle, pipe, &ws, &report);
    if (!s.ok()) return Fail(s.ToString());
    s = SaveWorkspaceSnapshot(ws, snapshot_out);
    if (!s.ok()) return Fail(s.ToString());
    std::fprintf(stderr, "saved workspace to %s (%s)\n", snapshot_out.c_str(),
                 report.ToJson().c_str());
    return MineComponents(ws.components, k);
  }

  if (mode == "enum") {
    auto result =
        EnumerateMaximalCores(dataset.graph, oracle, MakeEnumOptions(k));
    std::fprintf(stderr, "status: %s; %zu maximal (%u,r)-cores; %s\n",
                 result.status.ToString().c_str(), result.cores.size(), k,
                 result.stats.ToJson().c_str());
    for (const auto& core : result.cores) PrintCore(core);
    return result.status.ok() ? 0 : 2;
  }
  auto result = FindMaximumCore(dataset.graph, oracle, MakeMaxOptions(k));
  std::fprintf(stderr, "status: %s; |maximum| = %zu; %s\n",
               result.status.ToString().c_str(), result.best.size(),
               result.stats.ToJson().c_str());
  if (!result.best.empty()) PrintCore(result.best);
  return result.status.ok() ? 0 : 2;
}
