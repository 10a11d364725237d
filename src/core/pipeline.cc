#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <numeric>
#include <string>

#include "core/parallel.h"
#include "graph/connectivity.h"
#include "graph/graph_builder.h"
#include "kcore/core_decomposition.h"
#include "similarity/join/self_join.h"
#include "util/failpoint.h"
#include "util/timer.h"

namespace krcore {
namespace {

/// Builds one component's context: induced structure graph plus the flat
/// dissimilarity index, with pair discovery delegated to the self-join
/// engine (src/similarity/join/): the certified filter-and-verify join,
/// which falls back to the brute tiled sweep where no filter applies. The
/// deadline is polled every few thousand pair operations; on expiry (or
/// when another worker already expired via *aborted) the build stops early
/// and the returned context must be discarded. Returns the builder's peak
/// transient byte count through *transient_bytes and the join's work
/// accounting through *join_report.
///
/// With options.score_cover set, the same join also fills the reserve
/// rows: a pair dissimilar only at the cover threshold keeps the score its
/// evaluation already computed — no extra oracle work, just storage.
ComponentContext BuildComponent(const Graph& similar_only,
                                const SimilarityOracle& oracle,
                                const std::vector<VertexId>& comp,
                                const PipelineOptions& options,
                                uint32_t join_threads,
                                std::atomic<bool>* aborted,
                                uint64_t* transient_bytes,
                                JoinReport* join_report) {
  ComponentContext ctx;
  auto induced = BuildInducedSubgraph(similar_only, comp);
  ctx.graph = std::move(induced.graph);
  ctx.to_parent = std::move(induced.to_parent);

  DissimilarityIndex::Builder builder(ctx.size());
  SelfJoinOptions join;
  join.score_cover = options.score_cover;
  join.num_threads = join_threads;
  join.deadline = options.deadline;
  *join_report = SelfJoinPairs(oracle, ctx.to_parent, join, aborted, &builder);
  if (aborted->load(std::memory_order_relaxed)) {
    *transient_bytes = builder.MemoryBytes();
    return ctx;
  }
  // During Build() the packed pair buffer and the CSR arrays coexist until
  // the fill pass completes, so the transient peak is the sum of both.
  const uint64_t builder_bytes = builder.MemoryBytes();
  ctx.dissimilar = builder.Build();
  *transient_bytes = builder_bytes + ctx.dissimilar.MemoryBytes();
  return ctx;
}

}  // namespace

void SortComponents(std::vector<ComponentContext>* components) {
  // Search the component with the highest-degree vertex first: the maximum
  // search seeds its incumbent from a large core quickly.
  std::sort(components->begin(), components->end(),
            [](const ComponentContext& a, const ComponentContext& b) {
              if (a.graph.max_degree() != b.graph.max_degree()) {
                return a.graph.max_degree() > b.graph.max_degree();
              }
              return a.to_parent.front() < b.to_parent.front();
            });
}

Status PrepareComponents(const Graph& g, const SimilarityOracle& oracle,
                         const PipelineOptions& options,
                         std::vector<ComponentContext>* out,
                         PreprocessReport* report) {
  Timer timer;
  out->clear();
  if (options.k == 0) {
    return Status::InvalidArgument("k must be a positive integer");
  }
  if (!std::isnan(options.score_cover) &&
      (!std::isfinite(options.score_cover) ||
       !ThresholdAtLeastAsStrict(options.score_cover, oracle.threshold(),
                                 oracle.is_distance()))) {
    return Status::InvalidArgument(
        "score_cover must be a finite threshold at least as strict as the "
        "oracle's (>= r for similarity metrics, <= r for distance metrics)");
  }

  // Line 1-2 of Algorithm 1: drop edges between dissimilar endpoints. Such
  // edges can never appear inside a (k,r)-core (similarity constraint).
  GraphBuilder filtered(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      if (u < v && oracle.Similar(u, v)) filtered.AddEdge(u, v);
    }
  }
  Graph similar_only = filtered.Build();

  // Line 3: k-core of the filtered graph.
  std::vector<VertexId> core_vertices = KCoreVertices(similar_only, options.k);
  if (core_vertices.empty()) {
    if (report != nullptr) {
      *report = PreprocessReport{};
      report->seconds = timer.ElapsedSeconds();
    }
    return Status::OK();
  }

  // Line 4: connected components (within the k-core).
  auto components = ComponentsOfSubset(similar_only, core_vertices);

  uint64_t total_pairs = 0;
  for (const auto& comp : components) {
    const uint64_t sz = comp.size();
    total_pairs += sz * (sz - 1) / 2;
  }

  // Components are independent: build their contexts in parallel. Each slot
  // is written by exactly one worker, so the output is identical for any
  // thread count.
  out->resize(components.size());
  std::vector<uint64_t> transients(components.size(), 0);
  std::vector<JoinReport> joins(components.size());
  std::atomic<bool> aborted{false};
  ParallelOptions par;
  par.num_threads = options.num_threads;
  const uint32_t threads = par.Resolve();
  // With several components the parallelism lives at the component level;
  // a lone component hands the full thread budget to its join instead.
  const uint32_t join_threads = components.size() == 1 ? threads : 1;
  std::atomic<bool> injected{false};
  ParallelFor(threads, components.size(), [&](size_t i) {
    if (aborted.load(std::memory_order_relaxed)) return;
    if (Failpoints::ShouldFail("pipeline/prepare_component")) {
      injected.store(true, std::memory_order_relaxed);
      aborted.store(true, std::memory_order_relaxed);
      return;
    }
    (*out)[i] = BuildComponent(similar_only, oracle, components[i], options,
                               join_threads, &aborted, &transients[i],
                               &joins[i]);
  });
  if (aborted.load()) {
    out->clear();
    // An abort is either the deadline or an injected fault (the component-
    // level site above, or a join/* site surfaced through its report) —
    // report the one that actually happened.
    bool was_injected = injected.load();
    for (const auto& jr : joins) was_injected |= jr.injected_fault;
    if (was_injected) {
      return Status::Internal(
          "injected fault during component preparation (failpoint)");
    }
    return Status::DeadlineExceeded(
        "preprocessing budget expired during the pairwise similarity sweep");
  }

  SortComponents(out);

  if (report != nullptr) {
    *report = PreprocessReport{};
    report->components = out->size();
    report->pairs_evaluated = total_pairs;
    for (const auto& jr : joins) {
      report->candidate_pairs += jr.candidate_pairs;
      report->pruned_pairs += jr.pruned_pairs;
      report->oracle_calls += jr.oracle_calls;
    }
    for (const auto& ctx : *out) {
      report->vertices += ctx.size();
      report->edges += ctx.graph.num_edges();
      report->dissimilar_pairs += ctx.num_dissimilar_pairs();
      report->reserve_pairs += ctx.dissimilar.num_reserve_pairs();
      report->index_bytes += ctx.dissimilar.MemoryBytes();
    }
    report->dissimilar_density =
        total_pairs == 0 ? 0.0
                         : static_cast<double>(report->dissimilar_pairs) /
                               static_cast<double>(total_pairs);
    // Up to `threads` builders are live at once, so the transient estimate
    // is the sum of the largest `threads` per-component buffers.
    std::sort(transients.begin(), transients.end(), std::greater<>());
    uint64_t transient_peak = 0;
    for (size_t i = 0; i < transients.size() && i < threads; ++i) {
      transient_peak += transients[i];
    }
    report->peak_bytes = report->index_bytes + transient_peak;
    report->seconds = timer.ElapsedSeconds();
  }
  return Status::OK();
}

Status PrepareComponents(const Graph& g, const SimilarityOracle& oracle,
                         const PipelineOptions& options,
                         std::vector<ComponentContext>* out) {
  return PrepareComponents(g, oracle, options, out, nullptr);
}

Status PrepareWorkspace(const Graph& g, const SimilarityOracle& oracle,
                        const PipelineOptions& options, PreparedWorkspace* out,
                        PreprocessReport* report) {
  out->components.clear();
  Status s = PrepareComponents(g, oracle, options, &out->components, report);
  if (!s.ok()) return s;
  out->k = options.k;
  out->threshold = oracle.threshold();
  out->score_cover = std::isnan(options.score_cover) ? oracle.threshold()
                                                    : options.score_cover;
  out->is_distance = oracle.is_distance();
  out->version = 0;
  return Status::OK();
}

std::string PreparedWorkspace::ServingRange() const {
  const double lo = is_distance ? score_cover : threshold;
  const double hi = is_distance ? threshold : score_cover;
  return "r in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]";
}

namespace {

/// Scratch of one DeriveWorkspace call, reused across its base components.
/// Never shared between calls: the server and the sweep derive
/// concurrently from one base.
struct DeriveScratch {
  std::vector<EdgeId> offsets;      // r-filtered structure CSR, base ids
  std::vector<VertexId> neighbors;
  std::vector<uint32_t> degree;     // filtered degree, then core degree
  std::vector<VertexId> label;      // output component of each base vertex
  std::vector<VertexId> remap;      // base local id -> derived local id
  std::vector<VertexId> stack;      // peel queue, then DFS stack
  std::vector<VertexId> start;      // per output component: members offset
  std::vector<VertexId> members;    // survivors grouped by label, ascending
  std::vector<VertexId> promoted;   // one row's reserve entries turned active
  std::vector<VertexId> kept;       // one row's remaining reserve entries
  std::vector<double> kept_scores;
};

constexpr VertexId kPeeled = kInvalidVertex;
constexpr VertexId kUnlabeled = kInvalidVertex - 1;

template <typename T>
void GrowTo(std::vector<T>* v, size_t n) {
  if (v->size() < n) v->resize(n);
}

/// Writes the dissimilarity rows of output component `c` (base vertices
/// `verts`, ascending) and adopts them as an index. Each active row is the
/// surviving base active entries merged with the reserve entries dissimilar
/// at `r` (`restrict_r` only); the reserve row holds the rest with their
/// scores. A count pass sizes every array exactly; the write pass then
/// compacts branch-free: every entry is written, and the cursor advances
/// only when its endpoint landed in `c`. A row's loop stops once its count
/// is written, so no write lands past it. The remap is monotone, so the
/// copied rows stay sorted.
DissimilarityIndex WriteDissimilarRows(const DissimilarityIndex& base,
                                       std::span<const VertexId> verts,
                                       VertexId c, bool restrict_r, double r,
                                       bool is_distance, DeriveScratch* s,
                                       uint64_t* score_tests) {
  const VertexId* label = s->label.data();
  const VertexId* remap = s->remap.data();
  const auto turns_dissimilar = [&](double score) {
    return restrict_r && !ScoreSimilarUnder(score, r, is_distance);
  };
  const VertexId nc = static_cast<VertexId>(verts.size());
  std::vector<uint64_t> offsets(static_cast<size_t>(nc) + 1);
  std::vector<uint64_t> reserve_offsets(static_cast<size_t>(nc) + 1);
  uint64_t total = 0;
  uint64_t reserve_total = 0;
  uint64_t tests = 0;
  for (VertexId i = 0; i < nc; ++i) {
    const VertexId u = verts[i];
    offsets[i] = total;
    reserve_offsets[i] = reserve_total;
    for (VertexId v : base[u]) total += label[v] == c;
    const auto reserve = base.reserve_row(u);
    const auto reserve_scores = base.reserve_scores(u);
    for (size_t j = 0; j < reserve.size(); ++j) {
      const bool in = label[reserve[j]] == c;
      const bool dis = turns_dissimilar(reserve_scores[j]);
      total += in & dis;
      reserve_total += in & !dis;
      tests += restrict_r & in & (reserve[j] > u);
    }
  }
  offsets[nc] = total;
  reserve_offsets[nc] = reserve_total;
  *score_tests += tests;

  std::vector<VertexId> ids(total);
  std::vector<VertexId> reserve_ids(reserve_total);
  std::vector<double> reserve_scores(reserve_total);
  for (VertexId i = 0; i < nc; ++i) {
    const VertexId u = verts[i];
    const auto active = base[u];
    // Split the reserve row: entries turning dissimilar at r join the
    // active merge below (base ids, for the merge order); the rest go to
    // the reserve row (already remapped).
    const auto reserve = base.reserve_row(u);
    const auto scores = base.reserve_scores(u);
    GrowTo(&s->promoted, reserve.size());
    GrowTo(&s->kept, reserve.size());
    GrowTo(&s->kept_scores, reserve.size());
    size_t np = 0, nk = 0;
    for (size_t j = 0; j < reserve.size(); ++j) {
      const VertexId v = reserve[j];
      const bool in = label[v] == c;
      const bool dis = turns_dissimilar(scores[j]);
      s->promoted[np] = v;
      np += in & dis;
      s->kept[nk] = remap[v];
      s->kept_scores[nk] = scores[j];
      nk += in & !dis;
    }
    std::copy_n(s->kept.data(), nk, reserve_ids.begin() + reserve_offsets[i]);
    std::copy_n(s->kept_scores.data(), nk,
                reserve_scores.begin() + reserve_offsets[i]);
    uint64_t cur = offsets[i];
    size_t a = 0, p = 0;
    while (cur < offsets[i + 1]) {
      if (p < np && (a == active.size() || s->promoted[p] < active[a])) {
        ids[cur++] = remap[s->promoted[p++]];
      } else {
        KRCORE_DCHECK(a < active.size());
        const VertexId v = active[a];
        ids[cur] = remap[v];
        cur += label[v] == c;
        ++a;
      }
    }
    KRCORE_DCHECK(p == np);
  }
  return DissimilarityIndex::FromRows(
      nc, std::move(offsets), std::move(ids), std::move(reserve_offsets),
      std::move(reserve_ids), std::move(reserve_scores));
}

/// Derives one base component in a single pass and appends its output
/// components to `out`: (1) filter the structure rows at r by merging each
/// with its id-sorted reserve row, (2) queue-peel the k-core on the
/// filtered degrees, (3) label the survivors' connected components by DFS
/// and number each one's vertices in ascending base id — hence ascending
/// parent id, a monotone remap — and (4) write both CSRs sequentially.
void DeriveOneComponent(const ComponentContext& comp, uint32_t k,
                        bool restrict_r, double r, bool is_distance,
                        DeriveScratch* s, std::vector<ComponentContext>* out,
                        uint64_t* score_tests) {
  const VertexId n = comp.size();
  const DissimilarityIndex& dis = comp.dissimilar;

  // 1. Filter. Structure edges are similar at the base threshold, so one
  // that a stricter r rejects is a reserve pair with its score stored.
  std::span<const EdgeId> offsets = comp.graph.offsets();
  std::span<const VertexId> nbrs = comp.graph.neighbor_array();
  if (restrict_r) {
    s->offsets.resize(static_cast<size_t>(n) + 1);
    GrowTo(&s->neighbors, nbrs.size());
    EdgeId cur = 0;
    for (VertexId u = 0; u < n; ++u) {
      s->offsets[u] = cur;
      const auto reserve = dis.reserve_row(u);
      const auto scores = dis.reserve_scores(u);
      const auto adj = comp.graph.neighbors(u);
      // Branch-free merge: keep a neighbor unless it meets a reserve entry
      // that is dissimilar at r; advance the smaller side (both on a tie).
      size_t i = 0, j = 0;
      while (i < adj.size() && j < reserve.size()) {
        const VertexId w = adj[i], x = reserve[j];
        const bool similar = ScoreSimilarUnder(scores[j], r, is_distance);
        s->neighbors[cur] = w;
        cur += (w < x) | ((w == x) & similar);
        i += w <= x;
        j += x <= w;
      }
      for (; i < adj.size(); ++i) s->neighbors[cur++] = adj[i];
    }
    s->offsets[n] = cur;
    offsets = s->offsets;
    nbrs = std::span<const VertexId>(s->neighbors.data(), cur);
  }
  const auto row = [&](VertexId u) {
    return nbrs.subspan(offsets[u], offsets[u + 1] - offsets[u]);
  };

  // 2. Peel. A vertex is queued once, when its degree first drops below k;
  // afterwards every survivor's degree counts exactly its surviving
  // neighbors, which is its output structure degree.
  s->degree.resize(n);
  s->label.assign(n, kUnlabeled);
  s->stack.clear();
  for (VertexId u = 0; u < n; ++u) {
    s->degree[u] = static_cast<uint32_t>(offsets[u + 1] - offsets[u]);
    if (s->degree[u] < k) {
      s->label[u] = kPeeled;
      s->stack.push_back(u);
    }
  }
  while (!s->stack.empty()) {
    const VertexId u = s->stack.back();
    s->stack.pop_back();
    for (VertexId w : row(u)) {
      if (s->label[w] != kPeeled && --s->degree[w] < k) {
        s->label[w] = kPeeled;
        s->stack.push_back(w);
      }
    }
  }

  // 3. Split. Labels follow ascending minimum base id.
  VertexId num_out = 0;
  for (VertexId root = 0; root < n; ++root) {
    if (s->label[root] != kUnlabeled) continue;
    s->label[root] = num_out;
    s->stack.push_back(root);
    while (!s->stack.empty()) {
      const VertexId u = s->stack.back();
      s->stack.pop_back();
      for (VertexId w : row(u)) {
        if (s->label[w] == kUnlabeled) {
          s->label[w] = num_out;
          s->stack.push_back(w);
        }
      }
    }
    ++num_out;
  }
  if (num_out == 0) return;
  s->start.assign(static_cast<size_t>(num_out) + 1, 0);
  s->remap.resize(n);
  for (VertexId u = 0; u < n; ++u) {
    const VertexId c = s->label[u];
    if (c == kPeeled) continue;
    s->remap[u] = s->start[c + 1]++;
  }
  for (VertexId c = 0; c < num_out; ++c) s->start[c + 1] += s->start[c];
  s->members.resize(s->start[num_out]);
  for (VertexId u = 0; u < n; ++u) {
    const VertexId c = s->label[u];
    if (c != kPeeled) s->members[s->start[c] + s->remap[u]] = u;
  }

  // 4. Write. A survivor's core degree is its output row length, so the
  // structure rows compact branch-free like the dissimilarity rows.
  for (VertexId c = 0; c < num_out; ++c) {
    const auto verts = std::span<const VertexId>(s->members)
                           .subspan(s->start[c], s->start[c + 1] - s->start[c]);
    const VertexId nc = static_cast<VertexId>(verts.size());
    ComponentContext derived;
    std::vector<VertexId> to_parent(nc);
    std::vector<EdgeId> graph_offsets(static_cast<size_t>(nc) + 1);
    graph_offsets[0] = 0;
    for (VertexId i = 0; i < nc; ++i) {
      to_parent[i] = comp.to_parent[verts[i]];
      graph_offsets[i + 1] = graph_offsets[i] + s->degree[verts[i]];
    }
    std::vector<VertexId> graph_nbrs(graph_offsets[nc]);
    for (VertexId i = 0; i < nc; ++i) {
      const VertexId* w = row(verts[i]).data();
      for (EdgeId cur = graph_offsets[i]; cur < graph_offsets[i + 1]; ++w) {
        graph_nbrs[cur] = s->remap[*w];
        cur += s->label[*w] == c;
      }
    }
    derived.graph = Graph(std::move(graph_offsets), std::move(graph_nbrs));
    derived.to_parent = std::move(to_parent);
    derived.dissimilar = WriteDissimilarRows(dis, verts, c, restrict_r, r,
                                             is_distance, s, score_tests);
    out->push_back(std::move(derived));
  }
}

}  // namespace

Status DeriveWorkspace(const PreparedWorkspace& base, uint32_t k, double r,
                       const PipelineOptions& options, PreparedWorkspace* out,
                       PreprocessReport* report) {
  Timer timer;
  out->components.clear();
  if (k < base.k) {
    return Status::InvalidArgument(
        "cannot derive a lower k from a prepared workspace (the k-core at "
        "k' < k is a supergraph of the cached one); re-run PrepareWorkspace");
  }
  if (!base.Serves(k, r)) {
    return Status::InvalidArgument(
        "r=" + std::to_string(r) + " is outside the workspace's serving "
        "range " + base.ServingRange() +
        " (prepare with score_cover to widen it)");
  }
  const bool restrict_r = r != base.threshold;
  out->k = k;
  out->threshold = r;
  out->score_cover = base.score_cover;
  out->is_distance = base.is_distance;
  out->version = base.version;

  uint64_t score_tests = 0;
  DeriveScratch scratch;
  for (const auto& comp : base.components) {
    if (Status s = Failpoints::Inject("pipeline/derive_component"); !s.ok()) {
      out->components.clear();
      return s;
    }
    if (options.deadline.Expired()) {
      out->components.clear();
      return Status::DeadlineExceeded(
          "budget expired while deriving the k-core workspace");
    }
    // Derivation reads the base's borrowed rows directly, so an mmap-lazy
    // base component must pass its first-touch validation here.
    if (Status s = comp.EnsureValid(); !s.ok()) {
      out->components.clear();
      return s;
    }
    DeriveOneComponent(comp, k, restrict_r, r, base.is_distance, &scratch,
                       &out->components, &score_tests);
  }
  SortComponents(&out->components);

  if (report != nullptr) {
    *report = PreprocessReport{};
    report->components = out->components.size();
    for (const auto& ctx : out->components) {
      report->vertices += ctx.size();
      report->edges += ctx.graph.num_edges();
      report->dissimilar_pairs += ctx.num_dissimilar_pairs();
      report->reserve_pairs += ctx.dissimilar.num_reserve_pairs();
      report->index_bytes += ctx.dissimilar.MemoryBytes();
    }
    // pairs_evaluated stays 0: derivation never consults the oracle — the
    // r dimension is served from the stored scores alone.
    report->score_filtered_pairs = score_tests;
    report->peak_bytes = report->index_bytes;
    report->seconds = timer.ElapsedSeconds();
  }
  return Status::OK();
}

Status DeriveWorkspace(const PreparedWorkspace& base, uint32_t k,
                       const PipelineOptions& options, PreparedWorkspace* out,
                       PreprocessReport* report) {
  return DeriveWorkspace(base, k, base.threshold, options, out, report);
}

}  // namespace krcore
