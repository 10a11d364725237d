#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/parameter_sweep.h"
#include "core/pipeline.h"
#include "core/workspace_update.h"
#include "server/workspace_registry.h"
#include "snapshot/workspace_snapshot.h"
#include "test_helpers.h"
#include "util/failpoint.h"

namespace krcore {
namespace {

/// A temp file path that cleans up after the test.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t Fnv1a64(const char* data, size_t size) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < size; ++i) {
    h ^= static_cast<uint8_t>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

/// Scored geo fixture with a widened cover so the snapshot carries reserve
/// segments — the part of the substrate v4 must round-trip losslessly.
PreparedWorkspace ScoredFixture(const Dataset& dataset, uint32_t k, double r,
                                double cover) {
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
  PipelineOptions opts;
  opts.k = k;
  opts.score_cover = cover;
  PreparedWorkspace ws;
  EXPECT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &ws).ok());
  return ws;
}

SnapshotLoadOptions Lazy() {
  SnapshotLoadOptions o;
  o.lazy = true;
  return o;
}

/// Two dense random-geo clusters 10 apart: similarity splits them, so the
/// prepared workspace is guaranteed to have >= 2 components (one random-geo
/// cluster alone always collapses into a single component).
Dataset TwoClusterGeo(uint32_t per_cluster, uint32_t edges_per_cluster,
                      uint64_t seed) {
  Rng rng(seed);
  const uint32_t n = per_cluster * 2;
  std::vector<GeoPoint> points(n);
  for (uint32_t u = 0; u < n; ++u) {
    const double off = u < per_cluster ? 0.0 : 10.0;
    points[u] = {off + rng.NextDouble(), rng.NextDouble()};
  }
  std::vector<std::pair<VertexId, VertexId>> edges;
  std::vector<uint64_t> seen;
  for (uint32_t cluster = 0; cluster < 2; ++cluster) {
    const VertexId base = cluster * per_cluster;
    uint32_t added = 0;
    while (added < edges_per_cluster) {
      VertexId u = base + static_cast<VertexId>(rng.NextBounded(per_cluster));
      VertexId v = base + static_cast<VertexId>(rng.NextBounded(per_cluster));
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      const uint64_t key = (uint64_t{u} << 32) | v;
      if (std::find(seen.begin(), seen.end(), key) != seen.end()) continue;
      seen.push_back(key);
      edges.emplace_back(u, v);
      ++added;
    }
  }
  Dataset d;
  d.name = "two_cluster_geo";
  d.graph = MakeGraph(n, edges);
  d.attributes = AttributeTable::ForGeo(std::move(points));
  d.metric = Metric::kEuclideanDistance;
  return d;
}

TEST(SnapshotV4, RoundTripLosslessEagerAndLazy) {
  auto dataset = test::MakeRandomGeo(140, 800, 21);
  PreparedWorkspace ws = ScoredFixture(dataset, 3, 0.35, 0.2);
  ASSERT_FALSE(ws.components.empty());
  ASSERT_TRUE(ws.scored);

  TempFile file("v4_roundtrip.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());

  PreparedWorkspace eager;
  SnapshotLoadInfo eager_info;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), SnapshotLoadOptions{},
                                    &eager, &eager_info)
                  .ok());
  EXPECT_EQ(eager_info.format_version, 4u);
  EXPECT_FALSE(eager_info.lazy);
  EXPECT_EQ(test::DiffWorkspaces(ws, eager), "");

  PreparedWorkspace lazy;
  SnapshotLoadInfo lazy_info;
  ASSERT_TRUE(
      LoadWorkspaceSnapshot(file.path(), Lazy(), &lazy, &lazy_info).ok());
  EXPECT_EQ(lazy_info.format_version, 4u);
  EXPECT_TRUE(lazy_info.lazy);
  ASSERT_TRUE(lazy.EnsureAllValid().ok());
  EXPECT_EQ(test::DiffWorkspaces(ws, lazy), "");
}

TEST(SnapshotV4, LazyServesIdenticallyToEagerAndCold) {
  auto dataset = test::MakeRandomGeo(150, 1100, 7);
  const uint32_t k = 3;
  const double r = 0.35;
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
  PreparedWorkspace ws = ScoredFixture(dataset, k, r, 0.2);
  ASSERT_FALSE(ws.components.empty());

  TempFile file("v4_serve.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace eager;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &eager).ok());
  PreparedWorkspace lazy;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), Lazy(), &lazy, nullptr).ok());

  // Enumeration and maximum: cold vs eager vs lazy (lazy NOT pre-validated —
  // the engines must trigger first-touch validation themselves).
  auto cold = EnumerateMaximalCores(dataset.graph, oracle, AdvEnumOptions(k));
  auto from_eager = EnumerateMaximalCores(eager.components, AdvEnumOptions(k));
  auto from_lazy = EnumerateMaximalCores(lazy.components, AdvEnumOptions(k));
  ASSERT_TRUE(cold.status.ok());
  ASSERT_TRUE(from_eager.status.ok());
  ASSERT_TRUE(from_lazy.status.ok());
  EXPECT_EQ(cold.cores, from_eager.cores);
  EXPECT_EQ(cold.cores, from_lazy.cores);

  auto cold_max = FindMaximumCore(dataset.graph, oracle, AdvMaxOptions(k));
  auto lazy_max = FindMaximumCore(lazy.components, AdvMaxOptions(k));
  ASSERT_TRUE(cold_max.status.ok());
  ASSERT_TRUE(lazy_max.status.ok());
  EXPECT_EQ(cold_max.best, lazy_max.best);

  // Derivation reads borrowed rows directly; results must match deriving
  // from the eager copy.
  PipelineOptions dopts;
  PreparedWorkspace d_eager, d_lazy;
  ASSERT_TRUE(DeriveWorkspace(eager, k + 1, 0.3, dopts, &d_eager).ok());
  ASSERT_TRUE(DeriveWorkspace(lazy, k + 1, 0.3, dopts, &d_lazy).ok());
  EXPECT_EQ(test::DiffWorkspaces(d_eager, d_lazy), "");

  // Full sweep differential over the served interval.
  SweepOptions sopts;
  sopts.mode = SweepMode::kEnumerate;
  std::vector<uint32_t> ks = {k, k + 1};
  std::vector<double> rs = {0.25, 0.3, r};
  SweepResult s_eager = SweepPreparedWorkspace(eager, ks, rs, sopts);
  SweepResult s_lazy = SweepPreparedWorkspace(lazy, ks, rs, sopts);
  ASSERT_TRUE(s_eager.status.ok());
  ASSERT_TRUE(s_lazy.status.ok());
  ASSERT_EQ(s_eager.cells.size(), s_lazy.cells.size());
  for (size_t i = 0; i < s_eager.cells.size(); ++i) {
    EXPECT_EQ(s_eager.cells[i].enum_result.cores,
              s_lazy.cells[i].enum_result.cores)
        << "cell " << i;
  }
}

/// Concurrent derivations from one lazily loaded base (not pre-validated):
/// four threads race the first-touch EnsureValid of every component and
/// each derives a distinct cell. Each result must equal a sequential
/// derivation from the in-memory base. Runs under TSan in CI.
TEST(SnapshotV4, ConcurrentDerivationsFromOneLazyBase) {
  Dataset dataset = TwoClusterGeo(80, 600, 29);
  PreparedWorkspace ws = ScoredFixture(dataset, 2, 0.4, 0.2);
  ASSERT_GE(ws.components.size(), 2u);
  TempFile file("v4_concurrent_derive.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace lazy;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), Lazy(), &lazy, nullptr).ok());

  struct Cell {
    uint32_t k;
    double r;
  };
  const std::vector<Cell> cells = {{2, 0.4}, {3, 0.35}, {2, 0.3}, {3, 0.25}};
  std::vector<PreparedWorkspace> derived(cells.size());
  std::vector<Status> statuses(cells.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < cells.size(); ++i) {
    threads.emplace_back([&, i] {
      statuses[i] = DeriveWorkspace(lazy, cells[i].k, cells[i].r,
                                    PipelineOptions{}, &derived[i]);
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < cells.size(); ++i) {
    const std::string where = "cell (k=" + std::to_string(cells[i].k) +
                              ", r=" + std::to_string(cells[i].r) + ")";
    ASSERT_TRUE(statuses[i].ok()) << where << ": " << statuses[i].ToString();
    PreparedWorkspace sequential;
    ASSERT_TRUE(DeriveWorkspace(ws, cells[i].k, cells[i].r, PipelineOptions{},
                                &sequential)
                    .ok())
        << where;
    EXPECT_FALSE(sequential.components.empty()) << where;
    EXPECT_EQ(test::DiffWorkspaces(derived[i], sequential), "") << where;
  }
}

TEST(SnapshotV4, UpdaterPromotesLazyComponentsBeforeMutating) {
  auto dataset = test::MakeRandomGeo(120, 900, 33);
  const uint32_t k = 3;
  const double r = 0.35;
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
  PreparedWorkspace ws = ScoredFixture(dataset, k, r, 0.2);
  ASSERT_FALSE(ws.components.empty());

  TempFile file("v4_update.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace eager;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &eager).ok());
  PreparedWorkspace lazy;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), Lazy(), &lazy, nullptr).ok());

  // One remove of an existing edge plus one insert of a fresh edge.
  std::vector<EdgeUpdate> batch;
  for (VertexId u = 0; u < dataset.graph.num_vertices() && batch.empty();
       ++u) {
    auto nbrs = dataset.graph.neighbors(u);
    if (!nbrs.empty() && nbrs[0] > u) {
      batch.push_back({EdgeUpdate::Kind::kRemove, u, nbrs[0]});
    }
  }
  ASSERT_FALSE(batch.empty());
  for (VertexId u = 0; u + 1 < dataset.graph.num_vertices(); ++u) {
    auto nbrs = dataset.graph.neighbors(u);
    VertexId v = u + 1;
    if (!std::binary_search(nbrs.begin(), nbrs.end(), v)) {
      batch.push_back({EdgeUpdate::Kind::kInsert, u, v});
      break;
    }
  }
  ASSERT_EQ(batch.size(), 2u);

  UpdateOptions uopts;
  WorkspaceUpdater eager_updater(dataset.graph, oracle, &eager);
  WorkspaceUpdater lazy_updater(dataset.graph, oracle, &lazy);
  ASSERT_TRUE(eager_updater.ApplyEdgeUpdates(batch, uopts).ok());
  ASSERT_TRUE(lazy_updater.ApplyEdgeUpdates(batch, uopts).ok());
  EXPECT_EQ(eager.version, 1u);
  EXPECT_EQ(lazy.version, 1u);
  ASSERT_TRUE(lazy.EnsureAllValid().ok());
  EXPECT_EQ(test::DiffWorkspaces(eager, lazy), "");
}

TEST(SnapshotV4, V3V4RoundTripIsByteIdenticalIncludingReserveSegments) {
  auto dataset = test::MakeRandomGeo(130, 750, 9);
  PreparedWorkspace ws = ScoredFixture(dataset, 3, 0.35, 0.2);
  size_t reserve_pairs = 0;
  for (const auto& c : ws.components) {
    reserve_pairs += c.dissimilar.num_reserve_pairs();
  }
  ASSERT_GT(reserve_pairs, 0u) << "fixture must exercise reserve segments";

  TempFile v3a("rt_v3a.krws"), v4("rt_v4.krws"), v3b("rt_v3b.krws"),
      v4b("rt_v4b.krws");
  ASSERT_TRUE(
      SaveWorkspaceSnapshot(ws, v3a.path(), kSnapshotVersionSectioned).ok());

  PreparedWorkspace from_v3;
  ASSERT_TRUE(LoadWorkspaceSnapshot(v3a.path(), &from_v3).ok());
  ASSERT_TRUE(SaveWorkspaceSnapshot(from_v3, v4.path()).ok());

  PreparedWorkspace from_v4;
  SnapshotLoadInfo info;
  ASSERT_TRUE(
      LoadWorkspaceSnapshot(v4.path(), SnapshotLoadOptions{}, &from_v4, &info)
          .ok());
  EXPECT_EQ(info.format_version, 4u);
  EXPECT_EQ(test::DiffWorkspaces(ws, from_v4), "");

  ASSERT_TRUE(
      SaveWorkspaceSnapshot(from_v4, v3b.path(), kSnapshotVersionSectioned)
          .ok());
  EXPECT_EQ(ReadAll(v3a.path()), ReadAll(v3b.path()));

  // And the v4 bytes are reproducible too.
  ASSERT_TRUE(SaveWorkspaceSnapshot(from_v3, v4b.path()).ok());
  EXPECT_EQ(ReadAll(v4.path()), ReadAll(v4b.path()));
}

TEST(SnapshotV4, TornFooterIsRejected) {
  auto dataset = test::MakeRandomGeo(120, 700, 11);
  PreparedWorkspace ws = ScoredFixture(dataset, 3, 0.35, 0.2);
  ASSERT_FALSE(ws.components.empty());
  TempFile file("v4_torn.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  const std::string bytes = ReadAll(file.path());

  // Cut at a spread of suffix truncations: mid-footer, mid-table, and one
  // single byte short. Both eager and lazy loads must reject cleanly.
  for (size_t cut : {size_t{1}, size_t{13}, size_t{56}, size_t{200}}) {
    ASSERT_LT(cut, bytes.size());
    WriteAll(file.path(), bytes.substr(0, bytes.size() - cut));
    PreparedWorkspace loaded;
    Status eager = LoadWorkspaceSnapshot(file.path(), &loaded);
    EXPECT_TRUE(eager.IsInvalidArgument()) << "cut " << cut;
    EXPECT_TRUE(loaded.components.empty());
    Status lazy = LoadWorkspaceSnapshot(file.path(), Lazy(), &loaded, nullptr);
    EXPECT_TRUE(lazy.IsInvalidArgument()) << "cut " << cut;
  }
}

TEST(SnapshotV4, BitFlipFailsOnlyTheComponentThatIsTouched) {
  Dataset dataset = TwoClusterGeo(80, 600, 19);
  PreparedWorkspace ws = ScoredFixture(dataset, 3, 0.35, 0.2);
  ASSERT_GE(ws.components.size(), 2u);

  TempFile file("v4_flip.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());

  SnapshotInfo info;
  ASSERT_TRUE(InspectSnapshot(file.path(), &info).ok());
  std::vector<const SnapshotSectionInfo*> comps;
  for (const auto& s : info.sections) {
    if (s.kind == "component") comps.push_back(&s);
  }
  ASSERT_GE(comps.size(), 2u);

  // Flip one byte inside the SECOND component's blob.
  std::string bytes = ReadAll(file.path());
  bytes[comps[1]->offset + 8] ^= 0x40;
  WriteAll(file.path(), bytes);

  // Eager load refuses the whole file.
  PreparedWorkspace eager;
  Status es = LoadWorkspaceSnapshot(file.path(), &eager);
  EXPECT_TRUE(es.IsInvalidArgument());
  EXPECT_NE(es.message().find("checksum"), std::string::npos);

  // Lazy load succeeds (structure + meta/table checksums are intact), and
  // only touching the corrupted component surfaces the error.
  PreparedWorkspace lazy;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), Lazy(), &lazy, nullptr).ok());
  EXPECT_TRUE(lazy.components[0].EnsureValid().ok());
  Status first = lazy.components[1].EnsureValid();
  EXPECT_TRUE(first.IsInvalidArgument());
  EXPECT_NE(first.message().find("checksum"), std::string::npos);
  // First-touch result is cached: the second probe reports identically.
  Status again = lazy.components[1].EnsureValid();
  EXPECT_EQ(again.message(), first.message());

  // A query that only needs the good component still succeeds...
  std::vector<ComponentContext> good;
  good.push_back(lazy.components[0]);
  auto ok_run = EnumerateMaximalCores(good, AdvEnumOptions(3));
  EXPECT_TRUE(ok_run.status.ok());
  // ...while one that walks every component fails with the clean error.
  auto bad_run = EnumerateMaximalCores(lazy.components, AdvEnumOptions(3));
  EXPECT_TRUE(bad_run.status.IsInvalidArgument());
}

TEST(SnapshotV4, MmapFailureFallsBackToEagerStyleRead) {
  auto dataset = test::MakeRandomGeo(100, 700, 23);
  PreparedWorkspace ws = ScoredFixture(dataset, 3, 0.35, 0.2);
  ASSERT_FALSE(ws.components.empty());
  TempFile file("v4_mmap.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());

  Failpoints::Enable("snapshot/mmap", FailpointSpec::Once());
  PreparedWorkspace lazy;
  SnapshotLoadInfo info;
  Status s = LoadWorkspaceSnapshot(file.path(), Lazy(), &lazy, &info);
  Failpoints::DisableAll();
  ASSERT_TRUE(s.ok()) << s.message();
  EXPECT_FALSE(info.mapped) << "mmap was failed, the heap fallback serves";
  EXPECT_TRUE(info.lazy);
  ASSERT_TRUE(lazy.EnsureAllValid().ok());
  EXPECT_EQ(test::DiffWorkspaces(ws, lazy), "");
}

TEST(SnapshotV4, FailedSaveLeavesExistingFileUntouched) {
  auto dataset = test::MakeRandomGeo(90, 700, 29);
  PreparedWorkspace ws = ScoredFixture(dataset, 3, 0.35, 0.2);
  ASSERT_FALSE(ws.components.empty());
  TempFile file("v4_atomic.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  const std::string good = ReadAll(file.path());

  for (const char* site : {"snapshot/write_section", "snapshot/rename"}) {
    Failpoints::Enable(site, FailpointSpec::Once());
    Status s = SaveWorkspaceSnapshot(ws, file.path());
    Failpoints::DisableAll();
    EXPECT_FALSE(s.ok()) << site;
    EXPECT_EQ(ReadAll(file.path()), good)
        << site << " must not clobber the existing snapshot";
  }
  PreparedWorkspace reloaded;
  EXPECT_TRUE(LoadWorkspaceSnapshot(file.path(), &reloaded).ok());
}

TEST(SnapshotV4, HostileTableEntryReservedFieldIsRejected) {
  auto dataset = test::MakeRandomGeo(90, 700, 31);
  PreparedWorkspace ws = ScoredFixture(dataset, 3, 0.35, 0.2);
  ASSERT_FALSE(ws.components.empty());
  TempFile file("v4_hostile.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  std::string bytes = ReadAll(file.path());

  // The 56-byte tail: meta_offset, meta_size, meta_checksum, table_offset,
  // table_checksum, file_size, "KR4FOOTR". Patch the first table entry's
  // reserved field (offset 56 inside the entry) and RE-SIGN the table, so
  // only the dedicated reserved-field check can catch it.
  const size_t tail = bytes.size() - 56;
  uint64_t table_offset = 0;
  std::memcpy(&table_offset, bytes.data() + tail + 24, 8);
  const size_t table_size = tail - table_offset;
  ASSERT_GT(table_size, 0u);
  ASSERT_EQ(table_size % 64, 0u);
  uint64_t evil = 0xDEADBEEF;
  std::memcpy(bytes.data() + table_offset + 56, &evil, 8);
  uint64_t resigned = Fnv1a64(bytes.data() + table_offset, table_size);
  std::memcpy(bytes.data() + tail + 32, &resigned, 8);
  WriteAll(file.path(), bytes);

  PreparedWorkspace loaded;
  Status s = LoadWorkspaceSnapshot(file.path(), Lazy(), &loaded, nullptr);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("reserved"), std::string::npos) << s.message();
}

TEST(SnapshotV4, RegistryRecordsLoadModeVersionAndTiming) {
  auto dataset = test::MakeRandomGeo(100, 700, 37);
  PreparedWorkspace ws = ScoredFixture(dataset, 3, 0.35, 0.2);
  ASSERT_FALSE(ws.components.empty());
  TempFile v4("reg_v4.krws"), v3("reg_v3.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, v4.path()).ok());
  ASSERT_TRUE(
      SaveWorkspaceSnapshot(ws, v3.path(), kSnapshotVersionSectioned).ok());

  WorkspaceRegistry registry;
  ASSERT_TRUE(registry
                  .AddFromSnapshot("lazy4", v4.path(),
                                   WorkspaceRegistry::SnapshotLoadMode::kLazy)
                  .ok());
  ASSERT_TRUE(registry
                  .AddFromSnapshot("eager3", v3.path(),
                                   WorkspaceRegistry::SnapshotLoadMode::kEager)
                  .ok());
  PreparedWorkspace built = ScoredFixture(dataset, 3, 0.35, 0.2);
  ASSERT_TRUE(registry.Add("inproc", std::move(built)).ok());

  for (const auto& e : registry.List()) {
    if (e.name == "lazy4") {
      EXPECT_EQ(e.snapshot_version, 4u);
      EXPECT_TRUE(e.lazy_loaded);
      EXPECT_GE(e.load_seconds, 0.0);
    } else if (e.name == "eager3") {
      EXPECT_EQ(e.snapshot_version, 3u);
      EXPECT_FALSE(e.lazy_loaded);
      EXPECT_FALSE(e.mapped);
    } else {
      EXPECT_EQ(e.snapshot_version, 0u) << "built in-process, no snapshot";
      EXPECT_FALSE(e.lazy_loaded);
    }
  }
}

}  // namespace
}  // namespace krcore
