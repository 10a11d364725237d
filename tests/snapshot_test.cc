#include "snapshot/workspace_snapshot.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/pipeline.h"
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

PreparedWorkspace PrepareFixture(const Dataset& dataset, uint32_t k,
                                 double r) {
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, r);
  PipelineOptions opts;
  opts.k = k;
  PreparedWorkspace ws;
  EXPECT_TRUE(PrepareWorkspace(dataset.graph, oracle, opts, &ws).ok());
  return ws;
}

void ExpectComponentsEqual(const std::vector<ComponentContext>& a,
                           const std::vector<ComponentContext>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].size(), b[i].size());
    EXPECT_EQ(a[i].to_parent, b[i].to_parent);
    ASSERT_EQ(a[i].graph.num_edges(), b[i].graph.num_edges());
    EXPECT_EQ(a[i].num_dissimilar_pairs(), b[i].num_dissimilar_pairs());
    for (VertexId u = 0; u < a[i].size(); ++u) {
      auto an = a[i].graph.neighbors(u);
      auto bn = b[i].graph.neighbors(u);
      ASSERT_TRUE(std::equal(an.begin(), an.end(), bn.begin(), bn.end()));
      auto ad = a[i].dissimilar[u];
      auto bd = b[i].dissimilar[u];
      ASSERT_TRUE(std::equal(ad.begin(), ad.end(), bd.begin(), bd.end()));
    }
  }
}

TEST(Snapshot, RoundTripIsLossless) {
  auto dataset = test::MakeRandomGeo(120, 700, 11);
  PreparedWorkspace ws = PrepareFixture(dataset, 3, 0.35);
  ASSERT_FALSE(ws.components.empty());

  TempFile file("roundtrip.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());

  EXPECT_EQ(loaded.k, ws.k);
  EXPECT_DOUBLE_EQ(loaded.threshold, ws.threshold);
  ExpectComponentsEqual(ws.components, loaded.components);
}

TEST(Snapshot, MiningFromLoadedSnapshotMatchesFreshPreprocessing) {
  auto dataset = test::MakeRandomGeo(150, 900, 5);
  SimilarityOracle oracle(&dataset.attributes, dataset.metric, 0.3);
  const uint32_t k = 3;

  PreparedWorkspace ws = PrepareFixture(dataset, k, 0.3);
  TempFile file("mine.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());

  auto fresh = EnumerateMaximalCores(dataset.graph, oracle, AdvEnumOptions(k));
  auto served = EnumerateMaximalCores(loaded.components, AdvEnumOptions(k));
  ASSERT_TRUE(fresh.status.ok());
  ASSERT_TRUE(served.status.ok());
  EXPECT_EQ(fresh.cores, served.cores);
  EXPECT_EQ(fresh.stats.prepare_pair_sweeps, 1u);
  EXPECT_EQ(served.stats.prepare_pair_sweeps, 0u);

  auto fresh_max = FindMaximumCore(dataset.graph, oracle, AdvMaxOptions(k));
  auto served_max = FindMaximumCore(loaded.components, AdvMaxOptions(k));
  ASSERT_TRUE(fresh_max.status.ok());
  ASSERT_TRUE(served_max.status.ok());
  EXPECT_EQ(fresh_max.best, served_max.best);
}

TEST(Snapshot, EmptyWorkspaceRoundTrips) {
  PreparedWorkspace ws;
  ws.k = 7;
  ws.threshold = 2.5;
  ws.score_cover = 2.5;
  TempFile file("empty.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());
  EXPECT_EQ(loaded.k, 7u);
  EXPECT_DOUBLE_EQ(loaded.threshold, 2.5);
  EXPECT_DOUBLE_EQ(loaded.score_cover, 2.5);
  EXPECT_TRUE(loaded.components.empty());
}

TEST(Snapshot, MissingFileIsNotFound) {
  PreparedWorkspace loaded;
  EXPECT_EQ(
      LoadWorkspaceSnapshot("/nonexistent/dir/x.krws", &loaded).code(),
      StatusCode::kNotFound);
}

TEST(Snapshot, WrongMagicIsRejected) {
  TempFile file("magic.krws");
  WriteAll(file.path(), "DEFINITELY NOT A SNAPSHOT FILE................");
  PreparedWorkspace loaded;
  Status s = LoadWorkspaceSnapshot(file.path(), &loaded);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("magic"), std::string::npos);
  EXPECT_TRUE(loaded.components.empty());
}

TEST(Snapshot, UnsupportedVersionIsRejected) {
  // Version 4 is the only format this build reads: the retired sectioned
  // versions 1-3 and any later version fail with one clean error under an
  // eager load, a lazy load and InspectSnapshot, leaving the output empty.
  auto dataset = test::MakeRandomGeo(40, 150, 3);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("version.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  const std::string good = ReadAll(file.path());
  for (uint32_t version : {1u, 2u, 3u, 4u, 6u, 0xEEu}) {
    SCOPED_TRACE("version " + std::to_string(version));
    std::string bytes = good;
    // The version u32 follows the 8-byte magic.
    std::memcpy(bytes.data() + 8, &version, sizeof(version));
    WriteAll(file.path(), bytes);
    std::string expect = "unsupported snapshot version ";
    expect += std::to_string(version) + " (this build reads version 5)";
    for (bool lazy : {false, true}) {
      SnapshotLoadOptions options;
      options.lazy = lazy;
      PreparedWorkspace loaded;
      loaded.k = 99;
      Status s = LoadWorkspaceSnapshot(file.path(), options, &loaded);
      EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
      EXPECT_NE(s.message().find(expect), std::string::npos) << s.ToString();
      EXPECT_EQ(loaded.k, 0u);
      EXPECT_TRUE(loaded.components.empty());
    }
    SnapshotInfo info;
    info.k = 99;
    Status s = InspectSnapshot(file.path(), &info);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find(expect), std::string::npos) << s.ToString();
    EXPECT_EQ(info.format_version, 0u);
    EXPECT_EQ(info.k, 0u);
    EXPECT_TRUE(info.sections.empty());
  }
}

TEST(Snapshot, TruncationAnywhereIsCleanError) {
  auto dataset = test::MakeRandomGeo(60, 260, 4);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("trunc.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  const std::string bytes = ReadAll(file.path());
  ASSERT_GT(bytes.size(), 64u);
  // Cut at a spread of prefix lengths covering the header, mid-component
  // blobs, and the meta/table/tail footer. Every cut must fail cleanly (and
  // never crash — the ASan CI job leans on this test).
  for (size_t len : {size_t{0}, size_t{4}, size_t{11}, size_t{16},
                     size_t{30}, bytes.size() / 4, bytes.size() / 2,
                     bytes.size() - 9, bytes.size() - 1}) {
    WriteAll(file.path(), bytes.substr(0, len));
    PreparedWorkspace loaded;
    Status s = LoadWorkspaceSnapshot(file.path(), &loaded);
    EXPECT_TRUE(s.IsInvalidArgument()) << "prefix length " << len;
    EXPECT_TRUE(loaded.components.empty()) << "prefix length " << len;
  }
}

TEST(Snapshot, BitFlipFailsChecksum) {
  auto dataset = test::MakeRandomGeo(60, 260, 8);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("flip.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  const std::string bytes = ReadAll(file.path());
  // Flip one byte inside every 64-byte window past the version field: each
  // flip must be caught (checksum mismatch) or rejected by a structural
  // check; which one depends on whether it hits a blob or the footer.
  for (size_t pos = 13; pos < bytes.size(); pos += 64) {
    std::string mutated = bytes;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x40);
    WriteAll(file.path(), mutated);
    PreparedWorkspace loaded;
    Status s = LoadWorkspaceSnapshot(file.path(), &loaded);
    EXPECT_FALSE(s.ok()) << "flipped byte at " << pos;
    EXPECT_TRUE(loaded.components.empty()) << "flipped byte at " << pos;
  }
}

TEST(Snapshot, GraphVersionRoundTrips) {
  auto dataset = test::MakeRandomGeo(50, 200, 12);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  ws.version = 41;  // as if 41 update batches had been applied
  TempFile file("version_field.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());
  EXPECT_EQ(loaded.version, 41u);
}

// --- Hand-built hostile files: every checksum valid, the content evil. ----

constexpr uint64_t Align64(uint64_t x) { return (x + 63) & ~uint64_t{63}; }

template <typename T>
void Put(std::string* s, T v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint64_t Fnv(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// The 40-byte meta payload, graph version 0.
std::string MetaBytes(uint64_t num_components, uint32_t k, double threshold,
                      uint32_t flags, double cover) {
  std::string meta;
  Put<uint32_t>(&meta, k);
  Put<double>(&meta, threshold);
  Put<uint64_t>(&meta, 0);  // graph version
  Put<uint32_t>(&meta, flags);
  Put<double>(&meta, cover);
  Put<uint64_t>(&meta, num_components);
  return meta;
}

/// Point-interval meta: flags 0, cover == threshold.
std::string PointMeta(uint64_t num_components, uint32_t k = 2) {
  return MetaBytes(num_components, k, 1.0, 0, 1.0);
}

/// Similarity-metric meta (flags 0): serve r=0.5, cover r=0.8.
std::string ScoredMeta(uint64_t num_components, double threshold = 0.5,
                       double cover = 0.8, uint32_t flags = 0) {
  return MetaBytes(num_components, 2, threshold, flags, cover);
}

/// One reserve-row entry: the partner and its score.
struct Entry {
  uint32_t v = 0;
  double score = 0.0;
};

/// A component given by its in-memory rows (local ids, identity to_parent).
/// The builder derives the section-table counts and the reserve offsets
/// from the rows unless a hostile case pins one.
struct HandComponent {
  std::vector<std::vector<uint32_t>> adjacency;
  std::vector<std::vector<uint32_t>> active;  // one row per vertex
  std::vector<std::vector<Entry>> reserve;    // one row per vertex
  std::optional<uint32_t> table_max_degree;
  std::optional<uint64_t> table_num_pairs;
  std::optional<std::vector<uint64_t>> reserve_offsets;
};

/// The triangle 0-1-2 with empty dissimilarity rows.
HandComponent Triangle() {
  HandComponent c;
  c.adjacency = {{1, 2}, {0, 2}, {0, 1}};
  c.active.resize(3);
  c.reserve.resize(3);
  return c;
}

/// The triangle with active pair {0,1} and reserve pair {1,2}, whose two
/// directions store `score` and `mirror_score`.
HandComponent ScoredTriangle(double score, double mirror_score) {
  HandComponent c = Triangle();
  c.active[0] = {1};
  c.active[1] = {0};
  c.reserve[1] = {{2, score}};
  c.reserve[2] = {{1, mirror_score}};
  return c;
}

HandComponent ScoredTriangle(double score) {
  return ScoredTriangle(score, score);
}

/// Serializes a complete v5 file: the 64-byte header, one blob per
/// component with every array 64-byte aligned, the meta, the section table
/// and the 56-byte tail, with valid FNV-1a checksums throughout.
std::string HandBuiltFile(const std::string& meta,
                          const std::vector<HandComponent>& comps) {
  std::string file(kSnapshotMagic, sizeof(kSnapshotMagic));
  Put<uint32_t>(&file, kSnapshotVersion);
  file.resize(64, '\0');
  std::string table;
  for (const HandComponent& c : comps) {
    const uint32_t n = static_cast<uint32_t>(c.adjacency.size());
    std::vector<uint64_t> graph_offsets = {0};
    std::vector<uint64_t> d_offsets = {0};
    std::vector<uint64_t> r_offsets = {0};
    std::vector<uint32_t> neighbors, to_parent, ids, r_ids;
    std::vector<double> r_scores;
    uint32_t max_degree = 0;
    for (uint32_t u = 0; u < n; ++u) {
      const auto& row = c.adjacency[u];
      neighbors.insert(neighbors.end(), row.begin(), row.end());
      graph_offsets.push_back(neighbors.size());
      max_degree = std::max(max_degree, static_cast<uint32_t>(row.size()));
      to_parent.push_back(u);
      ids.insert(ids.end(), c.active[u].begin(), c.active[u].end());
      d_offsets.push_back(ids.size());
      for (const Entry& e : c.reserve[u]) {
        r_ids.push_back(e.v);
        r_scores.push_back(e.score);
      }
      r_offsets.push_back(r_ids.size());
    }
    std::string blob;
    auto put_array = [&blob](const auto& values) {
      if (!values.empty()) {
        blob.append(reinterpret_cast<const char*>(values.data()),
                    values.size() * sizeof(values[0]));
      }
      blob.resize(Align64(blob.size()), '\0');
    };
    put_array(graph_offsets);
    put_array(neighbors);
    put_array(to_parent);
    put_array(d_offsets);
    put_array(ids);
    put_array(c.reserve_offsets.value_or(r_offsets));
    put_array(r_ids);
    put_array(r_scores);

    Put<uint64_t>(&table, file.size());
    Put<uint64_t>(&table, blob.size());
    Put<uint64_t>(&table, Fnv(blob));
    Put<uint32_t>(&table, n);
    Put<uint32_t>(&table, c.table_max_degree.value_or(max_degree));
    Put<uint64_t>(&table, neighbors.size() / 2);
    Put<uint64_t>(&table, c.table_num_pairs.value_or(ids.size() / 2));
    Put<uint64_t>(&table, r_ids.size() / 2);
    Put<uint64_t>(&table, 0);  // reserved
    file += blob;
  }
  const uint64_t meta_offset = file.size();
  file += meta;
  const uint64_t table_offset = file.size();
  file += table;
  Put<uint64_t>(&file, meta_offset);
  Put<uint64_t>(&file, meta.size());
  Put<uint64_t>(&file, Fnv(meta));
  Put<uint64_t>(&file, table_offset);
  Put<uint64_t>(&file, Fnv(table));
  Put<uint64_t>(&file, table_offset + table.size() + 56);
  file.append("KR5FOOTR", 8);
  return file;
}

/// A file-level defect: eager and lazy loads both fail with `expect`
/// before any component is handed out, and reset the output.
void ExpectFileRejected(const std::string& bytes, const std::string& expect) {
  TempFile file("hostile.krws");
  WriteAll(file.path(), bytes);
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy load" : "eager load");
    SnapshotLoadOptions options;
    options.lazy = lazy;
    PreparedWorkspace loaded;
    loaded.k = 99;
    Status s = LoadWorkspaceSnapshot(file.path(), options, &loaded);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find(expect), std::string::npos) << s.ToString();
    EXPECT_EQ(loaded.k, 0u) << "output must be reset, not half-filled";
    EXPECT_TRUE(loaded.components.empty());
  }
}

/// A component-level defect: an eager load fails with `expect`; a lazy
/// load succeeds, and the component's first EnsureValid returns the eager
/// load's exact text.
void ExpectComponentRejected(const std::string& bytes,
                             const std::string& expect) {
  TempFile file("hostile.krws");
  WriteAll(file.path(), bytes);
  PreparedWorkspace eager;
  Status s = LoadWorkspaceSnapshot(file.path(), &eager);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find(expect), std::string::npos) << s.ToString();
  EXPECT_TRUE(eager.components.empty());

  SnapshotLoadOptions options;
  options.lazy = true;
  PreparedWorkspace lazy;
  Status lazy_load = LoadWorkspaceSnapshot(file.path(), options, &lazy);
  ASSERT_TRUE(lazy_load.ok()) << lazy_load.ToString();
  ASSERT_EQ(lazy.components.size(), 1u);
  EXPECT_EQ(lazy.components[0].EnsureValid().message(), s.message());
}

TEST(Snapshot, HandBuiltFileLoads) {
  // The builder itself must produce files the loader accepts, or the
  // rejections below would prove nothing. A K4 whose only active pair is
  // {0,1} (serve r=0.5, cover r=0.8): its maximal (2,r)-cores are {0,2,3}
  // and {1,2,3}.
  HandComponent comp;
  comp.adjacency = {{1, 2, 3}, {0, 2, 3}, {0, 1, 3}, {0, 1, 2}};
  comp.active = {{1}, {0}, {}, {}};
  comp.reserve = {{}, {}, {{3, 0.6}}, {{2, 0.6}}};
  TempFile file("hand_built.krws");
  WriteAll(file.path(), HandBuiltFile(ScoredMeta(1), {comp}));
  for (bool lazy : {false, true}) {
    SCOPED_TRACE(lazy ? "lazy load" : "eager load");
    SnapshotLoadOptions options;
    options.lazy = lazy;
    PreparedWorkspace loaded;
    Status s = LoadWorkspaceSnapshot(file.path(), options, &loaded);
    ASSERT_TRUE(s.ok()) << s.ToString();
    ASSERT_TRUE(loaded.EnsureAllValid().ok());
    EXPECT_DOUBLE_EQ(loaded.score_cover, 0.8);
    ASSERT_EQ(loaded.components.size(), 1u);
    EXPECT_EQ(loaded.components[0].num_dissimilar_pairs(), 1u);
    EXPECT_EQ(loaded.components[0].dissimilar.num_reserve_pairs(), 1u);
    auto mined = EnumerateMaximalCores(loaded.components, AdvEnumOptions(2));
    ASSERT_TRUE(mined.status.ok()) << mined.status.ToString();
    EXPECT_EQ(mined.cores, (std::vector<VertexSet>{{0, 2, 3}, {1, 2, 3}}));
  }
}

TEST(Snapshot, AsymmetricAdjacencyIsRejected) {
  // Rows {0: [], 1: [0], 2: [0]}: every row is sorted, in-range and
  // self-loop free, so only the reverse-edge probe can catch it.
  HandComponent c;
  c.adjacency = {{}, {0}, {0}};
  c.active.resize(3);
  c.reserve.resize(3);
  const std::string bytes = HandBuiltFile(PointMeta(1), {c});
  ExpectComponentRejected(bytes, "asymmetric adjacency");
}

TEST(Snapshot, OverflowCraftedPairCountIsRejected) {
  // A table entry declaring 2^61 pairs: 2 * 4 * num_pairs wraps modulo
  // 2^64, so naive layout arithmetic could match a blob with no pair bytes
  // at all. The divide-first bound must reject it before that arithmetic.
  HandComponent c;
  c.adjacency = {{}, {}, {}};
  c.active.resize(3);
  c.reserve.resize(3);
  c.table_num_pairs = uint64_t{1} << 61;
  const std::string bytes = HandBuiltFile(PointMeta(1), {c});
  ExpectFileRejected(bytes, "declared counts exceed the payload");
}

TEST(Snapshot, KZeroMetaIsRejected) {
  // No writer produces k = 0 (PrepareWorkspace rejects it), and the
  // prepared-components mining overloads downstream of a load never
  // re-validate k — the loader is the ingress that must close the hole.
  const std::string bytes = HandBuiltFile(PointMeta(0, /*k=*/0), {});
  ExpectFileRejected(bytes, "k must be a positive");
}

TEST(Snapshot, HostileComponentCountIsRejectedUpFront) {
  // num_components = 2^62 cannot possibly fit in the file; the loader must
  // fail from the table bound, not by walking (or reserving) that many
  // entries.
  const uint64_t hostile = uint64_t{1} << 62;
  const std::string bytes = HandBuiltFile(PointMeta(hostile), {});
  ExpectFileRejected(bytes, "component count exceeds the file");
}

TEST(Snapshot, ReserveScoreOutsideTheBandIsRejected) {
  // Similarity metric, serve 0.5, cover 0.8: a reserve pair needs
  // 0.5 <= score < 0.8, and a finite score.
  const std::pair<double, const char*> cases[] = {
      {0.9, "outside the serve..cover band"},
      {0.3, "outside the serve..cover band"},
      {std::numeric_limits<double>::quiet_NaN(), "non-finite"},
      {std::numeric_limits<double>::infinity(), "non-finite"},
  };
  for (const auto& [score, expect] : cases) {
    SCOPED_TRACE("score " + std::to_string(score));
    ExpectComponentRejected(
        HandBuiltFile(ScoredMeta(1), {ScoredTriangle(score)}), expect);
  }
}

TEST(Snapshot, PairListedInBothRowsIsRejected) {
  // {0,1} active and again reserve at 0.6, mirrored consistently.
  HandComponent c = Triangle();
  c.active[0] = {1};
  c.active[1] = {0};
  c.reserve[0] = {{1, 0.6}};
  c.reserve[1] = {{0, 0.6}};
  ExpectComponentRejected(HandBuiltFile(ScoredMeta(1), {c}),
                          "both active and reserve");
}

TEST(Snapshot, MalformedScoredMetaIsRejected) {
  // Cover looser than serve under either metric direction, and unknown
  // flag bits.
  const std::pair<std::string, const char*> cases[] = {
      {ScoredMeta(0, /*threshold=*/0.5, /*cover=*/0.3), "score cover looser"},
      {ScoredMeta(0, 0.5, 0.8, /*flags=*/1), "score cover looser"},
      {ScoredMeta(0, 0.5, 0.8, /*flags=*/2), "unknown meta flag bits"},
  };
  for (size_t i = 0; i < std::size(cases); ++i) {
    SCOPED_TRACE("case " + std::to_string(i));
    ExpectFileRejected(HandBuiltFile(cases[i].first, {}), cases[i].second);
  }
}

TEST(Snapshot, AsymmetricDissimilarPairIsRejected) {
  // Rows {0: [1], 1: [], 2: [1]}: 0 lists 1, which does not list it back.
  HandComponent c = Triangle();
  c.active[0] = {1};
  c.active[2] = {1};
  ExpectComponentRejected(HandBuiltFile(PointMeta(1), {c}),
                          "asymmetric dissimilar pair");
}

TEST(Snapshot, AsymmetricReservePairIsRejected) {
  // Reserve rows {0: [1], 1: [], 2: [1]}, every score in the band.
  HandComponent c = Triangle();
  c.reserve[0] = {{1, 0.6}};
  c.reserve[2] = {{1, 0.6}};
  ExpectComponentRejected(HandBuiltFile(ScoredMeta(1), {c}),
                          "asymmetric dissimilar pair");
}

TEST(Snapshot, MirroredReserveScoreMismatchIsRejected) {
  // Both directions of reserve pair {1,2} sit in the band, but disagree.
  ExpectComponentRejected(
      HandBuiltFile(ScoredMeta(1), {ScoredTriangle(0.6, 0.7)}),
      "mirrored pair score mismatch");
}

TEST(Snapshot, NonMonotoneReserveOffsetsAreRejected) {
  // Reserve pair {1,2}: rows [0,1) and [1,2), stored as offsets
  // {0, 1, 0, 2} instead of {0, 0, 1, 2}.
  HandComponent c = ScoredTriangle(0.6);
  c.reserve_offsets = std::vector<uint64_t>{0, 1, 0, 2};
  ExpectComponentRejected(HandBuiltFile(ScoredMeta(1), {c}),
                          "dissimilarity offsets not monotone");
}

TEST(Snapshot, StoredMaxDegreeMismatchIsRejected) {
  // Mining reads max_degree from the table before validation; it must
  // still be the truth.
  HandComponent c = Triangle();
  c.table_max_degree = 3;
  const std::string bytes = HandBuiltFile(PointMeta(1), {c});
  ExpectComponentRejected(bytes, "stored max degree mismatch");
}

TEST(Snapshot, StoredPairCountsMismatchIsRejected) {
  // One active pair declared as two: both id arrays pad to one 64-byte
  // line, so the layout matches and only the row-length check sees it.
  HandComponent c = ScoredTriangle(0.6);
  c.table_num_pairs = 2;
  ExpectComponentRejected(HandBuiltFile(ScoredMeta(1), {c}),
                          "dissimilarity rows != pair count");
}

TEST(Snapshot, TrailingGarbageIsRejected) {
  auto dataset = test::MakeRandomGeo(40, 150, 6);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("trail.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());
  WriteAll(file.path(), ReadAll(file.path()) + "extra");
  PreparedWorkspace loaded;
  EXPECT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).IsInvalidArgument());
}

// --- Crash atomicity: a failed save must never damage the previous
// snapshot, and must never leave the staging file behind. -------------------

class SnapshotFailpoint : public ::testing::Test {
 protected:
  void SetUp() override { Failpoints::DisableAll(); }
  void TearDown() override { Failpoints::DisableAll(); }
};

bool FileExists(const std::string& path) {
  return std::ifstream(path, std::ios::binary).good();
}

TEST_F(SnapshotFailpoint, UnopenablePathIsNotFound) {
  auto dataset = test::MakeRandomGeo(30, 100, 2);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  Status s = SaveWorkspaceSnapshot(ws, "/nonexistent/dir/x.krws");
  EXPECT_EQ(s.code(), StatusCode::kNotFound) << s.ToString();
}

TEST_F(SnapshotFailpoint, FailedSaveLeavesOldSnapshotIntactAndNoTmpFile) {
  auto old_dataset = test::MakeRandomGeo(60, 260, 21);
  auto new_dataset = test::MakeRandomGeo(80, 400, 22);
  PreparedWorkspace old_ws = PrepareFixture(old_dataset, 2, 0.4);
  PreparedWorkspace new_ws = PrepareFixture(new_dataset, 3, 0.35);

  TempFile file("atomic.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(old_ws, file.path()).ok());
  const std::string old_bytes = ReadAll(file.path());

  // A fault at any stage of the save — mid-section (leaving a torn
  // prefix in the staging file), at flush, or at the final rename — must
  // return Internal, leave the committed file byte-identical, and clean
  // up the staging file.
  for (const char* site :
       {"snapshot/write_section", "snapshot/flush", "snapshot/rename"}) {
    Failpoints::Enable(site, FailpointSpec::Once());
    Status s = SaveWorkspaceSnapshot(new_ws, file.path());
    EXPECT_EQ(s.code(), StatusCode::kInternal) << site;
    EXPECT_EQ(ReadAll(file.path()), old_bytes) << site;
    EXPECT_FALSE(FileExists(file.path() + ".tmp")) << site;
    PreparedWorkspace loaded;
    ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok()) << site;
    ExpectComponentsEqual(old_ws.components, loaded.components);
  }

  // With the failpoints drained the very same save commits.
  ASSERT_TRUE(SaveWorkspaceSnapshot(new_ws, file.path()).ok());
  PreparedWorkspace loaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &loaded).ok());
  ExpectComponentsEqual(new_ws.components, loaded.components);
  EXPECT_FALSE(FileExists(file.path() + ".tmp"));
}

TEST_F(SnapshotFailpoint, SectionWriteFaultNamesTheSectionTag) {
  auto dataset = test::MakeRandomGeo(40, 150, 9);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("tagged.krws");
  Failpoints::Enable("snapshot/write_section", FailpointSpec::Once());
  Status s = SaveWorkspaceSnapshot(ws, file.path());
  ASSERT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("section tag"), std::string::npos)
      << s.ToString();
}

TEST_F(SnapshotFailpoint, FirstSaveFailureLeavesNoFileAtAll) {
  auto dataset = test::MakeRandomGeo(40, 150, 10);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  TempFile file("fresh_fail.krws");
  Failpoints::Enable("snapshot/rename", FailpointSpec::Once());
  EXPECT_EQ(SaveWorkspaceSnapshot(ws, file.path()).code(),
            StatusCode::kInternal);
  EXPECT_FALSE(FileExists(file.path()));
  EXPECT_FALSE(FileExists(file.path() + ".tmp"));
}

TEST_F(SnapshotFailpoint, ReadFaultFailsLoadWithEmptyOutput) {
  auto dataset = test::MakeRandomGeo(40, 150, 13);
  PreparedWorkspace ws = PrepareFixture(dataset, 2, 0.4);
  ASSERT_FALSE(ws.components.empty());
  TempFile file("read_fault.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, file.path()).ok());

  Failpoints::Enable("snapshot/read_section", FailpointSpec::Once());
  PreparedWorkspace loaded;
  loaded.k = 99;  // must be reset, not half-filled
  Status s = LoadWorkspaceSnapshot(file.path(), &loaded);
  EXPECT_EQ(s.code(), StatusCode::kInternal) << s.ToString();
  EXPECT_TRUE(loaded.components.empty());
  EXPECT_EQ(loaded.k, 0u);

  // The file itself is untouched: the next load succeeds.
  PreparedWorkspace reloaded;
  ASSERT_TRUE(LoadWorkspaceSnapshot(file.path(), &reloaded).ok());
  ExpectComponentsEqual(ws.components, reloaded.components);
}

}  // namespace
}  // namespace krcore
