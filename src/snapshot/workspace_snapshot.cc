#include "snapshot/workspace_snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/dissimilarity_index.h"
#include "graph/graph.h"
#include "similarity/similarity_oracle.h"
#include "snapshot/mapped_file.h"
#include "util/failpoint.h"

namespace krcore {
namespace {

constexpr uint32_t kMetaSection = 1;
constexpr uint32_t kComponentSection = 2;

// Meta flag bits.
constexpr uint32_t kFlagDistance = 1u << 0;

// Fixed-size regions.
constexpr uint64_t kHeaderSize = 64;
constexpr uint64_t kTailSize = 56;
constexpr uint64_t kTableEntrySize = 64;
constexpr char kFooterMagic[8] = {'K', 'R', '5', 'F', 'O', 'O', 'T', 'R'};

uint64_t Fnv1a64(const char* data, size_t len) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t Fnv1a64(const uint8_t* data, size_t len) {
  return Fnv1a64(reinterpret_cast<const char*>(data), len);
}

/// Append-only little-endian buffer for the meta, table and tail.
class PayloadWriter {
 public:
  void PutU32(uint32_t v) { PutRaw(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof(v)); }
  void PutDouble(double v) { PutRaw(&v, sizeof(v)); }

  const std::string& bytes() const { return bytes_; }

 private:
  void PutRaw(const void* p, size_t n) {
    bytes_.append(static_cast<const char*>(p), n);
  }
  std::string bytes_;
};

uint64_t ReadU64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

double ReadF64(const uint8_t* p) {
  double v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("corrupt workspace snapshot: " + what);
}

/// The 40-byte meta payload: k u32, threshold f64, graph version u64,
/// flags u32, score_cover f64, num_components u64.
/// Parsing and semantic checking are split so InspectSnapshot can report
/// what a damaged file *says* without judging it.
constexpr uint64_t kMetaSize = 40;

struct MetaFields {
  uint32_t k = 0;
  double threshold = 0.0;
  uint64_t version = 0;
  uint32_t flags = 0;
  double score_cover = 0.0;
  uint64_t num_components = 0;
  bool is_distance = false;
};

bool ReadMetaFields(const uint8_t* p, uint64_t size, MetaFields* m) {
  if (size != kMetaSize) return false;
  m->k = ReadU32(p);
  m->threshold = ReadF64(p + 4);
  m->version = ReadU64(p + 12);
  m->flags = ReadU32(p + 20);
  m->score_cover = ReadF64(p + 24);
  m->num_components = ReadU64(p + 32);
  m->is_distance = (m->flags & kFlagDistance) != 0;
  return true;
}

Status CheckMetaFields(const MetaFields& m) {
  if ((m.flags & ~kFlagDistance) != 0) {
    return Corrupt("unknown meta flag bits");
  }
  // A point interval (cover == threshold) is any threshold the oracle can
  // hold; a widened one must order two finite thresholds.
  if (m.score_cover != m.threshold &&
      (!std::isfinite(m.threshold) || !std::isfinite(m.score_cover) ||
       !ThresholdAtLeastAsStrict(m.score_cover, m.threshold,
                                 m.is_distance))) {
    return Corrupt("score cover looser than the serving threshold");
  }
  // No writer can produce k = 0 (PrepareWorkspace rejects it), and the
  // prepared-components mining overloads downstream of a load do not
  // re-validate k — so close the one ingress a crafted file would have.
  if (m.k == 0) return Corrupt("workspace k must be a positive integer");
  return Status::OK();
}

void ApplyMeta(const MetaFields& m, PreparedWorkspace* out) {
  out->k = m.k;
  out->threshold = m.threshold;
  out->version = m.version;
  out->is_distance = m.is_distance;
  out->score_cover = m.score_cover;
}

std::string MetaPayloadBytes(const PreparedWorkspace& ws) {
  PayloadWriter meta;
  meta.PutU32(ws.k);
  meta.PutDouble(ws.threshold);
  meta.PutU64(ws.version);
  meta.PutU32(ws.is_distance ? kFlagDistance : 0);
  meta.PutDouble(ws.score_cover);
  meta.PutU64(ws.components.size());
  return meta.bytes();
}

constexpr uint64_t Align64(uint64_t x) { return (x + 63) & ~uint64_t{63}; }

/// Byte offsets of each array inside one component blob. The arrays are
/// the exact in-memory CSR layout — each starts on a 64-byte boundary and
/// the blob is padded to a 64-byte multiple (the pad is inside blob_size
/// and the checksum, so every stored byte is covered). Every unordered pair
/// appears in both endpoints' rows, so the active rows hold 2 * num_pairs
/// ids and the reserve rows 2 * num_reserve_pairs (id, score) entries.
struct BlobLayout {
  uint64_t graph_offsets = 0;    // (n+1) x u64
  uint64_t neighbors = 0;        // 2m x u32
  uint64_t to_parent = 0;        // n x u32
  uint64_t d_offsets = 0;        // (n+1) x u64
  uint64_t d_ids = 0;            // 2 * num_pairs x u32
  uint64_t r_offsets = 0;        // (n+1) x u64
  uint64_t r_ids = 0;            // 2 * num_reserve x u32
  uint64_t r_scores = 0;         // 2 * num_reserve x f64
  uint64_t total = 0;            // 64-byte multiple
};

BlobLayout ComputeBlobLayout(uint64_t n, uint64_t num_edges,
                             uint64_t num_pairs, uint64_t num_reserve) {
  BlobLayout l;
  uint64_t pos = 0;
  const auto place = [&pos](uint64_t* field, uint64_t bytes) {
    *field = pos;
    pos = Align64(pos + bytes);
  };
  place(&l.graph_offsets, (n + 1) * 8);
  place(&l.neighbors, 2 * num_edges * 4);
  place(&l.to_parent, n * 4);
  place(&l.d_offsets, (n + 1) * 8);
  place(&l.d_ids, 2 * num_pairs * 4);
  place(&l.r_offsets, (n + 1) * 8);
  place(&l.r_ids, 2 * num_reserve * 4);
  place(&l.r_scores, 2 * num_reserve * 8);
  l.total = pos;
  return l;
}

/// The typed array at `offset` inside a mapped blob.
template <typename T>
std::span<const T> BlobArray(const uint8_t* blob, uint64_t offset,
                             uint64_t size) {
  return {reinterpret_cast<const T*>(blob + offset),
          static_cast<size_t>(size)};
}

std::string ComponentBlob(const ComponentContext& ctx) {
  const uint64_t n = ctx.size();
  const uint64_t num_edges = ctx.graph.num_edges();
  const DissimilarityIndex& d = ctx.dissimilar;
  const BlobLayout l =
      ComputeBlobLayout(n, num_edges, d.num_pairs(), d.num_reserve_pairs());
  std::string blob(static_cast<size_t>(l.total), '\0');
  // Zero-length spans may carry a null data pointer; the zero-filled blob
  // already holds the right bytes for them (an empty CSR's offsets row is
  // a single zero), so only non-empty sources are copied.
  auto copy = [&blob](uint64_t off, const auto& src) {
    const uint64_t bytes = src.size_bytes();
    if (bytes > 0) {
      std::memcpy(blob.data() + off, src.data(), static_cast<size_t>(bytes));
    }
  };
  copy(l.graph_offsets, ctx.graph.offsets());
  copy(l.neighbors, ctx.graph.neighbor_array());
  copy(l.to_parent, ctx.to_parent.span());
  copy(l.d_offsets, d.offsets_array());
  copy(l.d_ids, d.ids_array());
  copy(l.r_offsets, d.reserve_offsets_array());
  copy(l.r_ids, d.reserve_ids_array());
  copy(l.r_scores, d.reserve_scores_array());
  return blob;
}

/// Streams the full snapshot body: header, component blobs, meta payload,
/// section table, tail. The `snapshot/write_section` failpoint fires per
/// component blob (section tag 2) and on the meta (tag 1).
Status WriteSnapshotStream(const PreparedWorkspace& ws, std::ofstream& out,
                           const std::string& tmp_path) {
  char header[kHeaderSize] = {};
  std::memcpy(header, kSnapshotMagic, sizeof(kSnapshotMagic));
  const uint32_t version = kSnapshotVersion;
  std::memcpy(header + sizeof(kSnapshotMagic), &version, sizeof(version));
  out.write(header, static_cast<std::streamsize>(kHeaderSize));
  if (!out.good()) {
    return Status::Internal("short write in snapshot header: " + tmp_path);
  }

  PayloadWriter table;
  uint64_t pos = kHeaderSize;
  for (const auto& ctx : ws.components) {
    const std::string blob = ComponentBlob(ctx);
    if (Failpoints::ShouldFail("snapshot/write_section")) {
      // Mid-blob kill: leave the torn prefix a real crash would have left.
      out.write(blob.data(), static_cast<std::streamsize>(blob.size() / 2));
      out.flush();
      return Status::Internal(
          "injected fault at failpoint 'snapshot/write_section' (section "
          "tag " +
          std::to_string(kComponentSection) + ")");
    }
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!out.good()) {
      return Status::Internal("short write in snapshot section (tag " +
                              std::to_string(kComponentSection) + ")");
    }
    table.PutU64(pos);
    table.PutU64(blob.size());
    table.PutU64(Fnv1a64(blob.data(), blob.size()));
    table.PutU32(ctx.size());
    table.PutU32(ctx.graph.max_degree());
    table.PutU64(ctx.graph.num_edges());
    table.PutU64(ctx.dissimilar.num_pairs());
    table.PutU64(ctx.dissimilar.num_reserve_pairs());
    table.PutU64(0);  // reserved, must be zero
    pos += blob.size();
  }

  const std::string meta = MetaPayloadBytes(ws);
  const uint64_t meta_offset = pos;
  if (Failpoints::ShouldFail("snapshot/write_section")) {
    out.write(meta.data(), static_cast<std::streamsize>(meta.size() / 2));
    out.flush();
    return Status::Internal(
        "injected fault at failpoint 'snapshot/write_section' (section tag " +
        std::to_string(kMetaSection) + ")");
  }
  out.write(meta.data(), static_cast<std::streamsize>(meta.size()));
  if (!out.good()) {
    return Status::Internal("short write in snapshot section (tag " +
                            std::to_string(kMetaSection) + ")");
  }
  const uint64_t table_offset = meta_offset + meta.size();
  out.write(table.bytes().data(),
            static_cast<std::streamsize>(table.bytes().size()));
  if (!out.good()) {
    return Status::Internal("short write in snapshot footer: " + tmp_path);
  }

  PayloadWriter tail;
  tail.PutU64(meta_offset);
  tail.PutU64(meta.size());
  tail.PutU64(Fnv1a64(meta.data(), meta.size()));
  tail.PutU64(table_offset);
  tail.PutU64(Fnv1a64(table.bytes().data(), table.bytes().size()));
  tail.PutU64(table_offset + table.bytes().size() + kTailSize);
  out.write(tail.bytes().data(),
            static_cast<std::streamsize>(tail.bytes().size()));
  out.write(kFooterMagic, sizeof(kFooterMagic));
  if (!out.good()) {
    return Status::Internal("short write in snapshot footer: " + tmp_path);
  }
  KRCORE_FAILPOINT("snapshot/flush");
  out.flush();
  if (!out.good()) {
    return Status::Internal("snapshot flush failed: " + tmp_path);
  }
  return Status::OK();
}

/// One decoded section-table entry.
struct TableEntry {
  uint64_t blob_offset = 0;
  uint64_t blob_size = 0;
  uint64_t checksum = 0;
  uint32_t n = 0;
  uint32_t max_degree = 0;
  uint64_t num_edges = 0;
  uint64_t num_pairs = 0;
  uint64_t num_reserve = 0;
};

/// Everything the eager structural pass over a file establishes without
/// reading a single component blob: validated header/tail, checksummed meta
/// and table, and a tiling-verified entry list whose declared counts fit
/// their blobs exactly.
struct FileView {
  MetaFields meta;
  uint64_t meta_offset = 0;
  uint64_t meta_size = 0;
  uint64_t meta_checksum = 0;
  uint64_t table_offset = 0;
  uint64_t table_checksum = 0;
  std::vector<TableEntry> entries;
};

/// The O(components) structural validation every load (lazy or eager) and
/// InspectSnapshot runs after OpenSnapshot has checked the magic and
/// version: header padding, tail cross-validation, meta and table
/// checksums, blob tiling and per-entry count/layout accounting.
/// Deliberately never dereferences a blob byte — a lazy load must stay
/// proportional to the component count, and InspectSnapshot must walk files
/// whose blobs are corrupt.
Status ParseFile(const uint8_t* base, uint64_t size, FileView* v) {
  if (size < kHeaderSize + kTailSize) {
    return Corrupt("file shorter than the footer");
  }
  // The header pad is the one region no checksum covers; requiring it zero
  // keeps "every byte of a file is validated" literally true.
  for (uint64_t i = 12; i < kHeaderSize; ++i) {
    if (base[i] != 0) return Corrupt("nonzero header padding");
  }

  const uint8_t* tail = base + size - kTailSize;
  v->meta_offset = ReadU64(tail);
  v->meta_size = ReadU64(tail + 8);
  v->meta_checksum = ReadU64(tail + 16);
  v->table_offset = ReadU64(tail + 24);
  v->table_checksum = ReadU64(tail + 32);
  const uint64_t stored_file_size = ReadU64(tail + 40);
  if (std::memcmp(tail + 48, kFooterMagic, sizeof(kFooterMagic)) != 0) {
    return Corrupt("bad footer magic");
  }
  if (stored_file_size != size) {
    return Corrupt("footer file size mismatch");
  }
  if (v->meta_offset < kHeaderSize || (v->meta_offset % 64) != 0 ||
      v->meta_offset > size - kTailSize) {
    return Corrupt("meta offset out of range");
  }
  if (v->meta_size > size - kTailSize - v->meta_offset) {
    return Corrupt("meta overruns the footer");
  }
  if (v->table_offset != v->meta_offset + v->meta_size) {
    return Corrupt("table offset inconsistent");
  }
  if (Fnv1a64(base + v->meta_offset, static_cast<size_t>(v->meta_size)) !=
      v->meta_checksum) {
    return Corrupt("section checksum mismatch");
  }
  if (!ReadMetaFields(base + v->meta_offset, v->meta_size, &v->meta)) {
    return Corrupt("malformed meta section");
  }
  // Divide-first: a hostile count can never push the size arithmetic past
  // 64 bits.
  const uint64_t table_bytes = size - kTailSize - v->table_offset;
  if (v->meta.num_components > table_bytes / kTableEntrySize) {
    return Corrupt("declared component count exceeds the file");
  }
  if (v->meta.num_components * kTableEntrySize != table_bytes) {
    return Corrupt("table size mismatch");
  }
  if (Fnv1a64(base + v->table_offset, static_cast<size_t>(table_bytes)) !=
      v->table_checksum) {
    return Corrupt("section checksum mismatch");
  }

  v->entries.reserve(static_cast<size_t>(v->meta.num_components));
  uint64_t expected_offset = kHeaderSize;
  for (uint64_t i = 0; i < v->meta.num_components; ++i) {
    const uint8_t* t = base + v->table_offset + i * kTableEntrySize;
    TableEntry e;
    e.blob_offset = ReadU64(t);
    e.blob_size = ReadU64(t + 8);
    e.checksum = ReadU64(t + 16);
    e.n = ReadU32(t + 24);
    e.max_degree = ReadU32(t + 28);
    e.num_edges = ReadU64(t + 32);
    e.num_pairs = ReadU64(t + 40);
    e.num_reserve = ReadU64(t + 48);
    if (ReadU64(t + 56) != 0) {
      return Corrupt("nonzero reserved field in table entry");
    }
    // Blobs must tile [header, meta) exactly — no gap can hide
    // unchecksummed bytes, no overlap can alias two components.
    if (e.blob_offset != expected_offset) {
      return Corrupt("blobs do not tile the file");
    }
    if (e.blob_size % 64 != 0) {
      return Corrupt("blob size not 64-byte aligned");
    }
    if (e.blob_size > v->meta_offset - expected_offset) {
      return Corrupt("blob overruns the meta section");
    }
    expected_offset += e.blob_size;
    // Divide-first count bounds, then the exact layout equation: the
    // declared geometry must account for every blob byte.
    if (e.num_edges > e.blob_size / 8 || e.n > e.blob_size / 4 ||
        e.num_pairs > e.blob_size / 8 || e.num_reserve > e.blob_size / 8) {
      return Corrupt("declared counts exceed the payload");
    }
    if (ComputeBlobLayout(e.n, e.num_edges, e.num_pairs, e.num_reserve)
            .total != e.blob_size) {
      return Corrupt("component payload size mismatch");
    }
    v->entries.push_back(e);
  }
  if (expected_offset != v->meta_offset) {
    return Corrupt("blobs do not tile the file");
  }
  return Status::OK();
}

/// By-value capture for one component's deferred validation: the mapping
/// keeps the bytes alive, the spans/counts say what to check. Deliberately
/// no pointer to any component instance, so copied components stay
/// coherent.
struct ComponentCheck {
  std::shared_ptr<const SnapshotMapping> backing;
  std::span<const uint8_t> blob;
  uint64_t checksum = 0;
  uint32_t n = 0;
  uint32_t max_degree = 0;
  uint64_t num_edges = 0;
  std::span<const uint64_t> graph_offsets;
  std::span<const VertexId> neighbors;
  std::span<const VertexId> to_parent;
  std::span<const uint64_t> d_offsets;
  std::span<const VertexId> d_ids;
  std::span<const uint64_t> r_offsets;
  std::span<const VertexId> r_ids;
  std::span<const double> r_scores;
  bool is_distance = false;
  double threshold = 0.0;
  double score_cover = 0.0;
};

/// One CSR's offsets start at 0 and never decrease.
bool Monotone(std::span<const uint64_t> offsets, uint32_t n) {
  if (offsets[0] != 0) return false;
  for (uint32_t u = 0; u < n; ++u) {
    if (offsets[u + 1] < offsets[u]) return false;
  }
  return true;
}

/// Validates one dissimilarity CSR: in-range strictly ascending rows, each
/// entry mirrored in its partner's row — with the same score when `scores`
/// is non-empty (the reserve rows).
Status CheckPairRows(uint32_t n, std::span<const uint64_t> offsets,
                     std::span<const VertexId> ids,
                     std::span<const double> scores, const char* unsorted) {
  for (uint32_t u = 0; u < n; ++u) {
    for (uint64_t i = offsets[u]; i < offsets[u + 1]; ++i) {
      const VertexId v = ids[i];
      if (v >= n || v == u) return Corrupt("dissimilar pair out of range");
      if (i > offsets[u] && ids[i - 1] >= v) return Corrupt(unsorted);
      const VertexId* row = ids.data() + offsets[v];
      const VertexId* end = ids.data() + offsets[v + 1];
      const VertexId* it = std::lower_bound(row, end, u);
      if (it == end || *it != u) return Corrupt("asymmetric dissimilar pair");
      if (!scores.empty() &&
          scores[static_cast<uint64_t>(it - ids.data())] != scores[i]) {
        return Corrupt("mirrored pair score mismatch");
      }
    }
  }
  return Status::OK();
}

/// The per-component battery, run over the mapped arrays: blob checksum,
/// CSR integrity, adjacency symmetry, sorted to_parent, sorted mirrored
/// active and reserve rows, finite reserve scores inside the serve..cover
/// band, no pair in both rows, and row lengths that add up to the table's
/// pair counts (the layout sized both id arrays from them). A pure check:
/// it reads the mapped bytes and returns the verdict, nothing else.
Status RunComponentCheck(const ComponentCheck& c) {
  if (Fnv1a64(c.blob.data(), c.blob.size()) != c.checksum) {
    return Corrupt("section checksum mismatch");
  }
  const uint32_t n = c.n;
  if (!Monotone(c.graph_offsets, n)) {
    return Corrupt("graph offsets not monotone");
  }
  if (c.graph_offsets[n] != 2 * c.num_edges) {
    return Corrupt("degree sum != edge count");
  }
  uint64_t max_degree = 0;
  for (uint32_t u = 0; u < n; ++u) {
    const uint64_t rb = c.graph_offsets[u];
    const uint64_t re = c.graph_offsets[u + 1];
    max_degree = std::max(max_degree, re - rb);
    for (uint64_t i = rb; i < re; ++i) {
      const VertexId v = c.neighbors[i];
      if (v >= n) return Corrupt("neighbor id out of range");
      if (v == u) return Corrupt("self loop");
      if (i > rb && c.neighbors[i - 1] >= v) {
        return Corrupt("adjacency row not strictly sorted");
      }
      // Symmetry probe: u must appear in v's (sorted) row.
      const VertexId* vb = c.neighbors.data() + c.graph_offsets[v];
      const VertexId* ve = c.neighbors.data() + c.graph_offsets[v + 1];
      if (!std::binary_search(vb, ve, static_cast<VertexId>(u))) {
        return Corrupt("asymmetric adjacency");
      }
    }
  }
  // max_degree rides in the table so mining heuristics can read it before
  // validation; it still has to be the truth.
  if (max_degree != c.max_degree) {
    return Corrupt("stored max degree mismatch");
  }
  for (uint32_t u = 1; u < n; ++u) {
    if (c.to_parent[u] <= c.to_parent[u - 1]) {
      return Corrupt("to_parent not strictly ascending");
    }
  }

  if (!Monotone(c.d_offsets, n) || !Monotone(c.r_offsets, n)) {
    return Corrupt("dissimilarity offsets not monotone");
  }
  if (c.d_offsets[n] != c.d_ids.size() || c.r_offsets[n] != c.r_ids.size()) {
    return Corrupt("dissimilarity rows != pair count");
  }
  for (const double score : c.r_scores) {
    if (!std::isfinite(score)) return Corrupt("non-finite pair score");
    if (!ScoreSimilarUnder(score, c.threshold, c.is_distance) ||
        ScoreSimilarUnder(score, c.score_cover, c.is_distance)) {
      return Corrupt("reserve pair score outside the serve..cover band");
    }
  }
  if (Status s = CheckPairRows(n, c.d_offsets, c.d_ids, {},
                               "dissimilar pairs not sorted unique");
      !s.ok()) {
    return s;
  }
  if (Status s = CheckPairRows(n, c.r_offsets, c.r_ids, c.r_scores,
                               "reserve pairs not sorted unique");
      !s.ok()) {
    return s;
  }
  // The active and reserve rows of one vertex may not share an id (both
  // sorted, so a two-pointer scan suffices).
  for (uint32_t u = 0; u < n; ++u) {
    uint64_t i = c.d_offsets[u];
    uint64_t j = c.r_offsets[u];
    while (i < c.d_offsets[u + 1] && j < c.r_offsets[u + 1]) {
      if (c.d_ids[i] == c.r_ids[j]) {
        return Corrupt("pair listed in both active and reserve rows");
      }
      if (c.d_ids[i] < c.r_ids[j]) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  return Status::OK();
}

/// Maps (or read-falls-back) `path` and checks the magic and version every
/// reader shares, with the exact error texts callers match on.
Status OpenSnapshot(const std::string& path,
                    std::shared_ptr<const SnapshotMapping>* mapping) {
  Status s = SnapshotMapping::Open(path, mapping);
  if (!s.ok()) return s;
  const uint8_t* base = (*mapping)->data();
  if ((*mapping)->size() < sizeof(kSnapshotMagic) + sizeof(uint32_t)) {
    return Corrupt("file shorter than the header");
  }
  if (std::memcmp(base, kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    return Status::InvalidArgument(
        "not a krcore workspace snapshot (bad magic): " + path);
  }
  const uint32_t version = ReadU32(base + sizeof(kSnapshotMagic));
  if (version != kSnapshotVersion) {
    return Status::InvalidArgument(
        "unsupported snapshot version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kSnapshotVersion) +
        ")");
  }
  return Status::OK();
}

}  // namespace

Status SaveWorkspaceSnapshot(const PreparedWorkspace& ws,
                             const std::string& path) {
  // A lazily-loaded source must prove itself before its rows are copied
  // out: the writer reads every byte, and laundering a corrupt mapped file
  // into a fresh checksummed snapshot would defeat first-touch validation.
  if (Status s = ws.EnsureAllValid(); !s.ok()) return s;
  // Crash atomicity: stream into a sibling temp file with every write
  // checked, close it, then rename into place (atomic on POSIX). A failure
  // at any byte — short write, failed flush/close, injected fault — leaves
  // whatever previously lived at `path` untouched and loadable; the torn
  // temp file is removed.
  const std::string tmp_path = path + ".tmp";
  Status s;
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return Status::NotFound("cannot open for write: " + tmp_path);
    s = WriteSnapshotStream(ws, out, tmp_path);
    if (s.ok()) {
      out.close();
      if (out.fail()) {
        s = Status::Internal("snapshot close failed: " + tmp_path);
      }
    }
  }
  if (s.ok()) s = Failpoints::Inject("snapshot/rename");
  if (s.ok() && std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    s = Status::Internal("cannot rename " + tmp_path + " into place at " +
                         path);
  }
  if (!s.ok()) std::remove(tmp_path.c_str());
  return s;
}

// Runs the O(components) structural pass, then hands out borrowed component
// views whose arrays point straight into the mapping. Eager mode forces
// every deferred check before returning.
Status LoadWorkspaceSnapshot(const std::string& path,
                             const SnapshotLoadOptions& options,
                             PreparedWorkspace* out, SnapshotLoadInfo* info) {
  *out = PreparedWorkspace{};
  if (info != nullptr) *info = SnapshotLoadInfo{};
  std::shared_ptr<const SnapshotMapping> mapping;
  Status s = OpenSnapshot(path, &mapping);
  if (!s.ok()) return s;
  KRCORE_FAILPOINT("snapshot/read_section");
  FileView v;
  s = ParseFile(mapping->data(), mapping->size(), &v);
  if (!s.ok()) return s;
  s = CheckMetaFields(v.meta);
  if (!s.ok()) return s;
  ApplyMeta(v.meta, out);

  const uint8_t* base = mapping->data();
  out->components.reserve(v.entries.size());
  for (const TableEntry& e : v.entries) {
    const uint8_t* blob = base + e.blob_offset;
    const BlobLayout l =
        ComputeBlobLayout(e.n, e.num_edges, e.num_pairs, e.num_reserve);
    ComponentCheck check;
    check.backing = mapping;
    check.blob = {blob, static_cast<size_t>(e.blob_size)};
    check.checksum = e.checksum;
    check.n = e.n;
    check.max_degree = e.max_degree;
    check.num_edges = e.num_edges;
    check.graph_offsets =
        BlobArray<uint64_t>(blob, l.graph_offsets, e.n + 1ull);
    check.neighbors = BlobArray<VertexId>(blob, l.neighbors, 2 * e.num_edges);
    check.to_parent = BlobArray<VertexId>(blob, l.to_parent, e.n);
    check.d_offsets = BlobArray<uint64_t>(blob, l.d_offsets, e.n + 1ull);
    check.d_ids = BlobArray<VertexId>(blob, l.d_ids, 2 * e.num_pairs);
    check.r_offsets = BlobArray<uint64_t>(blob, l.r_offsets, e.n + 1ull);
    check.r_ids = BlobArray<VertexId>(blob, l.r_ids, 2 * e.num_reserve);
    check.r_scores = BlobArray<double>(blob, l.r_scores, 2 * e.num_reserve);
    check.is_distance = v.meta.is_distance;
    check.threshold = v.meta.threshold;
    check.score_cover = v.meta.score_cover;

    ComponentContext ctx;
    ctx.graph =
        Graph::BorrowedView(check.graph_offsets, check.neighbors,
                            e.max_degree);
    ctx.to_parent = ArrayRef<VertexId>::Borrowed(check.to_parent);
    ctx.dissimilar = DissimilarityIndex::BorrowedView(
        e.n, check.d_offsets, check.d_ids, check.r_offsets, check.r_ids,
        check.r_scores);
    auto lazy_state = std::make_shared<LazyComponentValidation>();
    lazy_state->validate = [check] { return RunComponentCheck(check); };
    ctx.lazy = std::move(lazy_state);
    out->components.push_back(std::move(ctx));
  }
  out->backing = std::move(mapping);
  if (info != nullptr) {
    info->format_version = kSnapshotVersion;
    info->mapped = out->backing->mapped();
    info->lazy = options.lazy;
  }
  if (!options.lazy) {
    s = out->EnsureAllValid();
    if (!s.ok()) {
      *out = PreparedWorkspace{};
      return s;
    }
  }
  return Status::OK();
}

Status LoadWorkspaceSnapshot(const std::string& path, PreparedWorkspace* out) {
  return LoadWorkspaceSnapshot(path, SnapshotLoadOptions{}, out, nullptr);
}

Status InspectSnapshot(const std::string& path, SnapshotInfo* out) {
  *out = SnapshotInfo{};
  std::shared_ptr<const SnapshotMapping> mapping;
  Status s = OpenSnapshot(path, &mapping);
  if (!s.ok()) return s;
  const uint8_t* base = mapping->data();
  const uint64_t size = mapping->size();
  out->format_version = kSnapshotVersion;
  out->file_size = size;

  FileView v;
  s = ParseFile(base, size, &v);
  if (!s.ok()) return s;
  out->k = v.meta.k;
  out->threshold = v.meta.threshold;
  out->score_cover = v.meta.score_cover;
  out->is_distance = v.meta.is_distance;
  out->graph_version = v.meta.version;
  out->num_components = v.meta.num_components;
  out->sections.reserve(v.entries.size() + 2);
  for (const TableEntry& e : v.entries) {
    SnapshotSectionInfo sec;
    sec.kind = "component";
    sec.offset = e.blob_offset;
    sec.size = e.blob_size;
    sec.checksum = e.checksum;
    // The structural pass never touches blob bytes; recompute here so a
    // bit-flipped component reports as checksum_ok == false.
    sec.checksum_ok = Fnv1a64(base + e.blob_offset,
                              static_cast<size_t>(e.blob_size)) == e.checksum;
    sec.n = e.n;
    sec.num_edges = e.num_edges;
    sec.num_pairs = e.num_pairs;
    sec.num_reserve_pairs = e.num_reserve;
    sec.max_degree = e.max_degree;
    out->sections.push_back(std::move(sec));
  }
  SnapshotSectionInfo meta_sec;
  meta_sec.kind = "meta";
  meta_sec.offset = v.meta_offset;
  meta_sec.size = v.meta_size;
  meta_sec.checksum = v.meta_checksum;
  meta_sec.checksum_ok = true;  // ParseFile verified it
  out->sections.push_back(std::move(meta_sec));
  SnapshotSectionInfo table_sec;
  table_sec.kind = "table";
  table_sec.offset = v.table_offset;
  table_sec.size = v.meta.num_components * kTableEntrySize;
  table_sec.checksum = v.table_checksum;
  table_sec.checksum_ok = true;  // ParseFile verified it
  out->sections.push_back(std::move(table_sec));
  return Status::OK();
}

}  // namespace krcore
