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
constexpr uint32_t kFlagScored = 1u << 0;
constexpr uint32_t kFlagDistance = 1u << 1;

// v4 fixed-size regions.
constexpr uint64_t kV4HeaderSize = 64;
constexpr uint64_t kV4TailSize = 56;
constexpr uint64_t kV4TableEntrySize = 64;
constexpr char kV4FooterMagic[8] = {'K', 'R', '4', 'F', 'O', 'O', 'T', 'R'};

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

/// The 44-byte meta payload: k u32, threshold f64, reserved u32 (written
/// 0, ignored on read; older builds wrote 64 there), graph version u64,
/// flags u32, score_cover f64, num_components u64.
/// Parsing and semantic checking are split so InspectSnapshot can report
/// what a damaged file *says* without judging it.
constexpr uint64_t kMetaSize = 44;

struct MetaFields {
  uint32_t k = 0;
  double threshold = 0.0;
  uint64_t version = 0;
  uint32_t flags = 0;
  double score_cover = 0.0;
  uint64_t num_components = 0;
  bool scored = false;
  bool is_distance = false;
};

bool ReadMetaFields(const uint8_t* p, uint64_t size, MetaFields* m) {
  if (size != kMetaSize) return false;
  m->k = ReadU32(p);
  m->threshold = ReadF64(p + 4);
  m->version = ReadU64(p + 16);
  m->flags = ReadU32(p + 24);
  m->score_cover = ReadF64(p + 28);
  m->num_components = ReadU64(p + 36);
  m->scored = (m->flags & kFlagScored) != 0;
  m->is_distance = (m->flags & kFlagDistance) != 0;
  return true;
}

Status CheckMetaFields(const MetaFields& m) {
  if ((m.flags & ~(kFlagScored | kFlagDistance)) != 0) {
    return Corrupt("unknown meta flag bits");
  }
  if (m.scored) {
    if (!std::isfinite(m.threshold) || !std::isfinite(m.score_cover) ||
        !ThresholdAtLeastAsStrict(m.score_cover, m.threshold,
                                  m.is_distance)) {
      return Corrupt("score cover looser than the serving threshold");
    }
  } else if (m.score_cover != m.threshold) {
    return Corrupt("unscored workspace with a widened score cover");
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
  out->scored = m.scored;
  out->is_distance = m.is_distance;
  out->score_cover = m.score_cover;
}

std::string MetaPayloadBytes(const PreparedWorkspace& ws) {
  PayloadWriter meta;
  meta.PutU32(ws.k);
  meta.PutDouble(ws.threshold);
  meta.PutU32(0);  // reserved
  meta.PutU64(ws.version);
  uint32_t flags = 0;
  if (ws.scored) flags |= kFlagScored;
  if (ws.is_distance) flags |= kFlagDistance;
  meta.PutU32(flags);
  // Normalized to the serving threshold for unscored workspaces (a point
  // serving interval), matching what PrepareWorkspace stamps.
  meta.PutDouble(ws.scored ? ws.score_cover : ws.threshold);
  meta.PutU64(ws.components.size());
  return meta.bytes();
}

constexpr uint64_t Align64(uint64_t x) { return (x + 63) & ~uint64_t{63}; }

/// Byte offsets of each array inside one v4 component blob. The arrays are
/// the exact in-memory CSR layout — each starts on a 64-byte boundary and
/// the blob is padded to a 64-byte multiple (the pad is inside blob_size
/// and the checksum, so every stored byte is covered). `L` is the total id
/// entry count, 2 * (num_pairs + num_reserve_pairs): every unordered pair
/// appears in both endpoints' rows.
struct V4Layout {
  uint64_t graph_offsets = 0;  // (n+1) x u64
  uint64_t neighbors = 0;      // 2m x u32
  uint64_t to_parent = 0;      // n x u32
  uint64_t d_offsets = 0;      // (n+1) x u64
  uint64_t d_active_end = 0;   // n x u64
  uint64_t d_ids = 0;          // L x u32
  uint64_t d_scores = 0;       // L x f64, present iff scored
  uint64_t total = 0;          // 64-byte multiple
};

V4Layout ComputeV4Layout(uint64_t n, uint64_t num_edges, uint64_t L,
                         bool scored) {
  V4Layout l;
  uint64_t pos = 0;
  l.graph_offsets = pos;
  pos = Align64(pos + (n + 1) * 8);
  l.neighbors = pos;
  pos = Align64(pos + 2 * num_edges * 4);
  l.to_parent = pos;
  pos = Align64(pos + n * 4);
  l.d_offsets = pos;
  pos = Align64(pos + (n + 1) * 8);
  l.d_active_end = pos;
  pos = Align64(pos + n * 8);
  l.d_ids = pos;
  pos = Align64(pos + L * 4);
  l.d_scores = pos;
  if (scored) pos += L * 8;
  l.total = Align64(pos);
  return l;
}

std::string ComponentBlobV4(const ComponentContext& ctx, bool scored) {
  const uint64_t n = ctx.size();
  const uint64_t num_edges = ctx.graph.num_edges();
  const uint64_t L = ctx.dissimilar.ids_array().size();
  const V4Layout l = ComputeV4Layout(n, num_edges, L, scored);
  std::string blob(static_cast<size_t>(l.total), '\0');
  // Zero-length spans may carry a null data pointer; the zero-filled blob
  // already holds the right bytes for them (an empty CSR's offsets row is
  // a single zero), so only non-empty sources are copied.
  auto copy = [&blob](uint64_t off, const void* src, uint64_t bytes) {
    if (bytes > 0 && src != nullptr) {
      std::memcpy(blob.data() + off, src, static_cast<size_t>(bytes));
    }
  };
  copy(l.graph_offsets, ctx.graph.offsets().data(), (n + 1) * 8);
  copy(l.neighbors, ctx.graph.neighbor_array().data(), 2 * num_edges * 4);
  copy(l.to_parent, ctx.to_parent.data(), n * 4);
  copy(l.d_offsets, ctx.dissimilar.offsets_array().data(), (n + 1) * 8);
  copy(l.d_active_end, ctx.dissimilar.active_end_array().data(), n * 8);
  copy(l.d_ids, ctx.dissimilar.ids_array().data(), L * 4);
  if (scored) {
    copy(l.d_scores, ctx.dissimilar.scores_array().data(), L * 8);
  }
  return blob;
}

/// Streams the full snapshot body: header, component blobs, meta payload,
/// section table, tail. The `snapshot/write_section` failpoint fires per
/// component blob (section tag 2) and on the meta (tag 1).
Status WriteSnapshotStreamV4(const PreparedWorkspace& ws, std::ofstream& out,
                             const std::string& tmp_path) {
  char header[kV4HeaderSize] = {};
  std::memcpy(header, kSnapshotMagic, sizeof(kSnapshotMagic));
  const uint32_t version = kSnapshotVersion;
  std::memcpy(header + sizeof(kSnapshotMagic), &version, sizeof(version));
  out.write(header, static_cast<std::streamsize>(kV4HeaderSize));
  if (!out.good()) {
    return Status::Internal("short write in snapshot header: " + tmp_path);
  }

  PayloadWriter table;
  uint64_t pos = kV4HeaderSize;
  for (const auto& ctx : ws.components) {
    const std::string blob = ComponentBlobV4(ctx, ws.scored);
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
  tail.PutU64(table_offset + table.bytes().size() + kV4TailSize);
  out.write(tail.bytes().data(),
            static_cast<std::streamsize>(tail.bytes().size()));
  out.write(kV4FooterMagic, sizeof(kV4FooterMagic));
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

/// One decoded v4 section-table entry.
struct V4Entry {
  uint64_t blob_offset = 0;
  uint64_t blob_size = 0;
  uint64_t checksum = 0;
  uint32_t n = 0;
  uint32_t max_degree = 0;
  uint64_t num_edges = 0;
  uint64_t num_pairs = 0;
  uint64_t num_reserve = 0;
};

/// Everything the eager structural pass over a v4 file establishes without
/// reading a single component blob: validated header/tail, checksummed meta
/// and table, and a tiling-verified entry list whose declared counts fit
/// their blobs exactly.
struct V4FileView {
  MetaFields meta;
  uint64_t meta_offset = 0;
  uint64_t meta_size = 0;
  uint64_t meta_checksum = 0;
  uint64_t table_offset = 0;
  uint64_t table_checksum = 0;
  std::vector<V4Entry> entries;
};

/// The O(components) structural validation every load (lazy or eager) and
/// InspectSnapshot runs after OpenSnapshot has checked the magic and
/// version: header padding, tail cross-validation, meta and table
/// checksums, blob tiling and per-entry count/layout accounting.
/// Deliberately never dereferences a blob byte — a lazy load must stay
/// proportional to the component count, and InspectSnapshot must walk files
/// whose blobs are corrupt.
Status ParseV4File(const uint8_t* base, uint64_t size, V4FileView* v) {
  if (size < kV4HeaderSize + kV4TailSize) {
    return Corrupt("file shorter than the v4 footer");
  }
  // The header pad is the one region no checksum covers; requiring it zero
  // keeps "every byte of a v4 file is validated" literally true.
  for (uint64_t i = 12; i < kV4HeaderSize; ++i) {
    if (base[i] != 0) return Corrupt("nonzero v4 header padding");
  }

  const uint8_t* tail = base + size - kV4TailSize;
  v->meta_offset = ReadU64(tail);
  v->meta_size = ReadU64(tail + 8);
  v->meta_checksum = ReadU64(tail + 16);
  v->table_offset = ReadU64(tail + 24);
  v->table_checksum = ReadU64(tail + 32);
  const uint64_t stored_file_size = ReadU64(tail + 40);
  if (std::memcmp(tail + 48, kV4FooterMagic, sizeof(kV4FooterMagic)) != 0) {
    return Corrupt("bad v4 footer magic");
  }
  if (stored_file_size != size) {
    return Corrupt("v4 footer file size mismatch");
  }
  if (v->meta_offset < kV4HeaderSize || (v->meta_offset % 64) != 0 ||
      v->meta_offset > size - kV4TailSize) {
    return Corrupt("v4 meta offset out of range");
  }
  if (v->meta_size > size - kV4TailSize - v->meta_offset) {
    return Corrupt("v4 meta overruns the footer");
  }
  if (v->table_offset != v->meta_offset + v->meta_size) {
    return Corrupt("v4 table offset inconsistent");
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
  const uint64_t table_bytes = size - kV4TailSize - v->table_offset;
  if (v->meta.num_components > table_bytes / kV4TableEntrySize) {
    return Corrupt("declared component count exceeds the file");
  }
  if (v->meta.num_components * kV4TableEntrySize != table_bytes) {
    return Corrupt("v4 table size mismatch");
  }
  if (Fnv1a64(base + v->table_offset, static_cast<size_t>(table_bytes)) !=
      v->table_checksum) {
    return Corrupt("section checksum mismatch");
  }

  v->entries.reserve(static_cast<size_t>(v->meta.num_components));
  uint64_t expected_offset = kV4HeaderSize;
  for (uint64_t i = 0; i < v->meta.num_components; ++i) {
    const uint8_t* t = base + v->table_offset + i * kV4TableEntrySize;
    V4Entry e;
    e.blob_offset = ReadU64(t);
    e.blob_size = ReadU64(t + 8);
    e.checksum = ReadU64(t + 16);
    e.n = ReadU32(t + 24);
    e.max_degree = ReadU32(t + 28);
    e.num_edges = ReadU64(t + 32);
    e.num_pairs = ReadU64(t + 40);
    e.num_reserve = ReadU64(t + 48);
    if (ReadU64(t + 56) != 0) {
      return Corrupt("nonzero reserved field in v4 table entry");
    }
    // Blobs must tile [header, meta) exactly — no gap can hide
    // unchecksummed bytes, no overlap can alias two components.
    if (e.blob_offset != expected_offset) {
      return Corrupt("v4 blobs do not tile the file");
    }
    if (e.blob_size % 64 != 0) {
      return Corrupt("v4 blob size not 64-byte aligned");
    }
    if (e.blob_size > v->meta_offset - expected_offset) {
      return Corrupt("v4 blob overruns the meta section");
    }
    expected_offset += e.blob_size;
    // Divide-first count bounds, then the exact layout equation: the
    // declared geometry must account for every blob byte.
    if (e.num_edges > e.blob_size / 8 || e.n > e.blob_size / 4 ||
        e.num_pairs > e.blob_size / 8 || e.num_reserve > e.blob_size / 8) {
      return Corrupt("declared counts exceed the payload");
    }
    const uint64_t L = 2 * (e.num_pairs + e.num_reserve);
    if (ComputeV4Layout(e.n, e.num_edges, L, v->meta.scored).total !=
        e.blob_size) {
      return Corrupt("component payload size mismatch");
    }
    v->entries.push_back(e);
  }
  if (expected_offset != v->meta_offset) {
    return Corrupt("v4 blobs do not tile the file");
  }
  return Status::OK();
}

/// By-value capture for one component's deferred validation: the mapping
/// keeps the bytes alive, the spans/counts say what to check. Deliberately
/// no pointer to any component instance, so copied components stay
/// coherent.
struct V4ComponentCheck {
  std::shared_ptr<const SnapshotMapping> backing;
  std::span<const uint8_t> blob;
  uint64_t checksum = 0;
  uint32_t n = 0;
  uint32_t max_degree = 0;
  uint64_t num_edges = 0;
  uint64_t num_pairs = 0;
  uint64_t num_reserve = 0;
  std::span<const uint64_t> graph_offsets;
  std::span<const VertexId> neighbors;
  std::span<const VertexId> to_parent;
  std::span<const uint64_t> d_offsets;
  std::span<const uint64_t> d_active_end;
  std::span<const VertexId> d_ids;
  std::span<const double> d_scores;
  bool scored = false;
  bool is_distance = false;
  double threshold = 0.0;
  double score_cover = 0.0;
};

/// The per-component battery, run over the mapped arrays: blob checksum,
/// CSR integrity, adjacency symmetry, sorted to_parent, two-segment
/// dissimilarity invariants with score classification, mirror consistency,
/// and footer count agreement. A pure check: it reads the mapped bytes
/// and returns the verdict, nothing else.
Status RunV4ComponentCheck(const V4ComponentCheck& c) {
  if (Fnv1a64(c.blob.data(), c.blob.size()) != c.checksum) {
    return Corrupt("section checksum mismatch");
  }
  const uint32_t n = c.n;
  const uint64_t directed = 2 * c.num_edges;
  if (c.graph_offsets[0] != 0) return Corrupt("graph offsets not monotone");
  for (uint32_t u = 0; u < n; ++u) {
    if (c.graph_offsets[u + 1] < c.graph_offsets[u]) {
      return Corrupt("graph offsets not monotone");
    }
  }
  if (c.graph_offsets[n] != directed) {
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

  const uint64_t L = c.d_ids.size();
  if (c.d_offsets[0] != 0) return Corrupt("dissimilarity offsets not monotone");
  for (uint32_t u = 0; u < n; ++u) {
    if (c.d_offsets[u + 1] < c.d_offsets[u]) {
      return Corrupt("dissimilarity offsets not monotone");
    }
    if (c.d_active_end[u] < c.d_offsets[u] ||
        c.d_active_end[u] > c.d_offsets[u + 1]) {
      return Corrupt("active segment out of row bounds");
    }
  }
  if (c.d_offsets[n] != L) return Corrupt("dissimilarity rows != pair count");
  const bool have_scores = !c.d_scores.empty();
  if (c.scored && L > 0 && !have_scores) {
    return Corrupt("component payload size mismatch");
  }
  uint64_t fwd_active = 0;
  uint64_t fwd_reserve = 0;
  for (uint32_t u = 0; u < n; ++u) {
    const uint64_t rb = c.d_offsets[u];
    const uint64_t ae = c.d_active_end[u];
    const uint64_t re = c.d_offsets[u + 1];
    if (!c.scored && ae != re) {
      return Corrupt("unscored workspace with reserve pairs");
    }
    for (uint64_t i = rb; i < re; ++i) {
      const bool reserve = i >= ae;
      const VertexId v = c.d_ids[i];
      if (v >= n || v == u) return Corrupt("dissimilar pair out of range");
      const uint64_t seg_begin = reserve ? ae : rb;
      if (i > seg_begin && c.d_ids[i - 1] >= v) {
        return Corrupt(reserve ? "reserve pairs not sorted unique"
                               : "dissimilar pairs not sorted unique");
      }
      double score = 0.0;
      if (have_scores) {
        score = c.d_scores[i];
        if (!std::isfinite(score)) return Corrupt("non-finite pair score");
        if (!reserve) {
          if (ScoreSimilarUnder(score, c.threshold, c.is_distance)) {
            return Corrupt(
                "active pair score similar at the serving threshold");
          }
        } else if (!ScoreSimilarUnder(score, c.threshold, c.is_distance) ||
                   ScoreSimilarUnder(score, c.score_cover, c.is_distance)) {
          return Corrupt("reserve pair score outside the serve..cover band");
        }
      }
      if (v > u) {
        if (reserve) {
          ++fwd_reserve;
        } else {
          ++fwd_active;
        }
      }
      // Mirror probe: the pair must sit in the same segment of v's row
      // with the same score, or a row could list a partner that does not
      // list it back.
      const uint64_t mb = reserve ? c.d_active_end[v] : c.d_offsets[v];
      const uint64_t me = reserve ? c.d_offsets[v + 1] : c.d_active_end[v];
      const VertexId* seg = c.d_ids.data();
      const VertexId* it = std::lower_bound(seg + mb, seg + me,
                                            static_cast<VertexId>(u));
      if (it == seg + me || *it != u) {
        return Corrupt("asymmetric dissimilar pair");
      }
      if (have_scores &&
          c.d_scores[static_cast<uint64_t>(it - seg)] != score) {
        return Corrupt("mirrored pair score mismatch");
      }
    }
    // The two segments of one row may not share an id (sorted, so a
    // two-pointer scan suffices).
    uint64_t i = rb;
    uint64_t j = ae;
    while (i < ae && j < re) {
      if (c.d_ids[i] == c.d_ids[j]) {
        return Corrupt("pair listed in both active and reserve blocks");
      }
      if (c.d_ids[i] < c.d_ids[j]) {
        ++i;
      } else {
        ++j;
      }
    }
  }
  if (fwd_active != c.num_pairs || fwd_reserve != c.num_reserve) {
    return Corrupt("stored pair counts mismatch the footer");
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
    s = WriteSnapshotStreamV4(ws, out, tmp_path);
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
  V4FileView v;
  s = ParseV4File(mapping->data(), mapping->size(), &v);
  if (!s.ok()) return s;
  s = CheckMetaFields(v.meta);
  if (!s.ok()) return s;
  ApplyMeta(v.meta, out);

  const uint8_t* base = mapping->data();
  out->components.reserve(v.entries.size());
  for (const V4Entry& e : v.entries) {
    const uint8_t* blob = base + e.blob_offset;
    const uint64_t L = 2 * (e.num_pairs + e.num_reserve);
    const V4Layout l = ComputeV4Layout(e.n, e.num_edges, L, v.meta.scored);
    V4ComponentCheck check;
    check.backing = mapping;
    check.blob = {blob, static_cast<size_t>(e.blob_size)};
    check.checksum = e.checksum;
    check.n = e.n;
    check.max_degree = e.max_degree;
    check.num_edges = e.num_edges;
    check.num_pairs = e.num_pairs;
    check.num_reserve = e.num_reserve;
    check.graph_offsets = {
        reinterpret_cast<const uint64_t*>(blob + l.graph_offsets),
        static_cast<size_t>(e.n) + 1};
    check.neighbors = {reinterpret_cast<const VertexId*>(blob + l.neighbors),
                       static_cast<size_t>(2 * e.num_edges)};
    check.to_parent = {reinterpret_cast<const VertexId*>(blob + l.to_parent),
                       static_cast<size_t>(e.n)};
    check.d_offsets = {reinterpret_cast<const uint64_t*>(blob + l.d_offsets),
                       static_cast<size_t>(e.n) + 1};
    check.d_active_end = {
        reinterpret_cast<const uint64_t*>(blob + l.d_active_end),
        static_cast<size_t>(e.n)};
    check.d_ids = {reinterpret_cast<const VertexId*>(blob + l.d_ids),
                   static_cast<size_t>(L)};
    if (v.meta.scored) {
      check.d_scores = {reinterpret_cast<const double*>(blob + l.d_scores),
                        static_cast<size_t>(L)};
    }
    check.scored = v.meta.scored;
    check.is_distance = v.meta.is_distance;
    check.threshold = v.meta.threshold;
    check.score_cover = v.meta.score_cover;

    ComponentContext ctx;
    ctx.graph =
        Graph::BorrowedView(check.graph_offsets, check.neighbors,
                            e.max_degree);
    ctx.to_parent = ArrayRef<VertexId>::Borrowed(check.to_parent);
    ctx.dissimilar = DissimilarityIndex::BorrowedView(
        e.n, check.d_offsets, check.d_active_end, check.d_ids,
        check.d_scores, e.num_pairs, e.num_reserve, v.meta.scored);
    auto lazy_state = std::make_shared<LazyComponentValidation>();
    lazy_state->validate = [check] { return RunV4ComponentCheck(check); };
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

  V4FileView v;
  s = ParseV4File(base, size, &v);
  if (!s.ok()) return s;
  out->k = v.meta.k;
  out->threshold = v.meta.threshold;
  out->score_cover = v.meta.score_cover;
  out->scored = v.meta.scored;
  out->is_distance = v.meta.is_distance;
  out->graph_version = v.meta.version;
  out->num_components = v.meta.num_components;
  out->sections.reserve(v.entries.size() + 2);
  for (const V4Entry& e : v.entries) {
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
  meta_sec.checksum_ok = true;  // ParseV4File verified it
  out->sections.push_back(std::move(meta_sec));
  SnapshotSectionInfo table_sec;
  table_sec.kind = "table";
  table_sec.offset = v.table_offset;
  table_sec.size = v.meta.num_components * kV4TableEntrySize;
  table_sec.checksum = v.table_checksum;
  table_sec.checksum_ok = true;  // ParseV4File verified it
  out->sections.push_back(std::move(table_sec));
  return Status::OK();
}

}  // namespace krcore
