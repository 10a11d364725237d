#ifndef KRCORE_SNAPSHOT_WORKSPACE_SNAPSHOT_H_
#define KRCORE_SNAPSHOT_WORKSPACE_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "util/status.h"

namespace krcore {

/// Versioned binary serialization of a PreparedWorkspace — the full
/// Algorithm 1 preprocessing output (component structure graphs, to_parent
/// maps, flat CSR dissimilarity rows) plus its (k, r) identity. Saving the
/// workspace once turns every later (k' >= k, r) mining call into a pure
/// search: load, optionally DeriveWorkspace, mine — no oracle, no O(n^2)
/// pair sweep, not even the attribute table.
///
/// On-disk layout (little-endian, the only byte order the engine targets;
/// full byte-level spec in docs/SNAPSHOT_FORMAT.md):
///   header   64 bytes: magic "KRWSNAP1", version u32 = 5, zero padding
///   blobs    one per component, 64-byte aligned, 64-byte-aligned arrays
///            inside (graph offsets/neighbors, to_parent, active
///            offsets/ids, reserve offsets/ids/scores) — the exact
///            in-memory CSR layout, so a loaded file is served by pointing
///            spans at it
///   meta     40 bytes: k, threshold, graph version, flags (distance),
///            score_cover, component count
///   table    one 64-byte entry per component: blob offset/size, FNV-1a 64
///            checksum, and the counts (n, max_degree, edges, pairs,
///            reserve pairs) mining needs before touching the blob
///   tail     56 bytes: meta/table offsets + checksums, total file size,
///            footer magic "KR5FOOTR"
///
/// Every structural invariant the engine relies on (CSR monotonicity,
/// sorted adjacency, symmetric edges, in-range ids, sorted unique mirrored
/// dissimilar pairs, finite reserve scores inside the serve..cover band,
/// no pair in both rows) is re-validated on load, so a corrupt or
/// truncated file yields a clean Status error — never UB: wrong magic, a
/// version other than 5, short files, and checksum mismatches each produce
/// a distinct InvalidArgument message. All declared counts are range-checked
/// against the file size *before* any arithmetic that could wrap, so
/// hostile headers cannot smuggle an overflowed size past the validators.
/// Under a *lazy* load the per-component checks (blob checksum + structure)
/// are deferred to first touch — see SnapshotLoadOptions — while the
/// header, meta, table and tail are always verified up front.
///
/// Version 5 is the only format this build reads or writes; any other
/// version is rejected with "unsupported snapshot version".
///
/// Round trips are lossless: the loaded workspace's components are
/// structurally identical to the saved ones, so mining results match fresh
/// preprocessing byte for byte — and a loaded workspace derives every
/// (k, r) cell of its serving interval exactly like the original.
/// Save → load → save reproduces the file byte for byte, reserve rows
/// included.

inline constexpr char kSnapshotMagic[8] = {'K', 'R', 'W', 'S',
                                           'N', 'A', 'P', '1'};
inline constexpr uint32_t kSnapshotVersion = 5;

/// Serializes `ws` to `path`, crash-atomically: the snapshot is streamed
/// into `path + ".tmp"` with every write checked, then renamed into place.
/// A failure at any byte (short write, failed flush/close or rename, or an
/// injected `snapshot/*` failpoint) removes the torn temp file and leaves
/// whatever previously lived at `path` untouched and loadable. The save
/// calls no fsync, so this atomicity covers a failed write or a killed
/// process, not a power loss or an OS crash. Fails with NotFound when the
/// temp file cannot be opened; Internal errors name the section tag that
/// died mid-write. A workspace with pending lazy
/// validation is validated first (the writer reads every row), so a
/// corrupt mapped source cannot be laundered into a fresh file.
Status SaveWorkspaceSnapshot(const PreparedWorkspace& ws,
                             const std::string& path);

/// How LoadWorkspaceSnapshot validates a file. Either way the file is
/// mmapped and components are handed out as borrowed views into it.
struct SnapshotLoadOptions {
  /// false (default): validate every component before returning.
  /// true: defer each component's validation to its first touch; load time
  /// becomes O(components) instead of O(substrate).
  bool lazy = false;
};

/// What a load actually did (observability for registries and tools).
struct SnapshotLoadInfo {
  uint32_t format_version = 0;
  /// True when the workspace serves from an mmap (false: heap fallback).
  bool mapped = false;
  /// True when per-component validation was deferred to first touch.
  bool lazy = false;
};

/// Reads a snapshot written by SaveWorkspaceSnapshot, validating magic,
/// version, section checksums and every structural invariant. On any error
/// `*out` is left empty. Equivalent to the options overload with eager
/// defaults.
Status LoadWorkspaceSnapshot(const std::string& path, PreparedWorkspace* out);

/// Load with mode control; `info`, when non-null, receives what happened.
Status LoadWorkspaceSnapshot(const std::string& path,
                             const SnapshotLoadOptions& options,
                             PreparedWorkspace* out,
                             SnapshotLoadInfo* info = nullptr);

/// One region of a snapshot file, as reported by InspectSnapshot. `kind` is
/// "meta", "component" or "table".
struct SnapshotSectionInfo {
  std::string kind;
  uint64_t offset = 0;    // region byte offset in the file
  uint64_t size = 0;      // region byte count
  uint64_t checksum = 0;  // stored FNV-1a 64
  bool checksum_ok = false;
  // Component geometry, as the section table declares it.
  uint64_t n = 0;
  uint64_t num_edges = 0;
  uint64_t num_pairs = 0;
  uint64_t num_reserve_pairs = 0;
  uint32_t max_degree = 0;
};

/// Debugging surface for torn-file reports: everything the headers, meta
/// and checksums of a file say, without requiring the file to pass full
/// structural validation. Component checksums are recomputed and compared,
/// so a bit-flipped blob shows up as checksum_ok == false instead of an
/// error. Fails when the header, meta, table or tail is damaged (bad magic,
/// unsupported version, truncation, meta or table checksum mismatch).
struct SnapshotInfo {
  uint32_t format_version = 0;
  uint64_t file_size = 0;
  uint32_t k = 0;
  double threshold = 0.0;
  double score_cover = 0.0;
  bool is_distance = false;
  uint64_t graph_version = 0;
  uint64_t num_components = 0;
  std::vector<SnapshotSectionInfo> sections;
};

Status InspectSnapshot(const std::string& path, SnapshotInfo* out);

}  // namespace krcore

#endif  // KRCORE_SNAPSHOT_WORKSPACE_SNAPSHOT_H_
