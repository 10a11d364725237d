#ifndef KRCORE_SERVER_WORKSPACE_REGISTRY_H_
#define KRCORE_SERVER_WORKSPACE_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "ingest/live_workspace.h"
#include "util/json.h"
#include "util/status.h"

namespace krcore {

/// Named, immutable prepared workspaces held resident for serving. The
/// registry is the server's source of substrates: each entry is a
/// PreparedWorkspace (built in-process or loaded from a snapshot file) that
/// concurrent queries read without synchronization — entries are frozen at
/// registration and handed out as shared_ptr<const>, so a Replace/Remove
/// never invalidates a query that is already mining the old substrate.
class WorkspaceRegistry {
 public:
  /// How AddFromSnapshot validates a snapshot: kEager validates the whole
  /// file before registering; kLazy defers per-component validation to
  /// first touch, making cold-start O(components) instead of O(substrate).
  enum class SnapshotLoadMode { kEager, kLazy };

  /// One row of List(): the serving identity of a registered workspace,
  /// plus load observability (how the substrate got resident).
  struct Entry {
    std::string name;
    uint32_t k = 0;
    double threshold = 0.0;
    double score_cover = 0.0;
    bool is_distance = false;
    uint64_t version = 0;
    size_t num_components = 0;
    uint64_t num_vertices = 0;
    /// Snapshot format version the entry was loaded from; 0 when the
    /// workspace was built in-process (Add/Replace).
    uint32_t snapshot_version = 0;
    /// Wall seconds AddFromSnapshot spent in LoadWorkspaceSnapshot.
    double load_seconds = 0.0;
    /// True when per-component validation was deferred to first touch.
    bool lazy_loaded = false;
    /// True when the workspace serves from an mmap.
    bool mapped = false;
    /// Live-updating registration (AddLive): the entry serves the latest
    /// published version of an ingestion-fed LiveWorkspace instead of a
    /// frozen substrate. `epoch` and the staleness pair are sampled at
    /// List() time.
    bool live = false;
    uint64_t epoch = 0;
    uint64_t staleness_batches = 0;
    double staleness_seconds = 0.0;
  };

  /// What Resolve hands the server: the substrate pinned for the query,
  /// plus — for live entries — the published epoch it came from and the
  /// staleness observed at resolution time.
  struct Resolved {
    std::shared_ptr<const PreparedWorkspace> ws;
    bool live = false;
    uint64_t epoch = 0;
    StalenessReport staleness;
  };

  /// Registers `ws` under `name`. Rejects empty names, names already
  /// registered (use Replace to swap a live entry), and empty workspaces
  /// (k == 0 — nothing PrepareWorkspace produced).
  Status Add(const std::string& name, PreparedWorkspace ws);

  /// Atomically swaps the entry under `name` (which need not exist yet) —
  /// the hot-reload path for a workspace re-prepared or updated offline.
  /// In-flight queries keep the substrate they resolved; only queries
  /// admitted after the swap see the new one.
  Status Replace(const std::string& name, PreparedWorkspace ws);

  /// LoadWorkspaceSnapshot(path) + Add, recording the load time, snapshot
  /// version and mapping mode on the entry. Eager loads re-validate every
  /// structural invariant, so a corrupt file never registers; lazy loads
  /// verify the file's meta/table skeleton up front and surface component
  /// corruption as clean per-query errors on first touch.
  Status AddFromSnapshot(const std::string& name, const std::string& path,
                         SnapshotLoadMode mode);
  Status AddFromSnapshot(const std::string& name, const std::string& path) {
    return AddFromSnapshot(name, path, SnapshotLoadMode::kEager);
  }

  /// Registers `alias` as a second name for the substrate currently under
  /// `existing` (no copy — both names share it). The krcore_server binary
  /// aliases its first snapshot to "default" so single-workspace sessions
  /// can omit `ws=`. The alias is an independent entry afterwards: Replace
  /// and Remove on either name do not affect the other.
  Status Alias(const std::string& alias, const std::string& existing);

  /// Live-updating registration: the entry serves `live`'s latest
  /// published version — every Find/Resolve re-samples the published
  /// pointer, so queries admitted after a publication see the new epoch
  /// while in-flight queries keep the version they pinned. The caller owns
  /// the ingestion side (LiveWorkspace outlives its pipeline; the shared_ptr
  /// here keeps the object itself alive past Remove for in-flight readers).
  Status AddLive(const std::string& name, std::shared_ptr<LiveWorkspace> live);

  Status Remove(const std::string& name);

  /// The workspace registered under `name`, or nullptr. The returned
  /// pointer keeps the substrate alive independently of later
  /// Replace/Remove calls.
  std::shared_ptr<const PreparedWorkspace> Find(const std::string& name) const;

  /// Find + servability check: NotFound for an unknown name,
  /// InvalidArgument naming the workspace's serving range when it cannot
  /// serve (k, r), otherwise OK with *out set.
  Status Resolve(const std::string& name, uint32_t k, double r,
                 std::shared_ptr<const PreparedWorkspace>* out) const;

  /// Resolve variant carrying live-serving metadata (epoch + staleness at
  /// resolution) for response stamping; identical servability rules.
  Status Resolve(const std::string& name, uint32_t k, double r,
                 Resolved* out) const;

  /// The LiveWorkspace registered under `name`, or nullptr for unknown
  /// names and frozen entries.
  std::shared_ptr<LiveWorkspace> FindLive(const std::string& name) const;

  /// Serving identities of every registered workspace, in name order.
  std::vector<Entry> List() const;

  size_t size() const;

 private:
  /// A resident substrate plus how it got here. The load metadata is
  /// immutable alongside the workspace; aliases share the substrate but
  /// copy the metadata (they describe the same load).
  struct Registered {
    /// Frozen entries: the substrate itself. Live entries: unset — the
    /// substrate is re-sampled from `live` on every lookup.
    std::shared_ptr<const PreparedWorkspace> ws;
    std::shared_ptr<LiveWorkspace> live;
    uint32_t snapshot_version = 0;
    double load_seconds = 0.0;
    bool lazy_loaded = false;
    bool mapped = false;
  };

  Status AddLocked(const std::string& name, Registered reg);

  mutable std::mutex mu_;
  std::map<std::string, Registered> entries_;
};

/// Writes one List() entry as a JSON object: the serving identity and load
/// mode, then `live`, plus `epoch` and the staleness pair for a live entry.
/// The `list` command and the `workspaces` array of `stats` both use it.
void AppendEntryJson(const WorkspaceRegistry::Entry& e, JsonWriter* out);

}  // namespace krcore

#endif  // KRCORE_SERVER_WORKSPACE_REGISTRY_H_
