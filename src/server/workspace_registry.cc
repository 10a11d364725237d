#include "server/workspace_registry.h"

#include <utility>

#include "snapshot/workspace_snapshot.h"
#include "util/timer.h"

namespace krcore {

Status WorkspaceRegistry::AddLocked(const std::string& name, Registered reg) {
  if (name.empty()) {
    return Status::InvalidArgument("workspace name must not be empty");
  }
  const PreparedWorkspace& probe =
      reg.live ? *reg.live->Current().workspace : *reg.ws;
  if (probe.k == 0) {
    return Status::InvalidArgument("workspace '" + name +
                                   "' is empty (k == 0); register only "
                                   "PrepareWorkspace/snapshot output");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.emplace(name, std::move(reg));
  (void)it;
  if (!inserted) {
    return Status::InvalidArgument("workspace '" + name +
                                   "' is already registered");
  }
  return Status::OK();
}

Status WorkspaceRegistry::Add(const std::string& name, PreparedWorkspace ws) {
  Registered reg;
  reg.ws = std::make_shared<const PreparedWorkspace>(std::move(ws));
  return AddLocked(name, std::move(reg));
}

Status WorkspaceRegistry::Replace(const std::string& name,
                                  PreparedWorkspace ws) {
  if (name.empty()) {
    return Status::InvalidArgument("workspace name must not be empty");
  }
  if (ws.k == 0) {
    return Status::InvalidArgument("workspace '" + name +
                                   "' is empty (k == 0)");
  }
  Registered reg;
  reg.ws = std::make_shared<const PreparedWorkspace>(std::move(ws));
  std::lock_guard<std::mutex> lock(mu_);
  entries_[name] = std::move(reg);
  return Status::OK();
}

Status WorkspaceRegistry::AddFromSnapshot(const std::string& name,
                                          const std::string& path,
                                          SnapshotLoadMode mode) {
  PreparedWorkspace ws;
  SnapshotLoadOptions options;
  options.lazy = mode == SnapshotLoadMode::kLazy;
  SnapshotLoadInfo info;
  Timer timer;
  Status s = LoadWorkspaceSnapshot(path, options, &ws, &info);
  if (!s.ok()) return s;
  Registered reg;
  reg.ws = std::make_shared<const PreparedWorkspace>(std::move(ws));
  reg.snapshot_version = info.format_version;
  reg.load_seconds = timer.ElapsedSeconds();
  reg.lazy_loaded = info.lazy;
  reg.mapped = info.mapped;
  return AddLocked(name, std::move(reg));
}

Status WorkspaceRegistry::AddLive(const std::string& name,
                                  std::shared_ptr<LiveWorkspace> live) {
  if (!live) {
    return Status::InvalidArgument("AddLive needs a non-null LiveWorkspace");
  }
  Registered reg;
  reg.live = std::move(live);
  return AddLocked(name, std::move(reg));
}

Status WorkspaceRegistry::Alias(const std::string& alias,
                                const std::string& existing) {
  if (alias.empty()) {
    return Status::InvalidArgument("workspace name must not be empty");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(existing);
  if (it == entries_.end()) {
    return Status::NotFound("workspace '" + existing + "' is not registered");
  }
  auto [alias_it, inserted] = entries_.emplace(alias, it->second);
  (void)alias_it;
  if (!inserted) {
    return Status::InvalidArgument("workspace '" + alias +
                                   "' is already registered");
  }
  return Status::OK();
}

Status WorkspaceRegistry::Remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.erase(name) == 0) {
    return Status::NotFound("workspace '" + name + "' is not registered");
  }
  return Status::OK();
}

std::shared_ptr<const PreparedWorkspace> WorkspaceRegistry::Find(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return nullptr;
  // Live entries serve the latest published version: resolving is the
  // epoch pin — the returned pointer stays bit-stable across later
  // publications.
  if (it->second.live) return it->second.live->Current().workspace;
  return it->second.ws;
}

std::shared_ptr<LiveWorkspace> WorkspaceRegistry::FindLive(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second.live;
}

Status WorkspaceRegistry::Resolve(const std::string& name, uint32_t k,
                                  double r, Resolved* out) const {
  Registered reg;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("workspace '" + name + "' is not registered");
    }
    reg = it->second;
  }
  Resolved res;
  if (reg.live) {
    PublishedVersion version = reg.live->Current();
    res.ws = std::move(version.workspace);
    res.live = true;
    res.epoch = version.epoch;
    res.staleness = reg.live->Staleness();
  } else {
    res.ws = std::move(reg.ws);
  }
  const PreparedWorkspace& ws = *res.ws;
  if (!ws.Serves(k, r)) {
    return Status::InvalidArgument(
        "workspace '" + name + "' cannot serve (k=" + std::to_string(k) +
        ", r=" + std::to_string(r) + "); it serves k >= " +
        std::to_string(ws.k) + " and " + ws.ServingRange());
  }
  *out = std::move(res);
  return Status::OK();
}

Status WorkspaceRegistry::Resolve(
    const std::string& name, uint32_t k, double r,
    std::shared_ptr<const PreparedWorkspace>* out) const {
  Resolved res;
  Status s = Resolve(name, k, r, &res);
  if (!s.ok()) return s;
  *out = std::move(res.ws);
  return s;
}

std::vector<WorkspaceRegistry::Entry> WorkspaceRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [name, reg] : entries_) {
    Entry e;
    std::shared_ptr<const PreparedWorkspace> pinned = reg.ws;
    if (reg.live) {
      PublishedVersion version = reg.live->Current();
      pinned = std::move(version.workspace);
      const StalenessReport staleness = reg.live->Staleness();
      e.live = true;
      e.epoch = version.epoch;
      e.staleness_batches = staleness.batches;
      e.staleness_seconds = staleness.seconds;
    }
    const PreparedWorkspace& ws = *pinned;
    e.name = name;
    e.k = ws.k;
    e.threshold = ws.threshold;
    e.score_cover = ws.score_cover;
    e.is_distance = ws.is_distance;
    e.version = ws.version;
    e.num_components = ws.components.size();
    e.num_vertices = ws.num_vertices();
    e.snapshot_version = reg.snapshot_version;
    e.load_seconds = reg.load_seconds;
    e.lazy_loaded = reg.lazy_loaded;
    e.mapped = reg.mapped;
    out.push_back(std::move(e));
  }
  return out;
}

size_t WorkspaceRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void AppendEntryJson(const WorkspaceRegistry::Entry& e, JsonWriter* out) {
  out->BeginObject()
      .Member("name", e.name)
      .Member("k", e.k)
      .Member("r", e.threshold)
      .Member("cover", e.score_cover)
      .Member("scored", e.score_cover != e.threshold)
      .Member("distance_metric", e.is_distance)
      .Member("version", e.version)
      .Member("components", e.num_components)
      .Member("vertices", e.num_vertices)
      .Member("snapshot_version", e.snapshot_version)
      .Member("load_seconds", e.load_seconds)
      .Member("lazy", e.lazy_loaded)
      .Member("mapped", e.mapped)
      .Member("live", e.live);
  if (e.live) {
    out->Member("epoch", e.epoch)
        .Member("staleness_batches", e.staleness_batches)
        .Member("staleness_seconds", e.staleness_seconds);
  }
  out->EndObject();
}

}  // namespace krcore
