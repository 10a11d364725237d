// Workspace snapshot inspector.
//
// Usage:
//   snapshot_tool --info=ws.krws [--json]
//
// `--info` walks the file's header, meta, section table and checksums
// without requiring full structural validation — a bit-flipped component
// prints as `BAD` instead of aborting, which is the point: this is the
// first tool to reach for on a torn-file report.
//
// Exits 0 on success, 1 on any error (unreadable file, bad magic, a
// version other than 5, damaged header/meta/table/tail).

#include <cinttypes>
#include <cstdio>
#include <string>

#include "snapshot/workspace_snapshot.h"
#include "util/json.h"
#include "util/options.h"

using namespace krcore;

namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

void PrintInfoText(const std::string& path, const SnapshotInfo& info) {
  std::printf("%s: snapshot v%u, %" PRIu64 " bytes\n", path.c_str(),
              info.format_version, info.file_size);
  std::printf("  k=%u r=%s cover=%s scored=%s distance=%s version=%" PRIu64
              "\n",
              info.k, JsonDouble(info.threshold).c_str(),
              JsonDouble(info.score_cover).c_str(),
              info.score_cover != info.threshold ? "true" : "false",
              info.is_distance ? "true" : "false", info.graph_version);
  std::printf("  components=%" PRIu64 ", sections=%zu\n", info.num_components,
              info.sections.size());
  for (const auto& s : info.sections) {
    std::printf("  [%9s] offset=%-10" PRIu64 " size=%-10" PRIu64
                " checksum=%016" PRIx64 " %s",
                s.kind.c_str(), s.offset, s.size, s.checksum,
                s.checksum_ok ? "OK " : "BAD");
    if (s.kind == "component") {
      std::printf(" n=%" PRIu64 " edges=%" PRIu64 " pairs=%" PRIu64
                  " reserve=%" PRIu64,
                  s.n, s.num_edges, s.num_pairs, s.num_reserve_pairs);
    }
    std::printf("\n");
  }
}

void PrintInfoJson(const std::string& path, const SnapshotInfo& info) {
  std::printf("{\"path\":\"%s\",\"format_version\":%u,\"file_size\":%" PRIu64
              ",\"k\":%u,\"r\":%s,\"cover\":%s,\"scored\":%s,"
              "\"distance_metric\":%s,\"version\":%" PRIu64
              ",\"components\":%" PRIu64 ",\"sections\":[",
              JsonEscape(path).c_str(), info.format_version, info.file_size,
              info.k, JsonDouble(info.threshold).c_str(),
              JsonDouble(info.score_cover).c_str(),
              info.score_cover != info.threshold ? "true" : "false",
              info.is_distance ? "true" : "false", info.graph_version,
              info.num_components);
  bool first = true;
  for (const auto& s : info.sections) {
    std::printf("%s{\"kind\":\"%s\",\"offset\":%" PRIu64 ",\"size\":%" PRIu64
                ",\"checksum\":\"%016" PRIx64 "\",\"checksum_ok\":%s",
                first ? "" : ",", s.kind.c_str(), s.offset, s.size, s.checksum,
                s.checksum_ok ? "true" : "false");
    first = false;
    if (s.kind == "component") {
      std::printf(",\"n\":%" PRIu64 ",\"edges\":%" PRIu64 ",\"pairs\":%" PRIu64
                  ",\"reserve\":%" PRIu64,
                  s.n, s.num_edges, s.num_pairs, s.num_reserve_pairs);
    }
    std::printf("}");
  }
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  OptionParser options(argc, argv);
  if (options.Has("help") || argc == 1) {
    std::printf(
        "snapshot_tool --info=PATH [--json]\n"
        "Inspects (k,r)-core workspace snapshot files.\n"
        "  --info=PATH     print version, identity, and per-section\n"
        "                  sizes/checksums; damaged components print as\n"
        "                  BAD instead of aborting\n"
        "  --json          emit --info output as one JSON object\n");
    return 0;
  }

  if (!options.Has("info")) return Fail("need --info=PATH; see --help");
  const std::string path = options.GetString("info", "");
  SnapshotInfo info;
  if (Status s = InspectSnapshot(path, &info); !s.ok()) {
    return Fail(path + ": " + s.message());
  }
  if (options.GetBool("json", false)) {
    PrintInfoJson(path, info);
  } else {
    PrintInfoText(path, info);
  }
  return 0;
}
