#ifndef KRCORE_SERVER_SERVE_H_
#define KRCORE_SERVER_SERVE_H_

#include <cstdint>
#include <istream>
#include <ostream>

#include "server/query_server.h"
#include "server/workspace_registry.h"
#include "util/field_table.h"
#include "util/status.h"

namespace krcore {

/// Totals of one ServeSession run (mirrored into the final `stats` dump by
/// the krcore_server binary).
struct SessionReport {
  uint64_t lines_read = 0;
  uint64_t queries_submitted = 0;
  uint64_t responses_written = 0;
  uint64_t parse_errors = 0;
  uint64_t admin_commands = 0;

  std::string ToJson() const { return FieldsJson(*this); }

  static constexpr auto Fields() {
    using S = SessionReport;
    return std::tuple{
        Field{"lines_read", &S::lines_read},
        Field{"queries_submitted", &S::queries_submitted},
        Field{"responses_written", &S::responses_written},
        Field{"parse_errors", &S::parse_errors},
        Field{"admin_commands", &S::admin_commands},
    };
  }
};

/// Drives a QueryServer over a newline-delimited byte-stream transport:
/// reads request lines from `in` (see server/protocol.h for the grammar),
/// submits each query without waiting, and writes one JSON response line
/// per request to `out` *in submission order* (head-of-line responses are
/// awaited as needed, so output order is deterministic while the pipeline
/// still overlaps derive/mine work across in-flight queries).
///
/// Besides query lines, four admin commands are served inline:
///   stats   write the server's JSON stats dump
///   list    write the registry's entries as a JSON array
///   ping    write {"pong":true} (liveness probe)
///   quit    drain pending responses and return
/// Admin commands are barriers: pending query responses are flushed first,
/// so a `stats` line observes every query written before it.
///
/// Blank lines and `#` comment lines are skipped. Returns when `in` hits
/// EOF (or `quit`), after draining every pending response.
SessionReport ServeSession(QueryServer* server,
                           const WorkspaceRegistry* registry,
                           std::istream& in, std::ostream& out);

/// The registry listing the `list` command writes: a JSON array with one
/// object per registered workspace, written by AppendEntryJson.
std::string RegistryListJson(const WorkspaceRegistry& registry);

}  // namespace krcore

#endif  // KRCORE_SERVER_SERVE_H_
