#ifndef KRCORE_SERVER_PROTOCOL_H_
#define KRCORE_SERVER_PROTOCOL_H_

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/krcore_types.h"
#include "util/status.h"
#include "util/timer.h"

namespace krcore {

/// The wire protocol of the query server, chosen for testability over
/// transport sophistication: requests are single lines of space-separated
/// `key=value` tokens, responses are single-line JSON objects. Both
/// directions are newline-delimited, so the server runs over any byte
/// stream — stdin/stdout, a pipe, a socket fd — and an in-process client is
/// just a pair of stringstreams (docs/SERVER.md specifies the grammar and a
/// worked session).

/// What a query asks the engine to do with its (k, r) cell.
enum class QueryKind : uint8_t {
  kEnumerate,  // all maximal (k,r)-cores
  kMaximum,    // one maximum (k,r)-core
  kDerive,     // derive the cell's substrate only: component/vertex counts,
               // no mining — the cheap "how big is this cell" probe
};

const char* QueryKindName(QueryKind kind);

/// One parsed client request. `k` is required; `r` defaults to the target
/// workspace's serving threshold when NaN (the parser's "not given" value).
struct QueryRequest {
  /// Client-chosen token echoed back verbatim in the response, so clients
  /// that pipeline requests can match responses out of order.
  std::string id;
  /// Registry name of the workspace to serve from.
  std::string workspace = "default";
  QueryKind kind = QueryKind::kEnumerate;
  uint32_t k = 0;
  /// NaN = the workspace's own serving threshold (filled at admission).
  double r = std::numeric_limits<double>::quiet_NaN();
  /// Per-request wall-clock budget in seconds; <= 0 = the server default.
  double timeout_seconds = 0.0;
  /// Enumerate only: cap on the cores included in the response (0 = all).
  /// The search itself is not truncated — `count` still reports the full
  /// total — this only bounds response size.
  uint64_t limit = 0;

  bool has_r() const { return !std::isnan(r); }
};

/// One server response: the request's id, a Status, the result payload, and
/// the per-stage timing the request observed. Serialized as one JSON line.
struct QueryResponse {
  std::string id;
  Status status;
  QueryKind kind = QueryKind::kEnumerate;
  /// The resolved cell (r filled in even when the request omitted it) and
  /// the graph version of the substrate that served it.
  uint32_t k = 0;
  double r = 0.0;
  uint64_t workspace_version = 0;
  /// Live-ingestion serving metadata, meaningful only when `live` is true
  /// (the workspace is in live-updating registration): the published epoch
  /// the response's substrate came from, and the published-version lag
  /// observed at admission. Serialized only for live workspaces, so frozen
  /// responses are byte-identical to pre-ingestion builds.
  bool live = false;
  uint64_t epoch = 0;
  uint64_t staleness_batches = 0;
  double staleness_seconds = 0.0;
  /// kEnumerate: all maximal cores (truncated to `limit`); kMaximum: one
  /// entry holding the maximum core (absent when none exists).
  std::vector<VertexSet> cores;
  /// kEnumerate: total maximal cores found (>= cores.size() when a limit
  /// truncated the payload); kMaximum: the maximum core's size; kDerive:
  /// the derived cell's vertex count.
  uint64_t count = 0;
  /// kDerive: components in the derived cell's substrate.
  uint64_t num_components = 0;
  /// True when this response was served by a coalesced execution another
  /// request led (the derivation + mining ran once and fanned out).
  bool coalesced = false;
  /// Seconds from admission to execution start (queue wait), and the
  /// derive/mine stage service times of the execution that produced the
  /// payload (coalesced followers see the leader's service times).
  double wait_seconds = 0.0;
  double derive_seconds = 0.0;
  double mine_seconds = 0.0;
  /// Mining counters of the execution (search_nodes etc.), surfaced so
  /// clients can account server-side work per query.
  MiningStats stats;
};

/// Parses one request line: space-separated `key=value` tokens in any
/// order. Keys: `op` (enum|max|derive), `k`, and optionally `id`, `ws`,
/// `r`, `timeout`, `limit`. Unknown keys, duplicate keys, malformed values
/// and a missing/invalid `op` or `k` are InvalidArgument — with the parsed
/// `id` (when one was readable) preserved in *id_out so the error response
/// still correlates. Empty lines and `#` comments return NotFound, meaning
/// "nothing to execute" (transports skip them).
Status ParseRequestLine(const std::string& line, QueryRequest* out,
                        std::string* id_out);

/// Renders `response` as one JSON object on a single line (no trailing
/// newline). Status is rendered as {"status": "<CODE>", "error": "<msg>"}
/// with `error` only present on failure; cores as arrays of vertex ids.
std::string SerializeResponse(const QueryResponse& response);

}  // namespace krcore

#endif  // KRCORE_SERVER_PROTOCOL_H_
