#include "server/protocol.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <sstream>
#include <unordered_set>

#include "util/json.h"

namespace krcore {
namespace {

const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

Status BadRequest(const std::string& what) {
  return Status::InvalidArgument("bad request: " + what);
}

bool ParseU64(const std::string& s, uint64_t* out) {
  if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  // Compare against the string's end, not a NUL: a value holding a NUL
  // byte ("3\0junk") must not parse as its prefix.
  if (errno != 0 || end != s.data() + s.size()) return false;
  *out = v;
  return true;
}

bool ParseDoubleStrict(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end != s.data() + s.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kEnumerate:
      return "enum";
    case QueryKind::kMaximum:
      return "max";
    case QueryKind::kDerive:
      return "derive";
  }
  return "unknown";
}

Status ParseRequestLine(const std::string& line, QueryRequest* out,
                        std::string* id_out) {
  *out = QueryRequest{};
  id_out->clear();
  // Pre-pass: latch the id wherever it sits on the line, so an error on an
  // earlier token still produces a correlatable error response.
  {
    std::istringstream scan(line);
    std::string token;
    while (scan >> token) {
      if (token[0] == '#') break;
      if (token.rfind("id=", 0) == 0) {
        *id_out = token.substr(3);
        break;
      }
    }
  }
  std::istringstream in(line);
  std::string token;
  std::unordered_set<std::string> seen;
  bool have_op = false, have_k = false;
  while (in >> token) {
    if (token[0] == '#') break;  // trailing comment
    size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return BadRequest("expected key=value, got '" + token + "'");
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (!seen.insert(key).second) {
      return BadRequest("duplicate key '" + key + "'");
    }
    if (key == "id") {
      out->id = value;
      *id_out = value;
    } else if (key == "ws") {
      if (value.empty()) return BadRequest("ws must not be empty");
      out->workspace = value;
    } else if (key == "op") {
      have_op = true;
      if (value == "enum") {
        out->kind = QueryKind::kEnumerate;
      } else if (value == "max") {
        out->kind = QueryKind::kMaximum;
      } else if (value == "derive") {
        out->kind = QueryKind::kDerive;
      } else {
        return BadRequest("unknown op '" + value +
                          "' (want enum, max or derive)");
      }
    } else if (key == "k") {
      uint64_t k = 0;
      if (!ParseU64(value, &k) || k == 0 || k > 0xffffffffull) {
        return BadRequest("k must be a positive 32-bit integer, got '" +
                          value + "'");
      }
      out->k = static_cast<uint32_t>(k);
      have_k = true;
    } else if (key == "r") {
      if (!ParseDoubleStrict(value, &out->r)) {
        return BadRequest("r must be a finite number, got '" + value + "'");
      }
    } else if (key == "timeout") {
      if (!ParseDoubleStrict(value, &out->timeout_seconds) ||
          out->timeout_seconds < 0.0) {
        return BadRequest("timeout must be a non-negative number of "
                          "seconds, got '" + value + "'");
      }
    } else if (key == "limit") {
      if (!ParseU64(value, &out->limit)) {
        return BadRequest("limit must be a non-negative integer, got '" +
                          value + "'");
      }
    } else {
      return BadRequest("unknown key '" + key + "'");
    }
  }
  if (seen.empty()) {
    return Status::NotFound("empty request line");
  }
  if (!have_op) return BadRequest("missing op=enum|max|derive");
  if (!have_k) return BadRequest("missing k=<positive integer>");
  return Status::OK();
}

std::string SerializeResponse(const QueryResponse& response) {
  JsonWriter out;
  out.BeginObject()
      .Member("id", response.id)
      .Member("status", StatusCodeName(response.status.code()));
  if (!response.status.ok()) {
    out.Member("error", response.status.message());
  }
  out.Member("op", QueryKindName(response.kind))
      .Member("k", response.k)
      .Member("r", response.r);
  if (response.status.ok() || response.status.IsDeadlineExceeded()) {
    out.Member("version", response.workspace_version);
    if (response.live) {
      out.Member("epoch", response.epoch)
          .Member("staleness_batches", response.staleness_batches)
          .Member("staleness_seconds", response.staleness_seconds);
    }
    out.Member("count", response.count);
    if (response.kind == QueryKind::kDerive) {
      out.Member("components", response.num_components);
    } else {
      out.Key("cores").BeginArray();
      for (const VertexSet& core : response.cores) {
        out.BeginArray();
        for (VertexId v : core) out.Value(v);
        out.EndArray();
      }
      out.EndArray();
    }
    out.Member("search_nodes", response.stats.search_nodes);
  }
  out.Member("coalesced", response.coalesced)
      .Member("wait_seconds", response.wait_seconds)
      .Member("derive_seconds", response.derive_seconds)
      .Member("mine_seconds", response.mine_seconds)
      .EndObject();
  return out.Take();
}

}  // namespace krcore
