#include "server/serve.h"

#include <deque>
#include <future>
#include <string>
#include <utility>

#include "server/protocol.h"
#include "util/json.h"

namespace krcore {
namespace {

/// Pending responses are bounded so a client that streams requests faster
/// than they resolve cannot grow the future queue without limit; the head
/// response is awaited (and written) once the bound is hit. The server's
/// own admission control bounds executing work — this only bounds the
/// transport-side bookkeeping.
constexpr size_t kMaxPendingResponses = 1024;

std::string TrimmedView(const std::string& line) {
  size_t start = line.find_first_not_of(" \t\r");
  if (start == std::string::npos) return "";
  size_t end = line.find_last_not_of(" \t\r");
  return line.substr(start, end - start + 1);
}

}  // namespace

std::string RegistryListJson(const WorkspaceRegistry& registry) {
  JsonWriter out;
  out.BeginArray();
  for (const auto& entry : registry.List()) AppendEntryJson(entry, &out);
  out.EndArray();
  return out.Take();
}

SessionReport ServeSession(QueryServer* server,
                           const WorkspaceRegistry* registry,
                           std::istream& in, std::ostream& out) {
  SessionReport report;
  std::deque<std::shared_future<QueryResponse>> pending;

  auto WriteHead = [&] {
    QueryResponse response = pending.front().get();
    pending.pop_front();
    out << SerializeResponse(response) << '\n';
    ++report.responses_written;
  };
  auto DrainPending = [&] {
    while (!pending.empty()) WriteHead();
    out.flush();
  };

  std::string line;
  while (std::getline(in, line)) {
    ++report.lines_read;
    const std::string trimmed = TrimmedView(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;

    if (trimmed == "stats" || trimmed == "list" || trimmed == "ping" ||
        trimmed == "quit") {
      ++report.admin_commands;
      DrainPending();  // admin commands are ordering barriers
      if (trimmed == "stats") {
        out << server->Stats().ToJson() << '\n';
      } else if (trimmed == "list") {
        out << RegistryListJson(*registry) << '\n';
      } else if (trimmed == "ping") {
        out << R"({"pong":true})" << '\n';
      } else {
        out.flush();
        return report;
      }
      out.flush();
      continue;
    }

    QueryRequest request;
    std::string id;
    Status parsed = ParseRequestLine(trimmed, &request, &id);
    if (!parsed.ok()) {
      // NotFound = nothing to execute (blank-equivalent); anything else is
      // a malformed request answered immediately, in order, with the id
      // preserved when one was readable.
      if (parsed.code() == StatusCode::kNotFound) continue;
      ++report.parse_errors;
      DrainPending();
      QueryResponse error;
      error.id = id;
      error.status = std::move(parsed);
      out << SerializeResponse(error) << '\n';
      out.flush();
      ++report.responses_written;
      continue;
    }

    ++report.queries_submitted;
    pending.push_back(server->Submit(request));
    while (pending.size() > kMaxPendingResponses) WriteHead();
  }
  DrainPending();
  return report;
}

}  // namespace krcore
