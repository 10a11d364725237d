// Tests for the long-lived query server layer (src/server/): workspace
// registry, wire-protocol parser/serializer, the staged executor
// (admission, coalescing, deadlines, failpoints at stage boundaries), and
// the newline-delimited transport session. The integration test at the
// bottom is the serving contract: concurrent clients against a scored
// multi-r snapshot get bit-identical results to direct library calls.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gmock/gmock.h>
#include <gtest/gtest.h>

#include "core/enumerate.h"
#include "core/maximum.h"
#include "core/pipeline.h"
#include "server/protocol.h"
#include "server/query_server.h"
#include "server/serve.h"
#include "server/workspace_registry.h"
#include "snapshot/workspace_snapshot.h"
#include "test_helpers.h"
#include "util/failpoint.h"
#include "util/random.h"

namespace krcore {
namespace {

using ::testing::HasSubstr;

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Two triangles joined by one cross-group (hence dissimilar) edge: the
/// maximal (2,r)-cores are exactly the triangles.
PreparedWorkspace TriangleFixture() {
  test::GroupedSimilarity g = test::MakeGrouped(
      6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}},
      {0, 0, 0, 1, 1, 1});
  SimilarityOracle oracle = g.MakeOracle();
  PipelineOptions opts;
  opts.k = 2;
  PreparedWorkspace ws;
  EXPECT_TRUE(PrepareWorkspace(g.graph, oracle, opts, &ws).ok());
  return ws;
}

ServerOptions QuietOptions() {
  ServerOptions o;
  o.queue_capacity = 16;
  o.default_timeout_seconds = 30.0;
  return o;
}

class ScopedFailpoints {
 public:
  ~ScopedFailpoints() { Failpoints::DisableAll(); }
};

// ---------------------------------------------------------------------------
// WorkspaceRegistry

TEST(WorkspaceRegistryTest, AddFindRemove) {
  WorkspaceRegistry registry;
  EXPECT_EQ(registry.Find("tri"), nullptr);
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  EXPECT_EQ(registry.size(), 1u);

  auto ws = registry.Find("tri");
  ASSERT_NE(ws, nullptr);
  EXPECT_EQ(ws->k, 2u);

  // Duplicate names and empty names are rejected; Replace swaps.
  EXPECT_TRUE(registry.Add("tri", TriangleFixture()).IsInvalidArgument());
  EXPECT_TRUE(registry.Add("", TriangleFixture()).IsInvalidArgument());
  EXPECT_TRUE(registry.Add("empty", PreparedWorkspace{}).IsInvalidArgument());
  ASSERT_TRUE(registry.Replace("tri", TriangleFixture()).ok());

  // A held pointer survives Remove (entries are immutable shared state).
  ASSERT_TRUE(registry.Remove("tri").ok());
  EXPECT_TRUE(registry.Remove("tri").IsNotFound());
  EXPECT_EQ(registry.Find("tri"), nullptr);
  EXPECT_EQ(ws->k, 2u);
}

TEST(WorkspaceRegistryTest, ResolveChecksServability) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());

  std::shared_ptr<const PreparedWorkspace> ws;
  EXPECT_TRUE(registry.Resolve("nope", 2, 1.0, &ws).IsNotFound());
  // k below the prepared k and r outside the (point) serving interval.
  Status too_small_k = registry.Resolve("tri", 1, 1.0, &ws);
  EXPECT_TRUE(too_small_k.IsInvalidArgument());
  EXPECT_TRUE(registry.Resolve("tri", 2, 0.5, &ws).IsInvalidArgument());
  ASSERT_TRUE(registry.Resolve("tri", 3, 1.0, &ws).ok());
  ASSERT_NE(ws, nullptr);
}

TEST(WorkspaceRegistryTest, AliasSharesTheSubstrate) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  EXPECT_TRUE(registry.Alias("default", "nope").IsNotFound());
  ASSERT_TRUE(registry.Alias("default", "tri").ok());
  EXPECT_TRUE(registry.Alias("default", "tri").IsInvalidArgument());
  EXPECT_EQ(registry.Find("default"), registry.Find("tri"));  // same object
  // Independent entries after creation: removing one keeps the other.
  ASSERT_TRUE(registry.Remove("tri").ok());
  EXPECT_NE(registry.Find("default"), nullptr);
}

TEST(WorkspaceRegistryTest, ListReportsServingIdentity) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("b", TriangleFixture()).ok());
  ASSERT_TRUE(registry.Add("a", TriangleFixture()).ok());
  auto entries = registry.List();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].name, "a");  // name order
  EXPECT_EQ(entries[1].name, "b");
  EXPECT_EQ(entries[0].k, 2u);
  EXPECT_EQ(entries[0].num_vertices, 6u);
}

// ---------------------------------------------------------------------------
// Protocol parser

TEST(ProtocolTest, ParsesFullRequestLine) {
  QueryRequest req;
  std::string id;
  ASSERT_TRUE(ParseRequestLine(
                  "op=enum id=q7 ws=geo k=3 r=0.25 timeout=1.5 limit=10", &req,
                  &id)
                  .ok());
  EXPECT_EQ(req.id, "q7");
  EXPECT_EQ(req.workspace, "geo");
  EXPECT_EQ(req.kind, QueryKind::kEnumerate);
  EXPECT_EQ(req.k, 3u);
  EXPECT_DOUBLE_EQ(req.r, 0.25);
  EXPECT_DOUBLE_EQ(req.timeout_seconds, 1.5);
  EXPECT_EQ(req.limit, 10u);
}

TEST(ProtocolTest, DefaultsAndOps) {
  QueryRequest req;
  std::string id;
  ASSERT_TRUE(ParseRequestLine("op=max k=2", &req, &id).ok());
  EXPECT_EQ(req.kind, QueryKind::kMaximum);
  EXPECT_EQ(req.workspace, "default");
  EXPECT_FALSE(req.has_r());
  EXPECT_EQ(req.timeout_seconds, 0.0);
  ASSERT_TRUE(ParseRequestLine("op=derive k=4", &req, &id).ok());
  EXPECT_EQ(req.kind, QueryKind::kDerive);
}

TEST(ProtocolTest, BlankAndCommentLinesAreNotFound) {
  QueryRequest req;
  std::string id;
  EXPECT_TRUE(ParseRequestLine("", &req, &id).IsNotFound());
  EXPECT_TRUE(ParseRequestLine("   ", &req, &id).IsNotFound());
  EXPECT_TRUE(ParseRequestLine("# a comment", &req, &id).IsNotFound());
}

TEST(ProtocolTest, MalformedRequestsAreInvalidArgument) {
  QueryRequest req;
  std::string id;
  // Missing op / missing k / bad op value.
  EXPECT_TRUE(ParseRequestLine("k=3", &req, &id).IsInvalidArgument());
  EXPECT_TRUE(ParseRequestLine("op=enum", &req, &id).IsInvalidArgument());
  EXPECT_TRUE(ParseRequestLine("op=bogus k=3", &req, &id).IsInvalidArgument());
  // Malformed numbers.
  EXPECT_TRUE(ParseRequestLine("op=enum k=abc", &req, &id).IsInvalidArgument());
  EXPECT_TRUE(
      ParseRequestLine("op=enum k=3 r=zzz", &req, &id).IsInvalidArgument());
  EXPECT_TRUE(
      ParseRequestLine("op=enum k=-2", &req, &id).IsInvalidArgument());
  // Unknown and duplicate keys.
  EXPECT_TRUE(
      ParseRequestLine("op=enum k=3 bogus=1", &req, &id).IsInvalidArgument());
  EXPECT_TRUE(
      ParseRequestLine("op=enum k=3 k=4", &req, &id).IsInvalidArgument());
  // Token without '='.
  EXPECT_TRUE(ParseRequestLine("op=enum k=3 naked", &req, &id)
                  .IsInvalidArgument());
  // A NUL byte inside a numeric value does not end it early.
  using namespace std::string_literals;
  EXPECT_TRUE(ParseRequestLine("op=enum k=3\0junk limit=1\0x id=a"s, &req,
                               &id)
                  .IsInvalidArgument());
  EXPECT_TRUE(ParseRequestLine("op=enum k=3 r=0.5\0x"s, &req, &id)
                  .IsInvalidArgument());
}

TEST(ProtocolTest, IdSurvivesParseErrors) {
  QueryRequest req;
  std::string id;
  EXPECT_TRUE(
      ParseRequestLine("id=q9 op=bogus k=3", &req, &id).IsInvalidArgument());
  EXPECT_EQ(id, "q9");
}

/// One seeded mutation of a request line: a byte flip, a truncation, a
/// dropped or doubled '=', a 20-digit number in place of the first digit
/// run, a NUL byte plus junk after a digit, or an inserted control byte.
std::string MutateRequestLine(std::string line, Rng* rng) {
  const size_t pos = rng->NextBounded(line.size() + 1);
  switch (rng->NextBounded(7)) {
    case 0:
      if (pos < line.size()) {
        line[pos] = static_cast<char>(line[pos] ^ (1 + rng->NextBounded(255)));
      }
      break;
    case 1:
      line.resize(pos);
      break;
    case 2:
    case 3: {
      const size_t eq = line.find('=', pos);
      if (eq == std::string::npos) break;
      if (rng->NextBounded(2) == 0) {
        line.erase(eq, 1);
      } else {
        line.insert(eq, 1, '=');
      }
      break;
    }
    case 4: {
      const size_t start = line.find_first_of("0123456789");
      if (start == std::string::npos) break;
      const size_t end = line.find_first_not_of("0123456789.", start);
      std::string digits(20, '0');
      for (char& d : digits) d = static_cast<char>('0' + rng->NextBounded(10));
      line.replace(start, end == std::string::npos ? end : end - start,
                   digits);
      break;
    }
    case 5: {
      const size_t digit = line.find_first_of("0123456789", pos);
      if (digit == std::string::npos) break;
      line.insert(digit + 1, std::string("\0x", 2));
      break;
    }
    default:
      line.insert(pos, 1, static_cast<char>(rng->NextBounded(0x20)));
  }
  return line;
}

/// True when a token of `line` before any '#' comment is a numeric key
/// (k, r, timeout, limit) whose value holds a NUL byte.
bool HasNulInNumericValue(const std::string& line) {
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    if (token[0] == '#') break;
    const size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    const std::string key = token.substr(0, eq);
    if ((key == "k" || key == "r" || key == "timeout" || key == "limit") &&
        token.find('\0', eq) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(ProtocolTest, SeededMutantsParseOrFailCleanly) {
  const std::string kValidLines[] = {
      "op=enum id=q7 ws=geo k=3 r=0.25 timeout=1.5 limit=10",
      "op=max k=2",
      "op=derive k=4",
      "op=enum k=2 id=q1",
      "op=enum k=2 r=0.5 id=q2",
  };
  constexpr uint64_t kBaseSeed = 20261019;
  for (uint64_t i = 0; i < 8; ++i) {
    const uint64_t seed = kBaseSeed + i;
    // Logged so a failing mutant reproduces from its seed.
    std::fprintf(stderr, "[mutate] sequence seed %llu\n",
                 static_cast<unsigned long long>(seed));
    SCOPED_TRACE("mutation seed " + std::to_string(seed));
    Rng rng(seed);
    for (int m = 0; m < 250; ++m) {
      std::string line = kValidLines[rng.NextBounded(std::size(kValidLines))];
      const uint64_t rounds = 1 + rng.NextBounded(3);
      for (uint64_t r = 0; r < rounds; ++r) line = MutateRequestLine(line, &rng);
      QueryRequest req;
      QueryResponse response;
      response.status = ParseRequestLine(line, &req, &response.id);
      if (response.status.ok()) {
        EXPECT_GT(req.k, 0u) << "mutant '" << line << "' parsed without k";
        EXPECT_FALSE(HasNulInNumericValue(line))
            << "mutant '" << line << "' parsed despite a NUL in a number";
        continue;
      }
      const std::string json = SerializeResponse(response);
      for (char c : json) {
        ASSERT_GE(static_cast<unsigned char>(c), 0x20)
            << "raw control byte in the error line for mutant '" << line
            << "': " << json;
      }
    }
  }
}

TEST(ProtocolTest, SerializeResponseShapes) {
  QueryResponse ok;
  ok.id = "a\"b";
  ok.kind = QueryKind::kEnumerate;
  ok.k = 2;
  ok.r = 1.0;
  ok.cores = {{0, 1, 2}, {3, 4, 5}};
  ok.count = 2;
  std::string json = SerializeResponse(ok);
  EXPECT_THAT(json, HasSubstr("\"id\":\"a\\\"b\""));
  EXPECT_THAT(json, HasSubstr("\"status\":\"OK\""));
  EXPECT_THAT(json, HasSubstr("[[0,1,2],[3,4,5]]"));
  EXPECT_THAT(json, ::testing::Not(HasSubstr("\"error\"")));
  EXPECT_EQ(json.find('\n'), std::string::npos);

  QueryResponse bad;
  bad.status = Status::InvalidArgument("nope");
  std::string bad_json = SerializeResponse(bad);
  EXPECT_THAT(bad_json, HasSubstr("\"status\":\"INVALID_ARGUMENT\""));
  EXPECT_THAT(bad_json, HasSubstr("\"error\":\"nope\""));

  // Full-line goldens: the wire bytes of each response shape, with fixed
  // timings (0.30000000000000004 needs all 17 significant digits).
  QueryResponse live;
  live.id = "q1";
  live.kind = QueryKind::kEnumerate;
  live.k = 3;
  live.r = 0.25;
  live.workspace_version = 7;
  live.live = true;
  live.epoch = 12;
  live.staleness_batches = 2;
  live.staleness_seconds = 0.5;
  live.cores = {{0, 1, 2}, {4, 5, 6, 7}};
  live.count = 2;
  live.stats.search_nodes = 41;
  live.coalesced = true;
  live.wait_seconds = 0.30000000000000004;
  live.mine_seconds = 0.125;
  EXPECT_EQ(
      SerializeResponse(live),
      R"({"id":"q1","status":"OK","op":"enum","k":3,"r":0.25,"version":7,)"
      R"("epoch":12,"staleness_batches":2,"staleness_seconds":0.5,"count":2,)"
      R"("cores":[[0,1,2],[4,5,6,7]],"search_nodes":41,"coalesced":true,)"
      R"("wait_seconds":0.30000000000000004,"derive_seconds":0,)"
      R"("mine_seconds":0.125})");

  QueryResponse derive;
  derive.id = "d1";
  derive.kind = QueryKind::kDerive;
  derive.k = 4;
  derive.r = 6.0;
  derive.count = 120;
  derive.num_components = 3;
  derive.wait_seconds = 0.001;
  derive.derive_seconds = 0.0625;
  EXPECT_EQ(SerializeResponse(derive),
            R"({"id":"d1","status":"OK","op":"derive","k":4,"r":6,)"
            R"("version":0,"count":120,"components":3,"search_nodes":0,)"
            R"("coalesced":false,"wait_seconds":0.001,)"
            R"("derive_seconds":0.0625,"mine_seconds":0})");

  QueryResponse expired;
  expired.id = "m1";
  expired.status = Status::DeadlineExceeded("query deadline exceeded");
  expired.kind = QueryKind::kMaximum;
  expired.k = 5;
  expired.r = 1.5;
  expired.workspace_version = 2;
  expired.cores = {{9, 10, 11}};
  expired.count = 3;
  expired.stats.search_nodes = 1000;
  expired.mine_seconds = 2.5;
  EXPECT_EQ(SerializeResponse(expired),
            R"({"id":"m1","status":"DEADLINE_EXCEEDED",)"
            R"("error":"query deadline exceeded","op":"max","k":5,"r":1.5,)"
            R"("version":2,"count":3,"cores":[[9,10,11]],)"
            R"("search_nodes":1000,"coalesced":false,"wait_seconds":0,)"
            R"("derive_seconds":0,"mine_seconds":2.5})");

  QueryResponse escaped;
  escaped.id = "a\"b\\c\n\x01";
  escaped.status = Status::InvalidArgument("bad request: unknown key 'x\ty'");
  EXPECT_EQ(SerializeResponse(escaped),
            R"({"id":"a\"b\\c\n\u0001","status":"INVALID_ARGUMENT",)"
            R"("error":"bad request: unknown key 'x\ty'","op":"enum","k":0,)"
            R"("r":0,"coalesced":false,"wait_seconds":0,"derive_seconds":0,)"
            R"("mine_seconds":0})");
}

// ---------------------------------------------------------------------------
// QueryServer executor

TEST(QueryServerTest, ServesBaseCellIdenticallyToDirectCall) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();

  QueryRequest req;
  req.workspace = "tri";
  req.kind = QueryKind::kEnumerate;
  req.k = 2;
  QueryResponse resp = server.Execute(req);
  ASSERT_TRUE(resp.status.ok()) << resp.status.message();

  auto base = registry.Find("tri");
  MaximalCoresResult direct =
      EnumerateMaximalCores(base->components, AdvEnumOptions(2));
  ASSERT_TRUE(direct.status.ok());
  EXPECT_EQ(resp.cores, direct.cores);
  EXPECT_EQ(resp.count, direct.cores.size());
  EXPECT_DOUBLE_EQ(resp.r, base->threshold);  // r was defaulted
  server.Stop();
}

TEST(QueryServerTest, RejectsUnservableCleanly) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();

  QueryRequest req;
  req.workspace = "nope";
  req.k = 2;
  EXPECT_TRUE(server.Execute(req).status.IsNotFound());

  req.workspace = "tri";
  req.k = 1;  // below the prepared k
  EXPECT_TRUE(server.Execute(req).status.IsInvalidArgument());

  req.k = 2;
  req.r = 0.25;  // unscored base serves only its exact threshold
  EXPECT_TRUE(server.Execute(req).status.IsInvalidArgument());

  // The server still serves after rejections.
  QueryRequest good;
  good.workspace = "tri";
  good.k = 2;
  EXPECT_TRUE(server.Execute(good).status.ok());

  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.rejected_unservable, 3u);
  EXPECT_EQ(stats.completed_ok, 1u);
  server.Stop();
}

TEST(QueryServerTest, EnumerateLimitTruncatesPayloadNotCount) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();

  QueryRequest req;
  req.workspace = "tri";
  req.k = 2;
  req.limit = 1;
  QueryResponse resp = server.Execute(req);
  ASSERT_TRUE(resp.status.ok());
  EXPECT_EQ(resp.cores.size(), 1u);
  EXPECT_EQ(resp.count, 2u);  // two triangles exist
  server.Stop();
}

TEST(QueryServerTest, QueueFullRejectsWithResourceExhausted) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  ServerOptions options = QuietOptions();
  options.queue_capacity = 1;
  options.coalesce = false;  // make the second identical cell a new job
  QueryServer server(&registry, options);
  server.Start();
  server.Pause();  // hold the workers so the first job occupies the slot

  QueryRequest req;
  req.workspace = "tri";
  req.k = 2;
  auto first = server.Submit(req);
  QueryResponse second = server.Submit(req).get();  // rejected: ready now
  EXPECT_TRUE(second.status.IsResourceExhausted());
  EXPECT_THAT(second.status.message(), HasSubstr("queue is full"));

  server.Resume();
  EXPECT_TRUE(first.get().status.ok());
  EXPECT_EQ(server.Stats().rejected_queue_full, 1u);
  server.Stop();
}

TEST(QueryServerTest, CoalescesIdenticalConcurrentCells) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();
  server.Pause();  // line the duplicates up deterministically

  QueryRequest req;
  req.workspace = "tri";
  req.kind = QueryKind::kEnumerate;
  req.k = 2;
  req.id = "leader";
  auto leader = server.Submit(req);
  req.id = "f1";
  auto follower1 = server.Submit(req);
  req.id = "f2";
  auto follower2 = server.Submit(req);
  // A different cell must NOT coalesce with them.
  QueryRequest other = req;
  other.id = "max";
  other.kind = QueryKind::kMaximum;
  auto distinct = server.Submit(other);

  server.Resume();
  QueryResponse lead = leader.get();
  QueryResponse f1 = follower1.get();
  QueryResponse f2 = follower2.get();
  ASSERT_TRUE(lead.status.ok());
  EXPECT_FALSE(lead.coalesced);
  EXPECT_TRUE(f1.coalesced);
  EXPECT_TRUE(f2.coalesced);
  EXPECT_EQ(lead.cores, f1.cores);
  EXPECT_EQ(lead.cores, f2.cores);
  EXPECT_EQ(lead.id, "leader");
  EXPECT_EQ(f1.id, "f1");
  EXPECT_FALSE(distinct.get().coalesced);

  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.coalesce_hits, 2u);
  EXPECT_EQ(stats.admitted, 2u);  // one enum job + one max job
  server.Stop();
}

TEST(QueryServerTest, ExpiredDeadlineGetsCleanError) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();
  server.Pause();

  QueryRequest doomed;
  doomed.workspace = "tri";
  doomed.k = 2;
  doomed.timeout_seconds = 1e-4;
  auto doomed_future = server.Submit(doomed);
  QueryRequest fine = doomed;
  fine.timeout_seconds = 30.0;
  fine.kind = QueryKind::kMaximum;  // distinct cell, no coalescing
  auto fine_future = server.Submit(fine);

  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Resume();
  EXPECT_TRUE(doomed_future.get().status.IsDeadlineExceeded());
  EXPECT_TRUE(fine_future.get().status.ok());
  EXPECT_EQ(server.Stats().deadline_expired, 1u);
  server.Stop();
}

TEST(QueryServerTest, FailpointsAtEveryStageBoundaryFailOnlyTheQuery) {
  ScopedFailpoints guard;
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();

  QueryRequest req;
  req.workspace = "tri";
  req.k = 2;
  for (const char* site :
       {"server/admit", "server/derive", "server/mine", "server/respond"}) {
    ASSERT_TRUE(
        Failpoints::Configure(std::string(site) + "=once").ok());
    QueryResponse failed = server.Execute(req);
    EXPECT_TRUE(failed.status.IsInternal()) << site;
    EXPECT_THAT(failed.status.message(), HasSubstr(site));
    // The fault was per-query: the very next request succeeds.
    QueryResponse next = server.Execute(req);
    EXPECT_TRUE(next.status.ok()) << site << ": " << next.status.message();
  }
  EXPECT_EQ(server.Stats().injected_faults, 4u);
  server.Stop();
}

TEST(QueryServerTest, StatsJsonHasStageCounters) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();
  QueryRequest req;
  req.workspace = "tri";
  req.k = 2;
  ASSERT_TRUE(server.Execute(req).status.ok());
  std::string json = server.Stats().ToJson();
  EXPECT_THAT(json, HasSubstr("\"received\":1"));
  EXPECT_THAT(json, HasSubstr("\"completed_ok\":1"));
  EXPECT_THAT(json, HasSubstr("\"derive\":{\"entered\":1"));
  EXPECT_THAT(json, HasSubstr("\"mine\":{\"entered\":1"));
  server.Stop();
}

TEST(QueryServerTest, SubmitBeforeStartQueuesAndStopWithoutStartDrains) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("tri", TriangleFixture()).ok());
  QueryRequest req;
  req.workspace = "tri";
  req.k = 2;
  {
    // Queued before Start, served after.
    QueryServer server(&registry, QuietOptions());
    auto future = server.Submit(req);
    server.Start();
    EXPECT_TRUE(future.get().status.ok());
    server.Stop();
  }
  {
    // Never started: Stop must still resolve the queued future cleanly.
    QueryServer server(&registry, QuietOptions());
    auto future = server.Submit(req);
    server.Stop();
    EXPECT_TRUE(future.get().status.IsResourceExhausted());
  }
}

// ---------------------------------------------------------------------------
// Transport session

TEST(ServeSessionTest, WorkedSessionInOrder) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("default", TriangleFixture()).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();

  std::istringstream in(
      "ping\n"
      "# comment, then a blank line, both skipped\n"
      "\n"
      "op=enum k=2 id=q1\n"
      "op=enum k=2 r=0.5 id=q2\n"   // unservable r on an unscored workspace
      "op=bogus k=2 id=q3\n"        // malformed
      "list\n"
      "stats\n"
      "quit\n"
      "op=enum k=2 id=after-quit\n");
  std::ostringstream out;
  SessionReport report = ServeSession(&server, &registry, in, out);
  server.Stop();

  EXPECT_EQ(report.queries_submitted, 2u);
  EXPECT_EQ(report.parse_errors, 1u);
  EXPECT_EQ(report.admin_commands, 4u);  // ping, list, stats, quit
  EXPECT_EQ(report.responses_written, 3u);

  std::vector<std::string> lines;
  std::istringstream parsed(out.str());
  std::string line;
  while (std::getline(parsed, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 6u);  // pong, q1, q2, q3, list, stats
  EXPECT_THAT(lines[0], HasSubstr("\"pong\":true"));
  EXPECT_THAT(lines[1], HasSubstr("\"id\":\"q1\""));
  EXPECT_THAT(lines[1], HasSubstr("\"status\":\"OK\""));
  EXPECT_THAT(lines[2], HasSubstr("\"id\":\"q2\""));
  EXPECT_THAT(lines[2], HasSubstr("\"status\":\"INVALID_ARGUMENT\""));
  EXPECT_THAT(lines[3], HasSubstr("\"id\":\"q3\""));
  EXPECT_THAT(lines[3], HasSubstr("\"status\":\"INVALID_ARGUMENT\""));
  EXPECT_THAT(lines[4], HasSubstr("\"name\":\"default\""));
  EXPECT_THAT(lines[5], HasSubstr("\"received\":2"));
}

TEST(ServeSessionTest, MalformedLinesNeverCrashAndAnswerInOrder) {
  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("default", TriangleFixture()).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();

  std::istringstream in(
      "op=enum\n"
      "k=\n"
      "= = =\n"
      "op=max k=999999999999999999999\n"
      "op=enum k=2 ws=missing id=q\n");
  std::ostringstream out;
  SessionReport report = ServeSession(&server, &registry, in, out);
  server.Stop();

  // Four parse errors + one clean NOT_FOUND execution, all answered.
  EXPECT_EQ(report.parse_errors, 4u);
  EXPECT_EQ(report.queries_submitted, 1u);
  EXPECT_EQ(report.responses_written, 5u);
  EXPECT_THAT(out.str(), HasSubstr("\"status\":\"NOT_FOUND\""));
}

// ---------------------------------------------------------------------------
// Integration: concurrent clients over a scored multi-r snapshot

struct ClientResult {
  QueryRequest request;
  QueryResponse response;
};

TEST(ServerIntegrationTest, ConcurrentClientsMatchDirectLibraryCalls) {
  // A scored workspace prepared at the loose end of a distance grid:
  // serves any r in [0.2, 0.5] and any k >= 2 (docs/ARCHITECTURE.md).
  Dataset dataset = test::MakeRandomGeo(220, 900, /*seed=*/7);
  SimilarityOracle oracle = dataset.MakeOracle(0.5);
  PipelineOptions prep;
  prep.k = 2;
  prep.score_cover = 0.2;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());
  ASSERT_NE(ws.score_cover, ws.threshold);

  TempFile snap("server_integration.krws");
  ASSERT_TRUE(SaveWorkspaceSnapshot(ws, snap.path()).ok());

  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.AddFromSnapshot("geo", snap.path()).ok());
  auto base = registry.Find("geo");
  ASSERT_NE(base, nullptr);

  // Served results must match direct calls whether or not duplicate cells
  // share one execution, and with 2 search threads per query, where each
  // mine stage thread keeps its own pool between queries.
  for (int config = 0; config < 4; ++config) {
    const bool coalesce = config % 2 == 0;
    const uint32_t threads = config < 2 ? 1 : 2;
    SCOPED_TRACE(std::string(coalesce ? "coalesce on" : "coalesce off") +
                 ", threads=" + std::to_string(threads));
    ServerOptions options;
    options.queue_capacity = 32;
    options.derive_threads = 2;
    options.mine_threads = 2;
    options.coalesce = coalesce;
    options.parallel.num_threads = threads;
    QueryServer server(&registry, options);
    server.Start();
    server.Pause();  // admit everything first so duplicate cells overlap

    // Two clients, five queries each — duplicate (k,r) cells across clients.
    auto MakeQuery = [](QueryKind kind, uint32_t k, double r,
                        const std::string& id) {
      QueryRequest q;
      q.workspace = "geo";
      q.kind = kind;
      q.k = k;
      q.r = r;
      q.id = id;
      q.timeout_seconds = 60.0;
      return q;
    };
    std::vector<QueryRequest> client_a = {
        MakeQuery(QueryKind::kEnumerate, 2, 0.5, "a1"),
        MakeQuery(QueryKind::kEnumerate, 3, 0.4, "a2"),
        MakeQuery(QueryKind::kMaximum, 2, 0.3, "a3"),
        MakeQuery(QueryKind::kEnumerate, 4, 0.25, "a4"),
        MakeQuery(QueryKind::kDerive, 2, 0.2, "a5"),
    };
    std::vector<QueryRequest> client_b = {
        MakeQuery(QueryKind::kEnumerate, 3, 0.4, "b1"),   // dup of a2
        MakeQuery(QueryKind::kMaximum, 2, 0.3, "b2"),     // dup of a3
        MakeQuery(QueryKind::kEnumerate, 2, 0.35, "b3"),
        MakeQuery(QueryKind::kMaximum, 3, 0.5, "b4"),
        MakeQuery(QueryKind::kEnumerate, 3, 0.4, "b5"),   // dup of a2 again
    };

    std::mutex results_mu;
    std::vector<ClientResult> results;
    auto RunClient = [&](const std::vector<QueryRequest>& queries) {
      std::vector<std::pair<QueryRequest, std::shared_future<QueryResponse>>>
          pending;
      for (const auto& q : queries) pending.emplace_back(q, server.Submit(q));
      for (auto& [q, future] : pending) {
        QueryResponse r = future.get();
        std::lock_guard<std::mutex> lock(results_mu);
        results.push_back({q, std::move(r)});
      }
    };
    std::thread ta(RunClient, std::ref(client_a));
    std::thread tb(RunClient, std::ref(client_b));
    // Let both clients admit all 10 queries, then release the workers.
    while (server.Stats().received < 10) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.Resume();
    ta.join();
    tb.join();
    server.Stop();

    ASSERT_EQ(results.size(), 10u);
    // Every response is bit-identical to the direct library call on the same
    // loaded substrate: derive the cell, run the same engine preset.
    for (const auto& [request, response] : results) {
      SCOPED_TRACE(request.id);
      ASSERT_TRUE(response.status.ok()) << response.status.message();
      EXPECT_EQ(response.workspace_version, base->version);

      PreparedWorkspace derived;
      const std::vector<ComponentContext>* components = &base->components;
      if (request.k != base->k || request.r != base->threshold) {
        PipelineOptions pipe;
        pipe.k = request.k;
        ASSERT_TRUE(DeriveWorkspace(*base, request.k, request.r, pipe, &derived)
                        .ok());
        components = &derived.components;
      }
      switch (request.kind) {
        case QueryKind::kEnumerate: {
          MaximalCoresResult direct =
              EnumerateMaximalCores(*components, AdvEnumOptions(request.k));
          ASSERT_TRUE(direct.status.ok());
          EXPECT_EQ(response.cores, direct.cores);
          EXPECT_EQ(response.count, direct.cores.size());
          break;
        }
        case QueryKind::kMaximum: {
          MaximumCoreResult direct =
              FindMaximumCore(*components, AdvMaxOptions(request.k));
          ASSERT_TRUE(direct.status.ok());
          if (direct.best.empty()) {
            EXPECT_TRUE(response.cores.empty());
          } else {
            ASSERT_EQ(response.cores.size(), 1u);
            // Among equal-sized maxima, a multi-threaded search may keep
            // another one (MaxOptions::parallel).
            if (threads == 1) {
              EXPECT_EQ(response.cores[0], direct.best);
            }
          }
          EXPECT_EQ(response.count, direct.best.size());
          break;
        }
        case QueryKind::kDerive: {
          uint64_t vertices = 0;
          for (const auto& c : *components) vertices += c.size();
          EXPECT_EQ(response.count, vertices);
          EXPECT_EQ(response.num_components, components->size());
          break;
        }
      }
    }

    // The duplicate cells were admitted while paused, so with coalescing on
    // they must have coalesced: b1/b5 onto a2's job and b2 onto a3's (in
    // some leader order). With it off, every request runs its own job.
    ServerStatsSnapshot stats = server.Stats();
    if (coalesce) {
      EXPECT_GT(stats.coalesce_hits, 0u);
    } else {
      EXPECT_EQ(stats.coalesce_hits, 0u);
    }
    EXPECT_EQ(stats.coalesce_hits + stats.admitted, 10u);
    EXPECT_EQ(stats.completed_ok, 10u);
    uint64_t coalesced_responses = 0;
    for (const auto& r : results) {
      if (r.response.coalesced) ++coalesced_responses;
    }
    EXPECT_EQ(coalesced_responses, stats.coalesce_hits);
  }
}

TEST(ServerIntegrationTest, DeadlineExpiredRequestFailsWhileOthersComplete) {
  Dataset dataset = test::MakeRandomGeo(150, 600, /*seed=*/11);
  SimilarityOracle oracle = dataset.MakeOracle(0.5);
  PipelineOptions prep;
  prep.k = 2;
  prep.score_cover = 0.25;
  PreparedWorkspace ws;
  ASSERT_TRUE(PrepareWorkspace(dataset.graph, oracle, prep, &ws).ok());

  WorkspaceRegistry registry;
  ASSERT_TRUE(registry.Add("geo", std::move(ws)).ok());
  QueryServer server(&registry, QuietOptions());
  server.Start();
  server.Pause();

  auto Query = [](uint32_t k, double r, double timeout) {
    QueryRequest q;
    q.workspace = "geo";
    q.k = k;
    q.r = r;
    q.timeout_seconds = timeout;
    return q;
  };
  auto doomed = server.Submit(Query(2, 0.5, 1e-4));
  auto fine1 = server.Submit(Query(3, 0.4, 60.0));
  auto fine2 = server.Submit(Query(2, 0.3, 60.0));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  server.Resume();

  EXPECT_TRUE(doomed.get().status.IsDeadlineExceeded());
  EXPECT_TRUE(fine1.get().status.ok());
  EXPECT_TRUE(fine2.get().status.ok());
  ServerStatsSnapshot stats = server.Stats();
  EXPECT_EQ(stats.deadline_expired, 1u);
  EXPECT_EQ(stats.completed_ok, 2u);
  server.Stop();
}

}  // namespace
}  // namespace krcore
