#include "server/query_server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "util/failpoint.h"
#include "util/json.h"
#include "util/timer.h"

namespace krcore {
namespace {

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0.0;
  return std::chrono::duration<double>(to - from).count();
}

/// Coalescing identity of a request: workspace, op, k, the exact bit
/// pattern of the resolved r, and the response limit. Two requests with
/// equal keys are served by one derivation + one mining pass.
std::string CoalesceKey(const QueryRequest& request) {
  uint64_t r_bits = 0;
  static_assert(sizeof(r_bits) == sizeof(request.r));
  std::memcpy(&r_bits, &request.r, sizeof(r_bits));
  return request.workspace + '\x1f' + QueryKindName(request.kind) + '\x1f' +
         std::to_string(request.k) + '\x1f' + std::to_string(r_bits) +
         '\x1f' + std::to_string(request.limit);
}

void AppendStage(std::string* out, const char* name,
                 const ServerStageStats& s) {
  *out += "\"";
  *out += name;
  *out += "\":{\"entered\":" + std::to_string(s.entered) +
          ",\"completed\":" + std::to_string(s.completed) +
          ",\"failed\":" + std::to_string(s.failed) +
          ",\"wait_seconds\":" + JsonDouble(s.wait_seconds) +
          ",\"service_seconds\":" + JsonDouble(s.service_seconds) +
          ",\"max_queue_depth\":" + std::to_string(s.max_queue_depth) + "}";
}

}  // namespace

std::string ServerStatsSnapshot::ToJson() const {
  std::string out = "{";
  out += "\"received\":" + std::to_string(received);
  out += ",\"admitted\":" + std::to_string(admitted);
  out += ",\"coalesce_hits\":" + std::to_string(coalesce_hits);
  out += ",\"rejected_queue_full\":" + std::to_string(rejected_queue_full);
  out += ",\"rejected_unservable\":" + std::to_string(rejected_unservable);
  out += ",\"deadline_expired\":" + std::to_string(deadline_expired);
  out += ",\"injected_faults\":" + std::to_string(injected_faults);
  out += ",\"completed_ok\":" + std::to_string(completed_ok);
  out += ",\"queue_depth\":" + std::to_string(queue_depth);
  out += ",";
  AppendStage(&out, "derive", derive);
  out += ",";
  AppendStage(&out, "mine", mine);
  out += ",\"workspaces\":[";
  bool first = true;
  for (const auto& w : workspaces) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"" + JsonEscape(w.name) + "\"";
    out += ",\"snapshot_version\":" + std::to_string(w.snapshot_version);
    out += ",\"load_seconds\":" + JsonDouble(w.load_seconds);
    out += ",\"lazy\":";
    out += w.lazy_loaded ? "true" : "false";
    out += ",\"mapped\":";
    out += w.mapped ? "true" : "false";
    out += ",\"live\":";
    out += w.live ? "true" : "false";
    if (w.live) {
      out += ",\"epoch\":" + std::to_string(w.epoch);
      out += ",\"staleness_batches\":" + std::to_string(w.staleness_batches);
      out += ",\"staleness_seconds\":" + JsonDouble(w.staleness_seconds);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

QueryServer::QueryServer(const WorkspaceRegistry* registry,
                         const ServerOptions& options)
    : registry_(registry), options_(options) {}

QueryServer::~QueryServer() { Stop(); }

void QueryServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  stop_workers_ = false;
  stop_accepting_ = false;
  uint32_t derive_threads = std::max(1u, options_.derive_threads);
  uint32_t mine_threads = std::max(1u, options_.mine_threads);
  workers_.reserve(derive_threads + mine_threads);
  for (uint32_t i = 0; i < derive_threads; ++i) {
    workers_.emplace_back([this] { DeriveLoop(); });
  }
  for (uint32_t i = 0; i < mine_threads; ++i) {
    workers_.emplace_back([this] { MineLoop(); });
  }
}

void QueryServer::Stop() {
  std::vector<std::shared_ptr<Job>> orphaned;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (stop_accepting_ && workers_.empty()) return;  // already stopped
    stop_accepting_ = true;
    paused_ = false;
    if (!started_) {
      // No workers will ever drain the queues; fail the queued jobs below
      // (outside the lock) so their futures resolve.
      orphaned.assign(derive_queue_.begin(), derive_queue_.end());
      orphaned.insert(orphaned.end(), mine_queue_.begin(), mine_queue_.end());
      derive_queue_.clear();
      mine_queue_.clear();
    }
    derive_cv_.notify_all();
    mine_cv_.notify_all();
  }
  for (const auto& job : orphaned) {
    QueryResponse response;
    response.status = Status::ResourceExhausted("server stopped");
    Respond(job, std::move(response));
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_cv_.wait(lock, [this] { return jobs_inflight_ == 0; });
    stop_workers_ = true;
    derive_cv_.notify_all();
    mine_cv_.notify_all();
  }
  for (auto& worker : workers_) worker.join();
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  started_ = false;
}

void QueryServer::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void QueryServer::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  derive_cv_.notify_all();
  mine_cv_.notify_all();
}

void QueryServer::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return jobs_inflight_ == 0; });
}

std::shared_future<QueryResponse> QueryServer::Reject(
    const QueryRequest& request, Status status) {
  QueryResponse response;
  response.id = request.id;
  response.kind = request.kind;
  response.k = request.k;
  response.r = request.has_r() ? request.r : 0.0;
  response.status = std::move(status);
  std::promise<QueryResponse> promise;
  promise.set_value(std::move(response));
  return promise.get_future().share();
}

std::shared_future<QueryResponse> QueryServer::Submit(
    const QueryRequest& request) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.received;
  }
  if (Failpoints::ShouldFail("server/admit")) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.injected_faults;
    return Reject(request,
                  Status::Internal("injected fault at failpoint "
                                   "'server/admit'"));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_accepting_) {
      ++stats_.rejected_queue_full;
      return Reject(request, Status::ResourceExhausted("server is stopping"));
    }
  }

  // Resolve the target workspace and the effective r before taking a queue
  // slot: an unservable request never occupies capacity.
  std::shared_ptr<const PreparedWorkspace> base = registry_->Find(
      request.workspace);
  if (!base) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_unservable;
    return Reject(request, Status::NotFound("workspace '" +
                                            request.workspace +
                                            "' is not registered"));
  }
  QueryRequest resolved = request;
  if (!resolved.has_r()) resolved.r = base->threshold;
  if (resolved.k == 0 || !std::isfinite(resolved.r)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_unservable;
    return Reject(resolved, Status::InvalidArgument(
                                "query needs k >= 1 and a finite r"));
  }
  WorkspaceRegistry::Resolved resolution;
  if (Status s = registry_->Resolve(resolved.workspace, resolved.k,
                                    resolved.r, &resolution);
      !s.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected_unservable;
    return Reject(resolved, std::move(s));
  }
  base = std::move(resolution.ws);

  Waiter waiter;
  waiter.id = resolved.id;
  waiter.admitted_at = Clock::now();
  std::shared_future<QueryResponse> future =
      waiter.promise.get_future().share();
  const std::string key = CoalesceKey(resolved);

  std::unique_lock<std::mutex> lock(mu_);
  if (options_.coalesce) {
    auto it = inflight_.find(key);
    if (it != inflight_.end()) {
      // Identical cell already admitted and not yet responded: share its
      // execution. Respond() erases the map entry under mu_ before
      // fulfilling anyone, so this attach is race-free.
      waiter.coalesced = true;
      ++stats_.coalesce_hits;
      it->second->waiters.push_back(std::move(waiter));
      return future;
    }
  }
  if (jobs_inflight_ >= options_.queue_capacity) {
    ++stats_.rejected_queue_full;
    lock.unlock();
    return Reject(resolved,
                  Status::ResourceExhausted(
                      "server queue is full (" +
                      std::to_string(options_.queue_capacity) +
                      " queries in flight)"));
  }

  auto job = std::make_shared<Job>();
  job->request = std::move(resolved);
  const double timeout = job->request.timeout_seconds > 0.0
                             ? job->request.timeout_seconds
                             : options_.default_timeout_seconds;
  job->deadline = timeout > 0.0 ? Deadline::AfterSeconds(timeout)
                                : Deadline::Infinite();
  job->key = key;
  job->base = std::move(base);
  job->live = resolution.live;
  job->epoch = resolution.epoch;
  job->staleness = resolution.staleness;
  job->needs_derive = job->request.k != job->base->k ||
                      job->request.r != job->base->threshold;
  job->derive_enqueued_at = waiter.admitted_at;
  job->waiters.push_back(std::move(waiter));
  inflight_[key] = job;
  ++jobs_inflight_;
  ++stats_.admitted;
  stats_.queue_depth = jobs_inflight_;
  derive_queue_.push_back(std::move(job));
  stats_.derive.max_queue_depth =
      std::max<uint64_t>(stats_.derive.max_queue_depth, derive_queue_.size());
  derive_cv_.notify_one();
  return future;
}

QueryResponse QueryServer::Execute(const QueryRequest& request) {
  return Submit(request).get();
}

bool QueryServer::NextJob(std::deque<std::shared_ptr<Job>>* queue,
                          std::condition_variable* cv,
                          std::shared_ptr<Job>* out) {
  std::unique_lock<std::mutex> lock(mu_);
  cv->wait(lock, [&] {
    return stop_workers_ || (!paused_ && !queue->empty());
  });
  if (stop_workers_) return false;
  *out = std::move(queue->front());
  queue->pop_front();
  return true;
}

void QueryServer::DeriveLoop() {
  std::shared_ptr<Job> job;
  while (NextJob(&derive_queue_, &derive_cv_, &job)) {
    const Clock::time_point picked = Clock::now();
    job->exec_started_at = picked;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.derive.entered;
      stats_.derive.wait_seconds +=
          SecondsBetween(job->derive_enqueued_at, picked);
    }
    if (Failpoints::ShouldFail("server/derive")) {
      job->injected_fault = true;
      QueryResponse response;
      response.status =
          Status::Internal("injected fault at failpoint 'server/derive'");
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.derive.failed;
      }
      Respond(job, std::move(response));
      job.reset();
      continue;
    }
    if (job->deadline.Expired()) {
      QueryResponse response;
      response.status = Status::DeadlineExceeded(
          "deadline expired before the derive stage");
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.derive.failed;
      }
      Respond(job, std::move(response));
      job.reset();
      continue;
    }
    Status derive_status;
    if (job->needs_derive) {
      PipelineOptions pipe;
      pipe.k = job->request.k;
      pipe.deadline = job->deadline;
      derive_status = DeriveWorkspace(*job->base, job->request.k,
                                      job->request.r, pipe, &job->derived);
    }
    job->derive_seconds = SecondsBetween(picked, Clock::now());
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.derive.service_seconds += job->derive_seconds;
      if (derive_status.ok()) {
        ++stats_.derive.completed;
        job->mine_enqueued_at = Clock::now();
        mine_queue_.push_back(job);
        stats_.mine.max_queue_depth = std::max<uint64_t>(
            stats_.mine.max_queue_depth, mine_queue_.size());
        mine_cv_.notify_one();
      } else {
        ++stats_.derive.failed;
      }
    }
    if (!derive_status.ok()) {
      QueryResponse response;
      response.status = std::move(derive_status);
      Respond(job, std::move(response));
    }
    job.reset();
  }
}

void QueryServer::ExecuteJob(Job* job, QueryResponse* response) {
  const std::vector<ComponentContext>& components =
      job->needs_derive ? job->derived.components : job->base->components;
  switch (job->request.kind) {
    case QueryKind::kEnumerate: {
      EnumOptions opts = options_.enumerate;
      opts.k = job->request.k;
      opts.deadline = job->deadline;
      opts.parallel = options_.parallel;
      MaximalCoresResult result = EnumerateMaximalCores(components, opts);
      response->status = std::move(result.status);
      response->stats = result.stats;
      response->count = result.cores.size();
      if (job->request.limit > 0 &&
          result.cores.size() > job->request.limit) {
        result.cores.resize(static_cast<size_t>(job->request.limit));
      }
      response->cores = std::move(result.cores);
      break;
    }
    case QueryKind::kMaximum: {
      MaxOptions opts = options_.maximum;
      opts.k = job->request.k;
      opts.deadline = job->deadline;
      opts.parallel = options_.parallel;
      MaximumCoreResult result = FindMaximumCore(components, opts);
      response->status = std::move(result.status);
      response->stats = result.stats;
      response->count = result.best.size();
      if (!result.best.empty()) {
        response->cores.push_back(std::move(result.best));
      }
      break;
    }
    case QueryKind::kDerive: {
      // The substrate itself is the answer: report the cell's size. The
      // derive stage already did the work (or the base cell was asked for).
      VertexId vertices = 0;
      for (const auto& c : components) vertices += c.size();
      response->count = vertices;
      response->num_components = components.size();
      response->stats.components = components.size();
      break;
    }
  }
}

void QueryServer::MineLoop() {
  std::shared_ptr<Job> job;
  while (NextJob(&mine_queue_, &mine_cv_, &job)) {
    const Clock::time_point picked = Clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.mine.entered;
      stats_.mine.wait_seconds +=
          SecondsBetween(job->mine_enqueued_at, picked);
    }
    QueryResponse response;
    if (Failpoints::ShouldFail("server/mine")) {
      job->injected_fault = true;
      response.status =
          Status::Internal("injected fault at failpoint 'server/mine'");
    } else if (job->deadline.Expired()) {
      response.status = Status::DeadlineExceeded(
          "deadline expired before the mine stage");
    } else {
      ExecuteJob(job.get(), &response);
    }
    const double service = SecondsBetween(picked, Clock::now());
    response.mine_seconds = service;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.mine.service_seconds += service;
      if (response.status.ok()) {
        ++stats_.mine.completed;
      } else {
        ++stats_.mine.failed;
      }
    }
    Respond(job, std::move(response));
    job.reset();
  }
}

void QueryServer::Respond(const std::shared_ptr<Job>& job,
                          QueryResponse response) {
  // Shared payload fields every waiter sees.
  response.kind = job->request.kind;
  response.k = job->request.k;
  response.r = job->request.r;
  response.workspace_version =
      job->base ? job->base->version : 0;
  response.live = job->live;
  response.epoch = job->epoch;
  response.staleness_batches = job->staleness.batches;
  response.staleness_seconds = job->staleness.seconds;
  response.derive_seconds = job->derive_seconds;
  if (Failpoints::ShouldFail("server/respond")) {
    job->injected_fault = true;
    QueryResponse failed;
    failed.kind = response.kind;
    failed.k = response.k;
    failed.r = response.r;
    failed.status =
        Status::Internal("injected fault at failpoint 'server/respond'");
    response = std::move(failed);
  }
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Erase the coalescing entry first: after this, no Submit can attach.
    auto it = inflight_.find(job->key);
    if (it != inflight_.end() && it->second == job) inflight_.erase(it);
    waiters = std::move(job->waiters);
    job->waiters.clear();
    --jobs_inflight_;
    stats_.queue_depth = jobs_inflight_;
    // Response-level counters fan out with the coalesced waiters: ten OK
    // responses served by seven executions count ten here.
    if (response.status.ok()) {
      stats_.completed_ok += waiters.size();
    } else if (response.status.IsDeadlineExceeded()) {
      stats_.deadline_expired += waiters.size();
    }
    if (job->injected_fault) ++stats_.injected_faults;
    drained_cv_.notify_all();
  }
  for (auto& waiter : waiters) {
    QueryResponse copy = response;
    copy.id = waiter.id;
    copy.coalesced = waiter.coalesced;
    copy.wait_seconds =
        SecondsBetween(waiter.admitted_at, job->exec_started_at);
    waiter.promise.set_value(std::move(copy));
  }
}

ServerStatsSnapshot QueryServer::Stats() const {
  ServerStatsSnapshot snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot = stats_;
  }
  // Registry listing outside mu_ — it takes the registry's own lock.
  snapshot.workspaces = registry_->List();
  return snapshot;
}

}  // namespace krcore
