#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "control/fault_campaign.h"
#include "core/scenario.h"
#include "core/scratch.h"
#include "obs/obs.h"
#include "sim/fault_scheduler.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace coolopt::service {

namespace {

// A request line longer than wire.h's kMaxLineBytes is a protocol
// violation: the connection is closed after an explanatory bad_request
// response, never buffered past the bound.

/// Reader/accept poll granularity: how quickly threads notice stop flags.
/// Also the telemetry mailbox flush granularity, which is why the
/// subscribe interval floor (kMinTickIntervalMs) sits well above it.
constexpr int kPollMs = 50;

/// Broadcaster wakeup granularity: due-time scan period. Finer than the
/// interval floor so tick cadence error stays small.
constexpr int kBroadcastPollMs = 25;

bool send_all(int fd, std::string_view bytes) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

size_t priority_limit(Priority priority, size_t capacity) {
  switch (priority) {
    case Priority::kHigh:
      return capacity;
    case Priority::kNormal:
      return std::max<size_t>(1, capacity - capacity / 8);
    case Priority::kLow:
      return std::max<size_t>(1, capacity / 2);
  }
  return capacity;
}

}  // namespace

PlanningService::PlanningService(ServiceConfig config)
    : config_(std::move(config)), queue_(config_.queue_capacity) {
  if (config_.workers == 0) {
    config_.workers = util::ThreadPool::default_workers();
  }
  if (config_.model != nullptr) {
    plan_engine_ =
        std::make_shared<core::PlanEngine>(config_.model, config_.planner);
  } else {
    eval_engine_ = std::make_unique<control::EvalEngine>(config_.eval);
    plan_engine_ = eval_engine_->plan_engine();
  }
  if (config_.fleet_shards > 0) {
    fleet::FleetOptions fleet_options;
    fleet_options.planner = config_.planner;
    fleet_engine_ = std::make_unique<fleet::FleetEngine>(
        fleet::partition_room(plan_engine_->model(), config_.fleet_shards),
        fleet_options);
    shard_status_.assign(fleet_engine_->shard_count(),
                         fleet::to_string(fleet::ShardStatus::kOk));
  }
  if (config_.chaos.enabled()) {
    chaos_ = std::make_unique<ChaosInjector>(config_.chaos);
  }
  info_.machines = plan_engine_->model().size();
  info_.capacity_files_s = plan_engine_->aggregates().total_capacity;
  info_.queue_capacity = queue_.capacity();
  info_.workers = config_.workers;
  info_.sim_backed = eval_engine_ != nullptr;
  info_.fleet_shards = config_.fleet_shards;
}

PlanningService::~PlanningService() { stop(); }

void PlanningService::start() {
  if (running_.exchange(true)) return;
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    running_.store(false);
    throw std::runtime_error("socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    throw std::runtime_error(
        util::strf("bad bind address \"%s\"", config_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    running_.store(false);
    throw std::runtime_error(util::strf(
        "cannot listen on %s:%u: %s", config_.host.c_str(),
        static_cast<unsigned>(config_.port), why.c_str()));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
  workers_.reserve(config_.workers);
  for (size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  stop_broadcaster_.store(false, std::memory_order_release);
  broadcaster_thread_ = std::thread([this] { broadcaster_loop(); });
}

void PlanningService::stop() {
  if (!running_.exchange(false)) return;
  obs::count("service.drains");

  // 1. New requests shed with shed_draining; new connections stop.
  draining_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // 2. Finish the admitted backlog. close() overrides a pause and wakes
  //    every worker; they drain the queue, write every response, and exit.
  queue_.close();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  // 2b. Stop streaming: join the broadcaster, then write one best-effort
  //     closing tick per live subscriber directly (the workers have
  //     exited, so the direct write cannot interleave with a response).
  stop_broadcaster_.store(true, std::memory_order_release);
  subs_cv_.notify_all();
  if (broadcaster_thread_.joinable()) broadcaster_thread_.join();
  {
    std::vector<std::shared_ptr<Subscription>> subs;
    {
      std::lock_guard<std::mutex> lock(subs_mu_);
      subs.swap(subs_);
    }
    obs::MetricsDelta closing;
    obs::MetricsRegistry* registry = obs::metrics();
    if (registry != nullptr) closing.to_sequence = registry->snapshot_sequence();
    for (const std::shared_ptr<Subscription>& sub : subs) {
      if (sub->done || !sub->session->open.load(std::memory_order_acquire)) {
        continue;
      }
      flush_pending_tick(sub->session);
      write_line(sub->session, encode_telemetry_tick(sub->id, sub->ticks_sent + 1,
                                                     closing, /*closing=*/true));
    }
  }
  obs::gauge_set("service.telemetry.subscribers", 0.0);

  // 3. Tear down connections: shutdown() unblocks any reader mid-recv,
  //    then the reader threads exit on their stop flag / EOF.
  stop_readers_.store(true, std::memory_order_release);
  std::vector<Connection> connections;
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    connections.swap(connections_);
  }
  for (const Connection& connection : connections) {
    std::lock_guard<std::mutex> lock(connection.session->write_mu);
    if (connection.session->open.load(std::memory_order_acquire)) {
      ::shutdown(connection.session->fd, SHUT_RDWR);
    }
  }
  for (Connection& connection : connections) connection.reader.join();
  obs::gauge_set("service.connections", 0.0);
  obs::gauge_set("service.queue.high_water",
                 static_cast<double>(queue_.high_water()));
}

void PlanningService::pause_dispatch(bool paused) {
  queue_.set_paused(paused);
}

PlanningService::Stats PlanningService::stats() const {
  Stats s;
  s.admitted = obs::load_counter(stats_.admitted);
  s.shed = obs::load_counter(stats_.shed);
  s.bad_requests = obs::load_counter(stats_.bad_requests);
  s.queue_high_water = queue_.high_water();
  s.subscriptions = obs::load_counter(stats_.subscriptions);
  s.telemetry_ticks = obs::load_counter(stats_.telemetry_ticks);
  s.dropped_ticks = obs::load_counter(stats_.dropped_ticks);
  s.deadline_expired = obs::load_counter(stats_.deadline_expired);
  return s;
}

// --- accept ---

void PlanningService::accept_loop() {
  pollfd pfd{listen_fd_, POLLIN, 0};
  while (!draining_.load(std::memory_order_acquire)) {
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    reap_closed_connections();
    if (ready == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Chaos: an accepted-then-dropped connection, the classic LB/network
    // blip. No bytes are served; the client sees a clean EOF and retries.
    if (chaos_ != nullptr && chaos_->drop_connection()) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    size_t active = 0;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      active = connections_.size();
    }
    if (active >= config_.max_connections) {
      send_all(fd, encode_error(0, Verb::kPing, kErrTooManyConnections,
                                util::strf("connection limit %zu reached",
                                           config_.max_connections)) +
                       "\n");
      ::close(fd);
      obs::count("service.connections.rejected");
      continue;
    }

    auto session = std::make_shared<Session>();
    session->fd = fd;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      session->id = next_session_id_++;
      connections_.push_back(
          {session, std::thread([this, session] { reader_loop(session); })});
      obs::gauge_set("service.connections",
                     static_cast<double>(connections_.size()));
    }
    obs::count("service.connections.accepted");
  }
}

void PlanningService::reap_closed_connections() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  const size_t before = connections_.size();
  for (auto it = connections_.begin(); it != connections_.end();) {
    // Only the reader clears `open`, as its last act, so this join waits
    // out at most the reader's return.
    if (it->session->open.load(std::memory_order_acquire)) {
      ++it;
      continue;
    }
    it->reader.join();
    it = connections_.erase(it);
  }
  if (connections_.size() != before) {
    obs::gauge_set("service.connections",
                   static_cast<double>(connections_.size()));
  }
}

// --- readers: framing, parsing, admission ---

void PlanningService::reader_loop(std::shared_ptr<Session> session) {
  std::string buffer;
  char chunk[4096];
  pollfd pfd{session->fd, POLLIN, 0};
  while (!stop_readers_.load(std::memory_order_acquire)) {
    const int ready = ::poll(&pfd, 1, kPollMs);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Deliver any telemetry tick the broadcaster parked for this session.
    // Happens at poll granularity whether or not request bytes arrived,
    // and blocks only THIS connection's reader if the peer reads slowly.
    flush_pending_tick(session);
    if (ready == 0) continue;
    const ssize_t n = ::recv(session->fd, chunk, sizeof chunk, 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    // Chaos: a slow network path. Stalls only this connection's reader.
    if (chaos_ != nullptr) {
      uint64_t delay_ms = 0;
      if (chaos_->delay_read(delay_ms)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      }
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t start = 0;
    for (;;) {
      const size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string_view line(buffer.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!util::trim(line).empty()) handle_line(session, line);
      start = nl + 1;
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      write_line(session,
                 encode_error(0, Verb::kPing, kErrBadRequest,
                              util::strf("request line exceeds %zu bytes",
                                         kMaxLineBytes)));
      break;
    }
  }
  // Serialized with write_line so a worker never writes to (or past)
  // a closed — possibly reused — descriptor.
  std::lock_guard<std::mutex> lock(session->write_mu);
  if (session->open.exchange(false)) ::close(session->fd);
}

void PlanningService::handle_line(const std::shared_ptr<Session>& session,
                                  std::string_view line) {
  WireRequest request;
  std::string error;
  if (!parse_request(line, request, error)) {
    obs::count("service.requests.rejected", &stats_.bad_requests);
    write_line(session,
               encode_error(request.id, request.verb, kErrBadRequest, error));
    return;
  }
  if (const char* needs = missing_backend(request.verb, info_)) {
    write_line(session,
               encode_error(request.id, request.verb, kErrUnsupportedVerb,
                            util::strf("verb %s needs %s",
                                       to_string(request.verb), needs)));
    return;
  }
  if (answered_on_reader(request.verb)) {
    if (request.verb == Verb::kSubscribe) {
      // Control plane: never admitted, so streaming cannot contend with
      // solves.
      handle_subscribe(session, request);
      return;
    }
    // Probe plane: never queued, so liveness checks keep answering under a
    // saturated admission queue and during a drain (reported as
    // draining:true, not shed).
    HealthInfo health;
    health.queue_depth = queue_.size();
    health.queue_capacity = queue_.capacity();
    health.workers = config_.workers;
    health.draining = draining_.load(std::memory_order_acquire);
    if (fleet_engine_ != nullptr) {
      std::lock_guard<std::mutex> lock(health_mu_);
      health.shard_status = shard_status_;
    }
    obs::count("service.health.requests");
    write_line(session, encode_health_response(request.id, health));
    return;
  }

  auto shed = [&](const char* code, const char* why, size_t depth) {
    obs::count("service.requests.shed", &stats_.shed);
    write_line(session, encode_error(request.id, request.verb, code, why,
                                     depth));
  };

  if (draining_.load(std::memory_order_acquire)) {
    shed(kErrShedDraining, "server is draining", queue_.size());
    return;
  }
  // The priority share is checked under the queue's lock, together with
  // the push, so concurrent readers cannot overshoot it.
  const Priority priority = request.priority;
  const size_t limit = priority_limit(priority, queue_.capacity());
  size_t depth = 0;
  // Counted under the queue's lock, before a worker can pop the job: a
  // client never holds a response that stats() has not yet admitted.
  const auto count_admitted = [this] {
    obs::count("service.requests.admitted", &stats_.admitted);
  };
  switch (queue_.try_push(
      Job{session, std::move(request), std::chrono::steady_clock::now()},
      limit, &depth, count_admitted)) {
    case PushResult::kOk:
      obs::gauge_set("service.queue.depth", static_cast<double>(depth));
      break;
    case PushResult::kFull:
      if (limit == queue_.capacity()) {
        shed(kErrShedQueueFull, "admission queue is full", depth);
      } else {
        shed(kErrShedPriority,
             util::strf("queue depth %zu is beyond the %s-priority share %zu",
                        depth, to_string(priority), limit)
                 .c_str(),
             depth);
      }
      break;
    case PushResult::kClosed:
      shed(kErrShedDraining, "server is draining", depth);
      break;
  }
}

// --- telemetry streaming (subscribe verb) ---

void PlanningService::handle_subscribe(const std::shared_ptr<Session>& session,
                                       const WireRequest& request) {
  if (draining_.load(std::memory_order_acquire)) {
    obs::count("service.requests.shed", &stats_.shed);
    write_line(session, encode_error(request.id, request.verb, kErrShedDraining,
                                     "server is draining", queue_.size()));
    return;
  }
  const uint64_t interval_ms =
      std::clamp(request.interval_ms, kMinTickIntervalMs, kMaxTickIntervalMs);
  auto sub = std::make_shared<Subscription>();
  sub->session = session;
  sub->id = request.id;
  sub->interval_ms = interval_ms;
  sub->ticks_limit = request.ticks;
  // First tick (the full baseline: a delta against the empty snapshot) goes
  // out on the broadcaster's next scan; later ticks pace at interval_ms.
  sub->next_due = std::chrono::steady_clock::now();
  size_t active = 0;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    subs_.push_back(std::move(sub));
    active = subs_.size();
  }
  obs::count("service.telemetry.subscribed", &stats_.subscriptions);
  obs::gauge_set("service.telemetry.subscribers", static_cast<double>(active));
  // Ack before the first tick so clients always see response, then stream.
  write_line(session,
             encode_subscribe_response(request.id, interval_ms, request.ticks));
  subs_cv_.notify_all();
}

void PlanningService::flush_pending_tick(
    const std::shared_ptr<Session>& session) {
  std::string line;
  {
    std::lock_guard<std::mutex> lock(session->tick_mu);
    if (!session->has_tick) return;
    line.swap(session->pending_tick);
    session->has_tick = false;
  }
  write_line(session, line);
}

void PlanningService::broadcaster_loop() {
  // Persistent buffers: snapshot/delta churn stays in these two objects
  // instead of allocating per round.
  obs::MetricsSnapshot current;
  obs::MetricsDelta delta;
  while (!stop_broadcaster_.load(std::memory_order_acquire)) {
    {
      std::unique_lock<std::mutex> lock(subs_mu_);
      subs_cv_.wait_for(lock, std::chrono::milliseconds(kBroadcastPollMs),
                        [this] {
                          return stop_broadcaster_.load(
                              std::memory_order_acquire);
                        });
    }
    if (stop_broadcaster_.load(std::memory_order_acquire)) break;
    broadcast_round(current, delta);
  }
}

void PlanningService::broadcast_round(obs::MetricsSnapshot& current,
                                      obs::MetricsDelta& delta) {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<Subscription>> due;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    std::erase_if(subs_, [](const std::shared_ptr<Subscription>& s) {
      return s->done || !s->session->open.load(std::memory_order_acquire);
    });
    obs::gauge_set("service.telemetry.subscribers",
                   static_cast<double>(subs_.size()));
    for (const std::shared_ptr<Subscription>& s : subs_) {
      if (now >= s->next_due) due.push_back(s);
    }
  }
  if (due.empty()) return;

  // One registry sample serves every due subscriber this round. With no
  // registry attached the stream still carries heartbeat ticks (sequence
  // and tick numbers over empty deltas).
  obs::MetricsRegistry* registry = obs::metrics();
  if (registry != nullptr) {
    registry->snapshot(current);
  } else {
    current.clear();
  }

  for (const std::shared_ptr<Subscription>& sub : due) {
    telemetry_delta(sub->last, current, delta);
    std::string line =
        encode_telemetry_tick(sub->id, sub->ticks_sent + 1, delta);
    bool delivered = false;
    {
      std::lock_guard<std::mutex> lock(sub->session->tick_mu);
      if (!sub->session->has_tick) {
        sub->session->pending_tick = std::move(line);
        sub->session->has_tick = true;
        delivered = true;
      }
    }
    if (delivered) {
      obs::count("service.telemetry.ticks", &stats_.telemetry_ticks);
      // Advance the delta basis only on delivery: a dropped tick's changes
      // ride along on the next delivered one instead of vanishing.
      sub->last = current;
      ++sub->ticks_sent;
      if (sub->ticks_limit > 0 && sub->ticks_sent >= sub->ticks_limit) {
        sub->done = true;
      }
    } else {
      obs::count("service.telemetry.dropped_ticks", &stats_.dropped_ticks);
    }
    sub->next_due = now + std::chrono::milliseconds(sub->interval_ms);
  }
}

// --- execution ---

void PlanningService::worker_loop() {
  while (std::optional<Job> job = queue_.pop()) {
    obs::gauge_set("service.queue.depth", static_cast<double>(queue_.size()));
    run_job(*job);
  }
}

void PlanningService::run_job(const Job& job) {
  // Chaos: a stalled worker (page fault storm, noisy neighbor). Fires
  // before the deadline gate so stalls age queued work realistically.
  if (chaos_ != nullptr) {
    uint64_t stall_ms = 0;
    if (chaos_->stall_solve(stall_ms)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
    }
  }
  // Deadline gate: work whose deadline passed while it queued is dropped
  // before the solve — the client has already moved on, so burning a
  // worker on it only delays live requests further (overload aging).
  if (job.request.deadline_ms.has_value()) {
    const double waited_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - job.admitted_at)
            .count();
    if (waited_ms > static_cast<double>(*job.request.deadline_ms)) {
      obs::count("service.deadline.expired", &stats_.deadline_expired);
      write_line(job.session,
                 encode_error(job.request.id, job.request.verb,
                              kErrDeadlineExceeded,
                              util::strf("deadline of %llu ms expired after "
                                         "%.1f ms in the queue",
                                         static_cast<unsigned long long>(
                                             *job.request.deadline_ms),
                                         waited_ms),
                              queue_.size()));
      observe_latency(job.request.verb, waited_ms * 1000.0);
      return;
    }
  }
  // Workers are long-lived, so each encodes into one buffer it keeps
  // across requests: a warm worker's response costs no allocation, and
  // write_line frames and sends it in place.
  thread_local std::string response;
  response.clear();
  const auto fail = [&](std::string_view code, std::string_view message) {
    response.clear();
    response += encode_error(job.request.id, job.request.verb, code, message);
  };
  try {
    handle_request(job.request, response);
  } catch (const std::invalid_argument& e) {
    // How the engines reject a well-formed request they cannot serve: a
    // negative or over-capacity load, a bad quarantine index, an unknown
    // fault or defense name.
    fail(kErrInvalidArgument, e.what());
  } catch (const std::exception& e) {
    fail(kErrInternal, e.what());
  } catch (...) {
    fail(kErrInternal, "unknown failure");
  }
  write_line(job.session, response);
  const double us =
      std::chrono::duration<double, std::micro>(
          std::chrono::steady_clock::now() - job.admitted_at)
          .count();
  observe_latency(job.request.verb, us);
}

void PlanningService::handle_request(const WireRequest& request,
                                     std::string& out) {
  switch (request.verb) {
    case Verb::kPing:
      out += encode_ping_response(request.id, info_);
      return;
    case Verb::kPlan:
    case Verb::kFleetplan:
      handle_plan(request, out);
      return;
    case Verb::kMeasure:
      out += encode_measure_response(
          request.id,
          eval_engine_->measure(core::Scenario::by_number(request.scenario),
                                request.load_pct));
      return;
    case Verb::kSweep: {
      std::vector<core::Scenario> scenarios;
      if (request.scenarios.empty()) {
        scenarios = core::Scenario::all8();
      } else {
        for (const int number : request.scenarios) {
          scenarios.push_back(core::Scenario::by_number(number));
        }
      }
      const std::vector<double> load_pcts = request.load_pcts.empty()
                                                ? control::paper_load_axis()
                                                : request.load_pcts;
      out += encode_sweep_response(request.id,
                                   eval_engine_->sweep(scenarios, load_pcts));
      return;
    }
    case Verb::kInject: {
      control::FaultCampaignOptions options;
      options.room = config_.eval.room;
      options.scenario = sim::FaultScenario::named(request.fault);
      options.defense = control::parse_defense(request.defense);
      options.demand_fraction = request.load_pct / 100.0;
      options.duration_s = request.duration_s;
      options.control_period_s = request.control_period_s;
      out += encode_inject_response(request.id,
                                    control::run_fault_campaign(options));
      return;
    }
    case Verb::kSubscribe:
    case Verb::kHealth:
      // Both answered on the reader thread; never admitted.
      break;
  }
  out += encode_error(request.id, request.verb, kErrInternal, "unreachable");
}

void PlanningService::handle_plan(const WireRequest& request,
                                  std::string& out) {
  const double load = request.load_files_s.has_value()
                          ? *request.load_files_s
                          : request.load_pct / 100.0 * info_.capacity_files_s;
  const core::Scenario scenario = core::Scenario::by_number(request.scenario);
  // Workers are long-lived, so each keeps one PlanResult slot (plus
  // its SolveScratch) and one span context warm across requests: a steady
  // stream of plan queries, traced or not, reuses the same buffers instead
  // of allocating per request.
  thread_local obs::SpanContext spans;
  obs::SpanContext* trace = nullptr;
  int root = -1;
  if (request.trace_id.has_value()) {
    spans.reset(*request.trace_id);
    root = spans.begin("service.request");
    trace = &spans;
    obs::count("service.trace.requests");
  }
  if (request.verb == Verb::kPlan) {
    thread_local core::PlanResult slot;
    core::PlanRequest plan_request(scenario, load, request.quarantined);
    plan_request.spans = trace;
    plan_engine_->solve_into(plan_request, core::SolveScratch::local(), slot);
    if (trace != nullptr) spans.end(root);
    encode_plan_response(out, request.id, slot, trace, request.deadline_ms);
    return;
  }
  // handle_line rejects fleetplan before admission when no fleet is
  // configured, so fleet_engine_ is non-null here.
  fleet::FleetPlanRequest fleet_request;
  fleet_request.scenario = scenario;
  fleet_request.load = load;
  fleet_request.quarantined = request.fleet_quarantined;
  fleet_request.down_shards = request.down_shards;
  fleet_request.spans = trace;
  const fleet::FleetPlanResult result = fleet_engine_->solve(fleet_request);
  {
    // Remember the statuses for the health verb's probe answers.
    std::lock_guard<std::mutex> lock(health_mu_);
    for (size_t s = 0;
         s < result.shard_status.size() && s < shard_status_.size(); ++s) {
      shard_status_[s] = fleet::to_string(result.shard_status[s]);
    }
  }
  if (trace != nullptr) spans.end(root);
  encode_fleetplan_response(out, request.id, result, trace,
                            request.deadline_ms);
}

bool PlanningService::write_line(const std::shared_ptr<Session>& session,
                                 std::string& line) {
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(session->write_mu);
  if (!session->open.load(std::memory_order_acquire)) return false;
  // Chaos: a crash mid-write. The peer gets a strict prefix of the frame
  // (never corrupted bytes) and then EOF — a desync it must detect by
  // framing, never by content. The reader sees the shutdown and closes.
  if (chaos_ != nullptr && chaos_->truncate_write()) {
    send_all(session->fd, std::string_view(line).substr(0, line.size() / 2));
    ::shutdown(session->fd, SHUT_RDWR);
    return false;
  }
  return send_all(session->fd, line);
}

void PlanningService::observe_latency(Verb verb, double us) {
  // Literal metric names: tools/check_metrics.sh greps for each catalog
  // row at an emission site.
  switch (verb) {
    case Verb::kPing:
      obs::observe("service.latency.ping_us", us);
      break;
    case Verb::kPlan:
      obs::observe("service.latency.plan_us", us);
      break;
    case Verb::kFleetplan:
      obs::observe("service.latency.fleetplan_us", us);
      break;
    case Verb::kMeasure:
      obs::observe("service.latency.measure_us", us);
      break;
    case Verb::kSweep:
      obs::observe("service.latency.sweep_us", us);
      break;
    case Verb::kInject:
      obs::observe("service.latency.inject_us", us);
      break;
    case Verb::kSubscribe:
    case Verb::kHealth:
      break;  // never dispatched; answered on the reader thread
  }
}

}  // namespace coolopt::service
