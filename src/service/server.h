// PlanningService — the cooloptd daemon's engine room: a TCP server that
// owns ONE shared core::PlanEngine (and, when simulator-backed, ONE
// control::EvalEngine) and serves the newline-delimited JSON protocol of
// wire.h to many concurrent clients. docs/service.md is the contract this
// class implements.
//
// Thread architecture (all joined by stop(); the accept thread joins a
// reader once its client has left):
//
//   accept thread ──► one reader thread per connection (parse + admission)
//                         │ AdmissionQueue<Job>  (bounded; the admission seam)
//                         ▼
//                  `workers` worker threads, each popping its next job
//                  when free (deadline gate, solve/measure, write response)
//
//   broadcaster thread: samples obs registry deltas and deposits telemetry
//   ticks into per-session one-slot mailboxes, which each session's own
//   reader thread flushes (subscribe verb). Entirely off the solve path —
//   it shares no lock with admission or the workers, and a slow
//   subscriber costs a dropped tick, never a stall.
//
// Admission control happens on the reader threads: a request is either
// accepted into the bounded queue or shed *immediately* with an explicit
// machine-readable reason (shed_queue_full / shed_priority / shed_draining)
// — mirroring PlanEngine's graceful-degradation contract, where overload
// produces an explained partial answer, never a silent stall. Priorities
// reserve headroom: `high` may fill the whole queue, `normal` only 7/8 of
// it, `low` half, so paying traffic keeps getting through while best-effort
// traffic sheds first.
//
// Responses are a pure function of each request (the engines are
// deterministic and shared-immutable), so no ordering discipline between
// connections is needed for determinism: the bytes written for request R
// are identical at any worker count, which the `service`-labelled tests
// assert against direct in-process engine calls.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "control/eval_engine.h"
#include "core/engine.h"
#include "fleet/fleet_engine.h"
#include "obs/telemetry.h"
#include "service/admission_queue.h"
#include "service/chaos.h"
#include "service/wire.h"

namespace coolopt::service {

/// Everything that parameterizes one service instance.
struct ServiceConfig {
  std::string host = "127.0.0.1";  ///< bind address (IPv4 dotted quad)
  uint16_t port = 0;               ///< 0 == pick an ephemeral port

  /// Bound on accepted-but-not-started requests; beyond it requests
  /// shed with shed_queue_full (see docs/service.md "Admission control").
  size_t queue_capacity = 256;
  /// Concurrent in-flight engine calls. 0 == ThreadPool::default_workers(),
  /// the CPUs this process may run on (its affinity mask), at most 8.
  size_t workers = 0;
  /// Connections beyond this are answered with too_many_connections and
  /// closed without ever reaching admission.
  size_t max_connections = 64;

  /// Simulator-backed mode (default): the service builds an EvalEngine
  /// from these options and serves all verbs. First measure/sweep pays the
  /// profiling campaign once, exactly like library callers.
  control::EvalOptions eval;

  /// Model-backed mode: when set, the service plans against this fitted
  /// model directly (no simulator). Only ping/plan are served; the sim
  /// verbs answer unsupported_verb. This is what `cooloptd --model` and
  /// bench/perf_service use — startup is milliseconds at any fleet size.
  core::SharedRoomModel model;
  core::PlannerOptions planner;  ///< model-backed mode only

  /// Fleet-aware plan mode: when > 0 the service round-robin-partitions
  /// its room (fleet::partition_room) into this many shards, builds a
  /// fleet::FleetEngine over them, and serves the `fleetplan` verb. Works
  /// in both backing modes; 0 keeps the server monolithic (fleetplan
  /// answers unsupported_verb). This is `cooloptd --fleet-shards`.
  size_t fleet_shards = 0;

  /// Deterministic fault injection (chaos.h). Default-disabled: with every
  /// probability at 0 no injector is even constructed and the server runs
  /// the exact unchaoticized code paths. This is `cooloptd --chaos-*`.
  ChaosOptions chaos;
};

class PlanningService {
 public:
  /// Builds the engines (cheap; lazy artifacts pay on first use). Call
  /// start() to begin serving.
  explicit PlanningService(ServiceConfig config);
  /// Equivalent to stop().
  ~PlanningService();

  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  /// Binds, listens, and spawns the accept and worker threads. Throws
  /// std::runtime_error when the socket cannot be bound.
  void start();

  /// Graceful drain, callable from any thread (cooloptd calls it from the
  /// SIGTERM handler's waiter thread) and idempotent:
  ///   1. stop accepting connections and shed every new request with
  ///      shed_draining,
  ///   2. finish every already-admitted request and write its response,
  ///   3. close all connections and join every thread.
  void stop();

  /// The bound TCP port (valid after start(); useful with port == 0).
  uint16_t port() const { return bound_port_; }

  /// Deterministic server facts, echoed by the ping verb.
  const ServerInfo& info() const { return info_; }

  /// The shared engine, for in-process determinism checks against the
  /// exact bytes the service writes.
  const std::shared_ptr<core::PlanEngine>& plan_engine() const {
    return plan_engine_;
  }
  /// nullptr in model-backed mode.
  control::EvalEngine* eval_engine() { return eval_engine_.get(); }
  /// nullptr unless config.fleet_shards > 0.
  const fleet::FleetEngine* fleet_engine() const { return fleet_engine_.get(); }
  /// nullptr unless config.chaos enabled a fault; exposes fired-fault
  /// counters to the chaos tests and bench.
  const ChaosInjector* chaos() const { return chaos_.get(); }

  /// Test seam: while paused no worker takes an admitted request off the
  /// queue, so tests can fill it to known depths and observe shed behavior
  /// deterministically. Exact at any time, before or after start(): the
  /// pause sits inside the workers' pop. stop() overrides a pause (drain
  /// would otherwise deadlock).
  void pause_dispatch(bool paused);

  /// Monotonic books. Each counter is bumped by the same obs::count call
  /// that bumps its service.* registry counter, so the two cannot drift.
  struct Stats {
    uint64_t admitted = 0;          ///< service.requests.admitted
    uint64_t shed = 0;              ///< service.requests.shed
    uint64_t bad_requests = 0;      ///< service.requests.rejected
    size_t queue_high_water = 0;    ///< the admission queue's deepest point
    uint64_t subscriptions = 0;     ///< service.telemetry.subscribed
    uint64_t telemetry_ticks = 0;   ///< service.telemetry.ticks
    uint64_t dropped_ticks = 0;     ///< service.telemetry.dropped_ticks
    uint64_t deadline_expired = 0;  ///< service.deadline.expired
  };
  Stats stats() const;

 private:
  struct Session {
    int fd = -1;
    uint64_t id = 0;
    std::mutex write_mu;          ///< one response line at a time
    std::atomic<bool> open{true};
    /// One-slot telemetry mailbox. The broadcaster deposits an encoded
    /// tick here (dropping it when the previous one is still unclaimed);
    /// the session's OWN reader thread flushes it with a blocking
    /// write_line each poll iteration. A slow subscriber therefore stalls
    /// only its own reader — never the broadcaster or the workers.
    std::mutex tick_mu;
    std::string pending_tick;
    bool has_tick = false;
  };

  /// One live subscribe stream. Mutated only by the broadcaster thread
  /// after registration (the subs_mu_-guarded vector hands it over).
  struct Subscription {
    std::shared_ptr<Session> session;
    uint64_t id = 0;            ///< subscribe request id, echoed in ticks
    uint64_t interval_ms = WireRequest::kDefaultTickIntervalMs;
    uint64_t ticks_limit = 0;   ///< 0 == unbounded
    uint64_t ticks_sent = 0;
    bool done = false;
    std::chrono::steady_clock::time_point next_due{};
    obs::MetricsSnapshot last;  ///< basis for this subscriber's next delta
  };

  struct Job {
    std::shared_ptr<Session> session;
    WireRequest request;
    std::chrono::steady_clock::time_point admitted_at;
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Session> session);
  /// Joins the reader of each connection whose client has left, drops
  /// it from connections_ and updates the gauge (accept thread).
  void reap_closed_connections();
  /// One worker thread: pops admitted jobs until the queue is closed and
  /// drained.
  void worker_loop();
  /// Samples registry deltas and deposits encoded ticks into subscriber
  /// mailboxes at each subscription's own cadence. Fully off the solve
  /// path: never blocks on a socket and never touches queue_ or workers_.
  void broadcaster_loop();
  /// One sampling round: purge dead subscriptions, snapshot the registry
  /// once, deliver a delta tick to every due subscriber.
  void broadcast_round(obs::MetricsSnapshot& current, obs::MetricsDelta& delta);
  /// Registers a subscribe request and writes the ack (reader threads).
  void handle_subscribe(const std::shared_ptr<Session>& session,
                        const WireRequest& request);
  /// Writes a mailbox tick, if any (the session's reader thread).
  void flush_pending_tick(const std::shared_ptr<Session>& session);

  /// Parse + admission for one request line (reader threads).
  void handle_line(const std::shared_ptr<Session>& session,
                   std::string_view line);
  /// Executes one admitted request on a worker thread and writes the
  /// response. Never throws: failures become internal_error responses.
  void run_job(const Job& job);
  /// The request -> response-bytes pure function (also what the
  /// determinism tests replicate in-process); appends the response to `out`.
  void handle_request(const WireRequest& request, std::string& out);
  /// plan and fleetplan: one load resolution, trace setup and solve path.
  void handle_plan(const WireRequest& request, std::string& out);

  /// Frames `line` in place (appends the '\n') and sends it from that
  /// buffer. False when the session is closed or the write failed.
  bool write_line(const std::shared_ptr<Session>& session, std::string& line);
  bool write_line(const std::shared_ptr<Session>& session,
                  std::string&& line) {
    return write_line(session, line);
  }
  void observe_latency(Verb verb, double us);

  ServiceConfig config_;
  std::unique_ptr<control::EvalEngine> eval_engine_;  // sim-backed mode
  std::shared_ptr<core::PlanEngine> plan_engine_;     // always set
  std::unique_ptr<fleet::FleetEngine> fleet_engine_;  // fleet_shards > 0
  std::unique_ptr<ChaosInjector> chaos_;              // config.chaos enabled
  ServerInfo info_;

  /// Shard statuses observed on the most recent fleetplan solve, served by
  /// the health verb ("ok" until one runs). Empty when monolithic.
  mutable std::mutex health_mu_;
  std::vector<std::string> shard_status_;

  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_readers_{false};

  AdmissionQueue<Job> queue_;
  /// Popped only when free, so backlog stays in the bounded queue (where
  /// admission and the depth gauge can see it).
  std::vector<std::thread> workers_;

  std::thread accept_thread_;
  std::thread broadcaster_thread_;
  std::atomic<bool> stop_broadcaster_{false};
  std::mutex subs_mu_;
  std::condition_variable subs_cv_;
  std::vector<std::shared_ptr<Subscription>> subs_;
  /// A connection: its session and the reader thread serving it.
  struct Connection {
    std::shared_ptr<Session> session;
    std::thread reader;
  };
  std::mutex sessions_mu_;
  /// Accepted connections not yet reaped. The accept thread reaps the
  /// closed ones on each poll, before it counts the connection cap.
  std::vector<Connection> connections_;
  uint64_t next_session_id_ = 1;

  /// Bumped in place by obs::count; stats() reads each with load_counter
  /// (queue_high_water stays 0 here: the queue keeps it).
  Stats stats_;
};

}  // namespace coolopt::service
