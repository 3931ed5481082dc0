// cooloptd — the long-running planning service daemon.
//
// Serves the newline-delimited JSON protocol of docs/service.md on a TCP
// port, backed by the shared PlanEngine/EvalEngine stack. Two modes:
//
//   cooloptd --servers 20 --racks 1 --seed 42   # simulator-backed: all verbs
//   cooloptd --model room_model.csv             # model-backed: ping/plan only
//
// Serving knobs: --host / --port (0 = ephemeral), --queue-capacity (the
// admission bound behind every shed threshold), --workers (engine
// threads), --max-connections. See docs/service.md for tuning guidance.
//
// Deterministic fault injection (service/chaos.h; all default-off):
// --chaos-drop-conn-pct / --chaos-delay-read-pct /
// --chaos-truncate-write-pct / --chaos-stall-solve-pct arm the four
// hooks, --chaos-seed fixes the fault streams. Any armed hook prints a
// CHAOS banner after the serving line.
//
// SIGTERM / SIGINT trigger a graceful drain: the listener closes, every
// queued request still gets its response, in-flight connections are then
// closed, and the process exits 0. The handler only writes one byte to a
// self-pipe; all real work happens on the main thread.
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/session.h"
#include "profiling/profile_io.h"
#include "service/server.h"
#include "util/cli.h"
#include "util/strings.h"

namespace {

int g_signal_pipe[2] = {-1, -1};

void on_signal(int) {
  const char byte = 1;
  // write(2) is async-signal-safe; the return value is irrelevant (the
  // pipe being full already means a wakeup is pending).
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coolopt;

  std::string metrics_out;
  std::string trace_out;
  const std::vector<std::string> args = obs::strip_obs_flags(
      std::vector<std::string>(argv, argv + argc), metrics_out, trace_out);
  std::vector<const char*> argv_stripped;
  argv_stripped.reserve(args.size());
  for (const std::string& a : args) argv_stripped.push_back(a.c_str());

  util::CliFlags flags;
  flags.define("host", "bind address", "127.0.0.1");
  flags.define("port", "TCP port (0 picks an ephemeral port)", "7077");
  flags.define("model", "fitted model CSV; serve ping/plan only, no simulator", "");
  flags.define("servers", "machines in the simulated room", "20");
  flags.define("racks", "racks in the simulated room", "1");
  flags.define("seed", "simulation seed", "42");
  flags.define("fleet-shards",
               "split the room into N shards and serve fleetplan (0 = monolithic)",
               "0");
  flags.define("queue-capacity", "admission queue bound (requests)", "256");
  flags.define("workers", "engine worker threads (0 = the CPUs this process may run on)", "0");
  flags.define("max-connections", "concurrent client connections", "64");
  flags.define("chaos-seed",
               "seed for the deterministic fault injector (docs/robustness.md)",
               "1");
  flags.define("chaos-drop-conn-pct",
               "percent of accepted connections to close immediately", "0");
  flags.define("chaos-delay-read-pct",
               "percent of socket reads to delay before parsing", "0");
  flags.define("chaos-truncate-write-pct",
               "percent of response writes to truncate mid-frame", "0");
  flags.define("chaos-stall-solve-pct",
               "percent of dispatched solves to stall before running", "0");
  std::string error;
  if (!flags.parse(static_cast<int>(argv_stripped.size()),
                   argv_stripped.data(), error)) {
    std::cerr << error << "\n";
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.usage("cooloptd — the planning service daemon");
    return 0;
  }

  service::ServiceConfig config;
  config.host = flags.get_string("host", "127.0.0.1");
  config.port = static_cast<uint16_t>(flags.get_int("port", 7077));
  config.queue_capacity =
      static_cast<size_t>(flags.get_int("queue-capacity", 256));
  config.workers = static_cast<size_t>(flags.get_int("workers", 0));
  config.max_connections =
      static_cast<size_t>(flags.get_int("max-connections", 64));
  config.fleet_shards = static_cast<size_t>(flags.get_int("fleet-shards", 0));
  config.chaos.seed = static_cast<uint64_t>(flags.get_int("chaos-seed", 1));
  config.chaos.drop_connection_pct =
      flags.get_double("chaos-drop-conn-pct", 0.0);
  config.chaos.delay_read_pct = flags.get_double("chaos-delay-read-pct", 0.0);
  config.chaos.truncate_write_pct =
      flags.get_double("chaos-truncate-write-pct", 0.0);
  config.chaos.stall_solve_pct =
      flags.get_double("chaos-stall-solve-pct", 0.0);
  if (config.chaos.drop_connection_pct < 0.0 ||
      config.chaos.delay_read_pct < 0.0 ||
      config.chaos.truncate_write_pct < 0.0 ||
      config.chaos.stall_solve_pct < 0.0) {
    std::cerr << "chaos percentages must be non-negative\n";
    return 2;
  }
  const std::string model_path = flags.get_string("model", "");
  if (!model_path.empty()) {
    try {
      config.model = core::share_model(profiling::load_model(model_path));
    } catch (const std::exception& e) {
      std::cerr << "cannot load model: " << e.what() << "\n";
      return 2;
    }
  } else {
    config.eval.room.num_servers =
        static_cast<size_t>(flags.get_int("servers", 20));
    config.eval.room.num_racks = static_cast<size_t>(flags.get_int("racks", 1));
    config.eval.room.seed = static_cast<uint64_t>(flags.get_int("seed", 42));
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::cerr << "pipe() failed\n";
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  // The ObsSession flushes --metrics-out/--trace-out when it goes out of
  // scope, i.e. after the drain — the dump includes the final service.*
  // values.
  obs::ObsSession obs_session(metrics_out, trace_out);
  // The subscribe verb streams registry deltas, so the daemon always keeps
  // a registry attached: without --metrics-out the session attaches
  // nothing, and this process-local one (no file export) feeds the
  // broadcaster instead. The scope detaches it before it is destroyed.
  obs::MetricsRegistry standalone_registry;
  std::optional<obs::ScopedObservation> standalone_scope;
  if (!obs_session.active()) standalone_scope.emplace(&standalone_registry);
  try {
    service::PlanningService server(std::move(config));
    server.start();
    std::cout << util::strf(
        "cooloptd serving %zu machines on %s:%u (%s; queue %zu, %zu workers)\n",
        server.info().machines, flags.get_string("host", "127.0.0.1").c_str(),
        static_cast<unsigned>(server.port()),
        server.info().sim_backed ? "simulator-backed" : "model-backed",
        server.info().queue_capacity, server.info().workers);
    if (server.chaos() != nullptr) {
      const service::ChaosOptions& chaos = server.chaos()->options();
      std::cout << util::strf(
          "cooloptd CHAOS enabled (seed %llu): drop-conn %.2f%%, delay-read "
          "%.2f%%, truncate-write %.2f%%, stall-solve %.2f%%\n",
          static_cast<unsigned long long>(chaos.seed),
          chaos.drop_connection_pct, chaos.delay_read_pct,
          chaos.truncate_write_pct, chaos.stall_solve_pct);
    }
    std::cout.flush();

    // Block until a termination signal lands on the self-pipe.
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    for (;;) {
      const int ready = ::poll(&pfd, 1, -1);
      if (ready > 0 || (ready < 0 && errno != EINTR)) break;
    }
    std::cout << "cooloptd draining...\n";
    std::cout.flush();
    server.stop();
    // Per-drain on-demand export (the destructor would flush too; doing it
    // here stamps the post-drain books the moment they are final, and a
    // future reload/re-start cycle would get one export per drain).
    obs_session.flush();
    std::cout << "cooloptd drained; bye\n";
  } catch (const std::exception& e) {
    std::cerr << "cooloptd: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
