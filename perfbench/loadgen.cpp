// perfbench_loadgen — one benchmark run of one workload against cooloptd.
//
//   perfbench_loadgen --workload plan-n200-mix --seed 1 --seconds 12
//                     --trace 0 --cooloptd PATH --work-dir DIR
//
// --trace 0 (end-to-end): writes the seeded room CSV and computes the exact
// response bytes every request must get from direct in-process engine
// calls. Then, kInstances times: starts `cooloptd --model CSV --port 0
// --workers 1`, takes its CPU time up to its last warm-up response
// (set-up), drives it with a closed loop of one connection and one
// outstanding request for an equal share of --seconds, and stops it.
// Latency comes from the slices of the window in which the hypervisor
// stole no more than kQuietStealPct of the machine, pooled over the
// instances; set-up and peak memory are medians over them. Every response
// is checked byte-for-byte.
//
// --trace 1 (per layer): starts one daemon with --metrics-out, times ping
// and health round trips on it while idle, then alternates shares of the
// window with in-process replays of the same request lines on one thread,
// bare and with a span around each layer call (so the span bookkeeping
// cost is measured too). Reads the drain counters at the end and prints a
// per-layer table on stderr naming the dominant layer.
//
// After the workload is prepared, the generator and every daemon it
// starts share one CPU (pin_to_one_cpu).
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Any failed request makes `correct` false and the exit code 1.

#include <sched.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/incremental.h"
#include "core/scratch.h"
#include "daemon.h"
#include "fleet/fleet_engine.h"
#include "obs/obs.h"
#include "obs/span.h"
#include "profiling/profile_io.h"
#include "service/client.h"
#include "service/wire.h"
#include "stats.h"
#include "util/stats.h"
#include "workload.h"

using namespace coolopt;
using perfbench::Daemon;
using perfbench::WorkloadSpec;

namespace {

using Clock = std::chrono::steady_clock;

/// Per-request client read timeout: far above any healthy response (the
/// slowest workload answers in ~10 ms), far below the run's time limit.
constexpr uint64_t kTimeoutMs = 5000;
constexpr int kReadyTimeoutMs = 60000;
/// Daemon instances per end-to-end run: each is set up and then measured
/// for an equal share of the window. One instance's CPU per request can
/// sit 15% off another's, even on a quiet host.
constexpr size_t kInstances = 10;
/// A window is cut into slices this long. Host steal, in percent of
/// machine time, changes from one slice to the next (0-15% while a
/// neighbour competes), and latency and CPU per request grow with it.
constexpr auto kSlice = std::chrono::milliseconds(250);
/// Slices with at most this much steal are quiet. The window's latency and
/// CPU per request come from its quiet slices, or from its least-stolen
/// half when fewer than half of them were quiet.
constexpr double kQuietStealPct = 1.0;
/// Round trips per probe verb in the idle ping/health measurement.
constexpr size_t kProbeRoundTrips = 400;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time of process `pid` (0: this one), every thread included (so a
/// fleet solve's shard workers count too), in microseconds. The kernel
/// keeps it to the nanosecond, where /proc/<pid>/stat rounds to ticks.
double cpu_us(pid_t pid = 0) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  timespec ts{};
  if ((pid != 0 && ::clock_getcpuclockid(pid, &clock) != 0) ||
      ::clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("cannot read the CPU clock of process " +
                             std::to_string(pid));
  }
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

/// Pins the calling thread, and so every cooloptd it starts from here on,
/// to the allowed CPU that was idle longest over a short sample. The
/// closed loop hands each request from the client to the daemon's reader
/// and worker threads and back; on one CPU a hand-over is a local wake-up.
/// Spread over idle virtual CPUs, each one wakes a CPU through the
/// hypervisor, and on a busy host that made latency and CPU per request
/// 30-50% worse and as noisy.
void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<uint64_t> idle0;
  std::vector<uint64_t> idle1;
  const bool sampled = perfbench::parse_proc_stat_idle(
      perfbench::read_file("/proc/stat"), idle0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  if (!sampled ||
      !perfbench::parse_proc_stat_idle(perfbench::read_file("/proc/stat"),
                                       idle1) ||
      ::sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
    throw std::runtime_error("cannot read the CPUs' idle time or affinity");
  }
  int best = -1;
  uint64_t best_idle = 0;
  for (size_t c = 0; c < idle1.size() && c < idle0.size(); ++c) {
    const int cpu = static_cast<int>(c);
    if (!CPU_ISSET(cpu, &allowed) || idle1[c] - idle0[c] < best_idle) continue;
    best = cpu;
    best_idle = idle1[c] - idle0[c];
  }
  if (best < 0) throw std::runtime_error("no allowed CPU in /proc/stat");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  if (::sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string cooloptd;
  std::string work_dir;
};

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      error = "missing value for " + key;
      return false;
    }
    const std::string value = argv[++i];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = std::atoi(value.c_str());
    } else if (key == "--cooloptd") {
      args.cooloptd = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      error = "unknown flag " + key;
      return false;
    }
  }
  if (perfbench::find_workload(args.workload) == nullptr) {
    error = "unknown workload '" + args.workload + "'";
    return false;
  }
  if (args.seconds <= 0.0 || args.cooloptd.empty() || args.work_dir.empty() ||
      (args.trace != 0 && args.trace != 1)) {
    error = "need --seconds > 0, --trace 0|1, --cooloptd, --work-dir";
    return false;
  }
  return true;
}

// --- the workload and its expected bytes ---

struct Prepared {
  const WorkloadSpec* spec = nullptr;
  std::string csv_path;
  std::vector<std::string> lines;
  std::vector<service::WireRequest> parsed;  ///< what the daemon decodes
  std::vector<std::string> expected;         ///< exact response bytes
  double plan_kw = 0.0;  ///< mean predicted total power over the plans
};

/// The in-process engines a daemon started on the same CSV would hold.
struct Engines {
  std::unique_ptr<core::PlanEngine> plan;
  std::unique_ptr<fleet::FleetEngine> fleet;
  double capacity = 0.0;

  Engines(const std::string& csv_path, size_t fleet_shards) {
    plan = std::make_unique<core::PlanEngine>(
        core::share_model(profiling::load_model(csv_path)));
    capacity = plan->aggregates().total_capacity;
    if (fleet_shards > 0) {
      fleet = std::make_unique<fleet::FleetEngine>(
          fleet::partition_room(plan->model(), fleet_shards));
    }
  }
};

double load_of(const service::WireRequest& r, double capacity) {
  return r.load_files_s.has_value() ? *r.load_files_s
                                    : r.load_pct / 100.0 * capacity;
}

/// What PlanningService answers for a plan/fleetplan line, via the same
/// engine calls and encoders. `power_w` receives the plan's predicted
/// total power; throws when the request does not get a complete plan
/// (a benchmark workload must never fail).
std::string serve_in_process(const service::WireRequest& r,
                             const Engines& engines, double& power_w) {
  const double load = load_of(r, engines.capacity);
  if (r.verb == service::Verb::kFleetplan) {
    fleet::FleetPlanRequest request;
    request.scenario = core::Scenario::by_number(r.scenario);
    request.load = load;
    const fleet::FleetPlanResult result = engines.fleet->solve(request);
    if (!result.feasible()) throw std::runtime_error("infeasible fleet plan");
    power_w = result.total_power_w;
    return service::encode_fleetplan_response(r.id, result);
  }
  thread_local core::PlanResult slot;
  const core::PlanRequest request(core::Scenario::by_number(r.scenario), load,
                                  r.quarantined);
  engines.plan->solve_into(request, core::SolveScratch::local(), slot);
  if (!slot.feasible()) throw std::runtime_error("infeasible plan");
  power_w = slot.plan->allocation.total_power_w;
  return service::encode_plan_response(r.id, slot);
}

Prepared prepare(const WorkloadSpec& spec, uint64_t seed,
                 const std::string& work_dir) {
  Prepared p;
  p.spec = &spec;
  p.csv_path = work_dir + "/room-" + spec.name + "-" + std::to_string(seed) +
               ".csv";
  profiling::save_model(perfbench::make_room(spec.machines, seed), p.csv_path);
  p.lines = perfbench::encode_lines(perfbench::make_requests(spec, seed));

  const Engines engines(p.csv_path, spec.fleet_shards);
  double power_sum = 0.0;
  for (const std::string& line : p.lines) {
    service::WireRequest parsed;
    std::string error;
    if (!service::parse_request(line, parsed, error)) {
      throw std::runtime_error("self-check parse: " + error);
    }
    double power_w = 0.0;
    p.expected.push_back(serve_in_process(parsed, engines, power_w));
    p.parsed.push_back(std::move(parsed));
    power_sum += power_w;
  }
  p.plan_kw = power_sum / static_cast<double>(p.lines.size()) / 1000.0;
  return p;
}

// --- the closed-loop client ---

struct LoopStats {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t errors = 0;      ///< ok:false responses
  uint64_t mismatches = 0;  ///< any other byte difference
  uint64_t timeouts = 0;
  uint64_t lost = 0;        ///< connection refused, reset or closed
  std::vector<double> latency_us;

  uint64_t failed() const { return errors + mismatches + timeouts + lost; }
  void merge(const LoopStats& o) {
    attempted += o.attempted;
    ok += o.ok;
    errors += o.errors;
    mismatches += o.mismatches;
    timeouts += o.timeouts;
    lost += o.lost;
    latency_us.insert(latency_us.end(), o.latency_us.begin(),
                      o.latency_us.end());
  }
};

/// One connection with exactly one request outstanding sends the stream
/// from sequence number `first` on (request = seq mod distinct) until
/// `deadline`; the request in flight then completes. A failed exchange is
/// counted, and the client reconnects. Between two requests, once per
/// `slice` of time and once at the end, `on_slice(stats so far)` runs.
template <typename OnSlice>
LoopStats closed_loop(uint16_t port, const Prepared& p, uint64_t first,
                      Clock::time_point deadline, Clock::duration slice,
                      OnSlice&& on_slice) {
  LoopStats st;
  Clock::time_point next_slice = Clock::now() + slice;
  service::ServiceClient client;
  auto connect = [&] {
    if (!client.connect("127.0.0.1", port)) return false;
    client.set_timeout_ms(kTimeoutMs);
    return true;
  };
  bool connected = connect();
  for (uint64_t seq = first; Clock::now() < deadline; ++seq) {
    if (Clock::now() >= next_slice) {
      on_slice(st);
      next_slice += slice;
    }
    const size_t index = static_cast<size_t>(seq % p.lines.size());
    ++st.attempted;
    if (!connected && !(connected = connect())) {
      ++st.lost;
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      continue;
    }
    const Clock::time_point t0 = Clock::now();
    std::optional<std::string> response;
    if (client.send_line(p.lines[index])) response = client.recv_line();
    const Clock::time_point t1 = Clock::now();
    if (!response.has_value()) {
      ++(client.timed_out() ? st.timeouts : st.lost);
      client.close();
      connected = false;
      continue;
    }
    if (*response == p.expected[index]) {
      ++st.ok;
      st.latency_us.push_back(us_between(t0, t1));
    } else if (response->find("\"ok\":false") != std::string::npos) {
      ++st.errors;
    } else {
      ++st.mismatches;
    }
  }
  on_slice(st);
  return st;
}

/// Sends every distinct request once, pipelined up to kWarmWindow deep on
/// one connection so set-up time is the daemon's work rather than round
/// trips, and checks each response (matched by id) byte-for-byte.
LoopStats warm_up(uint16_t port, const Prepared& p) {
  constexpr size_t kWarmWindow = 16;
  LoopStats st;
  service::ServiceClient client;
  if (!client.connect("127.0.0.1", port)) {
    st.attempted = p.lines.size();
    st.lost = p.lines.size();
    return st;
  }
  client.set_timeout_ms(kTimeoutMs);
  // A transport failure loses the stream position: every request not yet
  // answered counts as failed.
  auto abandon = [&](size_t received, bool timed_out) {
    st.attempted = p.lines.size();
    const uint64_t missing = p.lines.size() - received;
    st.timeouts += timed_out ? 1 : 0;
    st.lost += missing - (timed_out ? 1 : 0);
    return st;
  };
  size_t sent = 0;
  size_t received = 0;
  while (received < p.lines.size()) {
    while (sent < p.lines.size() && sent - received < kWarmWindow) {
      if (!client.send_line(p.lines[sent++])) return abandon(received, false);
    }
    const std::optional<std::string> response = client.recv_line();
    if (!response.has_value()) return abandon(received, client.timed_out());
    ++received;
    ++st.attempted;
    constexpr std::string_view kIdPrefix = "{\"id\":";
    const size_t id =
        response->rfind(kIdPrefix, 0) == 0
            ? static_cast<size_t>(std::strtoull(
                  response->c_str() + kIdPrefix.size(), nullptr, 10))
            : SIZE_MAX;
    if (id < p.expected.size() && *response == p.expected[id]) {
      ++st.ok;
    } else if (response->find("\"ok\":false") != std::string::npos) {
      ++st.errors;
    } else {
      ++st.mismatches;
    }
  }
  return st;
}

std::vector<std::string> daemon_argv(const Args& args, const Prepared& p,
                                     const std::string& metrics_out) {
  std::vector<std::string> argv = {args.cooloptd, "--model", p.csv_path,
                                   "--port", "0", "--workers", "1"};
  if (p.spec->fleet_shards > 0) {
    argv.push_back("--fleet-shards");
    argv.push_back(std::to_string(p.spec->fleet_shards));
  }
  if (!metrics_out.empty()) {
    argv.push_back("--metrics-out");
    argv.push_back(metrics_out);
  }
  return argv;
}

struct HostTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};

HostTicks host_ticks() {
  HostTicks t;
  if (!perfbench::parse_proc_stat_steal(perfbench::read_file("/proc/stat"),
                                        t.steal, t.total)) {
    throw std::runtime_error("cannot parse /proc/stat");
  }
  return t;
}

/// Machine-wide steal between two samples, in percent of machine time.
double steal_pct(const HostTicks& a, const HostTicks& b) {
  return 100.0 * static_cast<double>(b.steal - a.steal) /
         static_cast<double>(std::max<uint64_t>(b.total - a.total, 1));
}

/// One measured window against one warm daemon instance.
struct Window {
  LoopStats stats;
  double wall_s = 0.0;
  double cpu_us_per_req = 0.0;
  double rss_mib = 0.0;
  double loadgen_cpu_pct = 0.0;  ///< of one core
  double steal_pct = 0.0;  ///< machine-wide hypervisor steal over the window
  bool generator_saturated = false;
  // The kept slices, which latency and CPU per request come from.
  double kept_pct = 0.0;  ///< share of the slices
  std::vector<double> kept_latency_us;
  double kept_cpu_us = 0.0;
  uint64_t kept_ok = 0;
};

/// What one slice of a window saw.
struct Slice {
  double steal_pct = 0.0;
  double cpu_us = 0.0;       ///< cooloptd CPU time
  uint64_t ok = 0;           ///< verified responses
  size_t first_latency = 0;  ///< their latencies in LoopStats::latency_us
};

/// The window continues the stream where the warm-up left it.
Window measure_window(const Daemon& daemon, const Prepared& p, double seconds) {
  Window w;
  const double cpu0 = cpu_us(daemon.pid());
  const HostTicks host0 = host_ticks();
  const double self0 = cpu_us();
  const Clock::time_point t0 = Clock::now();
  std::vector<Slice> slices;
  double cpu_mark = cpu0;
  HostTicks host_mark = host0;
  uint64_t ok_mark = 0;
  auto cut = [&](const LoopStats& st) {
    const double cpu = cpu_us(daemon.pid());
    const HostTicks host = host_ticks();
    const uint64_t ok = st.ok - ok_mark;
    slices.push_back({steal_pct(host_mark, host), cpu - cpu_mark, ok,
                      st.latency_us.size() - ok});
    cpu_mark = cpu;
    host_mark = host;
    ok_mark = st.ok;
  };
  w.stats = closed_loop(daemon.port(), p, p.lines.size(),
                        t0 + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds)),
                        kSlice, cut);
  w.wall_s = seconds_since(t0);
  w.loadgen_cpu_pct = (cpu_us() - self0) / 1e6 / w.wall_s * 100.0;
  // The client mostly waits on its socket; near a full core means the
  // generator, not the daemon, set the pace.
  w.generator_saturated = w.loadgen_cpu_pct > 90.0;
  w.steal_pct = steal_pct(host0, host_mark);

  std::vector<double> steal;
  size_t quiet = 0;
  for (const Slice& s : slices) {
    steal.push_back(s.steal_pct);
    quiet += s.steal_pct <= kQuietStealPct ? 1 : 0;
  }
  const std::vector<size_t> kept = perfbench::pick_quiet(
      steal, std::max(quiet, (slices.size() + 1) / 2), kQuietStealPct);
  for (const size_t i : kept) {
    const Slice& s = slices[i];
    const auto first = w.stats.latency_us.begin() +
                       static_cast<std::ptrdiff_t>(s.first_latency);
    w.kept_latency_us.insert(w.kept_latency_us.end(), first,
                             first + static_cast<std::ptrdiff_t>(s.ok));
    w.kept_cpu_us += s.cpu_us;
    w.kept_ok += s.ok;
  }
  w.kept_pct = 100.0 * static_cast<double>(kept.size()) /
               static_cast<double>(std::max<size_t>(slices.size(), 1));
  w.cpu_us_per_req =
      w.kept_cpu_us / static_cast<double>(std::max<uint64_t>(w.kept_ok, 1));

  uint64_t hwm_kib = 0;
  if (!perfbench::parse_status_vm_hwm_kib(
          perfbench::read_file("/proc/" + std::to_string(daemon.pid()) +
                               "/status"),
          hwm_kib)) {
    throw std::runtime_error("cannot parse /proc status of cooloptd");
  }
  w.rss_mib = static_cast<double>(hwm_kib) / 1024.0;
  return w;
}

/// A daemon's set-up, up to its last warm-up response: model load, the
/// cold Algorithm 1 table, the fleet frontiers and the warm-up solves.
struct Setup {
  double cpu_s = 0.0;   ///< cooloptd's CPU time, every thread
  double wall_s = 0.0;  ///< from spawn
};

/// Starts cooloptd and sends every distinct request once (the warm-up).
std::unique_ptr<Daemon> start_and_warm(const Args& args, const Prepared& p,
                                       const std::string& metrics_out,
                                       LoopStats& totals, Setup& setup) {
  const Clock::time_point t0 = Clock::now();
  auto daemon = std::make_unique<Daemon>(daemon_argv(args, p, metrics_out),
                                         args.work_dir + "/cooloptd.log");
  std::string error;
  if (!daemon->wait_ready(kReadyTimeoutMs, error)) {
    throw std::runtime_error(error);
  }
  totals.merge(warm_up(daemon->port(), p));
  setup.wall_s = seconds_since(t0);
  setup.cpu_s = cpu_us(daemon->pid()) / 1e6;
  return daemon;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

void print_result(bool correct, uint64_t attempted, uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Size and modification time of a file: changes whenever it is rebuilt.
std::string fingerprint(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return "?";
  return std::to_string(st.st_size) + ":" + std::to_string(st.st_mtim.tv_sec) +
         "." + std::to_string(st.st_mtim.tv_nsec);
}

/// The plan_kw of one (workload, seed) must never change between runs of
/// the same build: the first run records it, later runs compare. A rebuild
/// of either binary starts a new record.
bool plan_kw_repeats(const Args& args, double plan_kw) {
  const std::string path = args.work_dir + "/plan_kw-" + args.workload + "-" +
                           std::to_string(args.seed) + ".txt";
  char value[64];
  std::snprintf(value, sizeof value, "%.17g", plan_kw);
  const std::string record = fingerprint("/proc/self/exe") + " " +
                             fingerprint(args.cooloptd) + "\n" + value + "\n";
  const std::string previous = perfbench::read_file(path);
  if (previous.substr(0, previous.find('\n')) ==
      record.substr(0, record.find('\n'))) {
    return previous == record;
  }
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(record.c_str(), f);
    std::fclose(f);
  }
  return true;
}

void report_failures(const char* phase, const LoopStats& st) {
  if (st.failed() == 0) return;
  std::fprintf(stderr,
               "%s: %llu of %llu requests failed (errors %llu, mismatches "
               "%llu, timeouts %llu, lost %llu)\n",
               phase, static_cast<unsigned long long>(st.failed()),
               static_cast<unsigned long long>(st.attempted),
               static_cast<unsigned long long>(st.errors),
               static_cast<unsigned long long>(st.mismatches),
               static_cast<unsigned long long>(st.timeouts),
               static_cast<unsigned long long>(st.lost));
}

// --- --trace 0 ---

int run_end_to_end(const Args& args, const Prepared& p) {
  // Every daemon instance is set up, then measured for an equal share of
  // the window. Set-up and peak memory are medians over the instances;
  // latency pools the kept slices of all windows.
  LoopStats totals;
  std::vector<double> setup, setup_wall, rss, steal, kept;
  std::vector<double> latency_us;
  double cpu_us_sum = 0.0;
  uint64_t kept_ok = 0;
  double window_s = 0.0;
  uint64_t window_ok = 0;
  bool clean_exit = true;
  bool saturated = false;
  for (size_t k = 0; k < kInstances; ++k) {
    Setup s;
    const std::unique_ptr<Daemon> daemon =
        start_and_warm(args, p, "", totals, s);
    const Window w = measure_window(*daemon, p, args.seconds / kInstances);
    const int status = daemon->stop();
    clean_exit = clean_exit && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    totals.merge(w.stats);
    saturated = saturated || w.generator_saturated;
    setup.push_back(s.cpu_s);
    setup_wall.push_back(s.wall_s);
    rss.push_back(w.rss_mib);
    steal.push_back(w.steal_pct);
    kept.push_back(w.kept_pct);
    latency_us.insert(latency_us.end(), w.kept_latency_us.begin(),
                      w.kept_latency_us.end());
    cpu_us_sum += w.kept_cpu_us;
    kept_ok += w.kept_ok;
    window_s += w.wall_s;
    window_ok += w.stats.ok;
    std::fprintf(stderr,
                 "  instance %zu: set-up %.4f s CPU (%.4f s wall); window "
                 "steal %.2f%%, %.0f%% of it kept: latency %.4f ms, %.1f us "
                 "CPU/req\n",
                 k, s.cpu_s, s.wall_s, w.steal_pct, w.kept_pct,
                 util::mean(w.kept_latency_us) / 1000.0, w.cpu_us_per_req);
  }
  report_failures("run", totals);

  const bool kw_ok = plan_kw_repeats(args, p.plan_kw);
  if (!kw_ok) std::fprintf(stderr, "plan_kw differs from an earlier run\n");
  if (!clean_exit) std::fprintf(stderr, "cooloptd did not drain cleanly\n");
  const bool correct =
      totals.failed() == 0 && totals.ok > 0 && kw_ok && clean_exit;

  // The mean, p50 and CPU per request follow the host's speed, which
  // drifts by 10-20% over minutes; p90 held within a few percent
  // (README.md). rps is the inverse of the mean latency in a closed loop
  // of one. All of these are diagnostics.
  const double cpu_us_per_req =
      cpu_us_sum / static_cast<double>(std::max<uint64_t>(kept_ok, 1));
  std::fprintf(stderr,
               "%s seed %llu: %llu verified; diagnostics: set-up wall %.3f s, "
               "rps %.1f, mean %.3f ms, p50 %.3f ms, p99 %.3f ms, %.1f us "
               "CPU/req, failed %.3f%%, host steal %.2f%%, %.0f%% of the "
               "window kept%s\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(totals.ok),
               util::percentile(setup_wall, 50.0),
               static_cast<double>(window_ok) / window_s,
               util::mean(latency_us) / 1000.0,
               util::percentile(latency_us, 50.0) / 1000.0,
               util::percentile(latency_us, 99.0) / 1000.0, cpu_us_per_req,
               100.0 * static_cast<double>(totals.failed()) /
                   static_cast<double>(std::max<uint64_t>(totals.attempted, 1)),
               util::percentile(steal, 50.0), util::percentile(kept, 50.0),
               saturated ? ", GENERATOR SATURATED" : "");
  print_result(correct, totals.attempted, totals.failed(),
               {{"setup_s", util::percentile(setup, 50.0), "s"},
                {"p90_ms", util::percentile(latency_us, 90.0) / 1000.0, "ms"},
                {"server_rss_mb", util::percentile(rss, 50.0), "MiB"},
                {"plan_kw", p.plan_kw, "kW"}});
  return correct ? 0 : 1;
}

// --- --trace 1 ---

/// One span the benchmark recorded around a layer call. Spans of one
/// request share `request`; `parent` indexes the request's root span.
struct BenchSpan {
  uint64_t request = 0;
  const char* name = "";
  int64_t parent = -1;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Layer costs of the in-process replay, summed until finish() turns them
/// into per-request means.
struct Replay {
  size_t requests = 0;       ///< traced
  size_t bare_requests = 0;
  double bare_us = 0.0;      ///< wall time of the bare blocks
  double traced_us = 0.0;    ///< wall time of the traced blocks
  // Layer CPU time per request.
  double parse_us = 0.0;
  double solve_us = 0.0;         ///< engine.solve_into or fleet solve
  double encode_us = 0.0;
  double resp_bytes = 0.0;
  double shard_solve_us = 0.0;   ///< fleet: mean shard engine solve
  double slowest_shard_us = 0.0; ///< fleet: mean over requests of the max
  double table_query_us = 0.0;
  double closed_form_us = 0.0;
  double cold_build_s = 0.0;
  double frontier_build_s = 0.0;
  core::EngineCounters counters;  ///< over the traced blocks
  bool identical = true;
  std::vector<BenchSpan> spans;

  void finish() {
    const double n = static_cast<double>(std::max<size_t>(requests, 1));
    parse_us /= n;
    solve_us /= n;
    encode_us /= n;
    resp_bytes /= n;
    shard_solve_us /= n;
    slowest_shard_us /= n;
  }
  double overhead_pct() const {
    return (traced_us / static_cast<double>(requests)) /
               (bare_us / static_cast<double>(bare_requests)) * 100.0 -
           100.0;
  }
};

core::EngineCounters counters_of(const Engines& e) {
  if (e.fleet == nullptr) return e.plan->counters();
  core::EngineCounters sum;
  for (size_t s = 0; s < e.fleet->shard_count(); ++s) {
    const core::EngineCounters c = e.fleet->engine(s).counters();
    sum.solves += c.solves;
    sum.lp_fallback += c.lp_fallback;
    sum.memo_hits += c.memo_hits;
    sum.incremental_replans += c.incremental_replans;
    sum.incremental_cold_builds += c.incremental_cold_builds;
    sum.incremental_event_rebuilds += c.incremental_event_rebuilds;
  }
  return sum;
}

/// Adds what happened between counter samples `a` and `b` to `sum`.
void add_delta(const core::EngineCounters& a, const core::EngineCounters& b,
               core::EngineCounters& sum) {
  sum.solves += b.solves - a.solves;
  sum.lp_fallback += b.lp_fallback - a.lp_fallback;
  sum.memo_hits += b.memo_hits - a.memo_hits;
  sum.incremental_replans += b.incremental_replans - a.incremental_replans;
  sum.incremental_cold_builds +=
      b.incremental_cold_builds - a.incremental_cold_builds;
  sum.incremental_event_rebuilds +=
      b.incremental_event_rebuilds - a.incremental_event_rebuilds;
}

/// Parse + solve + encode of one request with no bookkeeping.
void serve_bare(const Prepared& p, const Engines& e, size_t index,
                bool& identical) {
  service::WireRequest parsed;
  std::string error;
  service::parse_request(p.lines[index], parsed, error);
  double power_w = 0.0;
  identical &= serve_in_process(parsed, e, power_w) == p.expected[index];
}

/// The same request with a span around each layer call. Spans hold wall
/// time; the layer sums in `r` add CPU time, the unit of the daemon's
/// CPU per request (service.cpu_us_per_req) they are shares of.
void serve_traced(const Prepared& p, const Engines& e, size_t index,
                  uint64_t request_id, Clock::time_point epoch, Replay& r,
                  obs::SpanContext& fleet_spans) {
  auto at = [epoch](Clock::time_point t) { return us_between(epoch, t); };
  thread_local core::PlanResult slot;
  const int64_t root = static_cast<int64_t>(r.spans.size());
  const double c0 = cpu_us();
  const Clock::time_point t0 = Clock::now();
  r.spans.push_back({request_id, "service.request", -1, at(t0), 0.0});

  service::WireRequest parsed;
  std::string error;
  service::parse_request(p.lines[index], parsed, error);
  const Clock::time_point t1 = Clock::now();
  const double c1 = cpu_us();
  r.spans.push_back({request_id, "wire.parse", root, at(t0), us_between(t0, t1)});

  const double load = load_of(parsed, e.capacity);
  std::string bytes;
  Clock::time_point t2;
  double c2 = 0.0;
  if (e.fleet != nullptr) {
    fleet::FleetPlanRequest request;
    request.scenario = core::Scenario::by_number(parsed.scenario);
    request.load = load;
    fleet_spans.reset(parsed.id);
    request.spans = &fleet_spans;
    const fleet::FleetPlanResult result = e.fleet->solve(request);
    t2 = Clock::now();
    c2 = cpu_us();
    r.spans.push_back({request_id, "fleet.solve", root, at(t1), us_between(t1, t2)});
    bytes = service::encode_fleetplan_response(parsed.id, result);
    double slowest = 0.0;
    double sum = 0.0;
    size_t shards = 0;
    for (const obs::SpanRecord& s : fleet_spans.records()) {
      if (std::string_view(s.name) != "shard.engine.solve") continue;
      slowest = std::max(slowest, s.dur_us);
      sum += s.dur_us;
      ++shards;
    }
    r.slowest_shard_us += slowest;
    r.shard_solve_us += shards > 0 ? sum / static_cast<double>(shards) : 0.0;
  } else {
    const core::PlanRequest request(core::Scenario::by_number(parsed.scenario),
                                    load, parsed.quarantined);
    e.plan->solve_into(request, core::SolveScratch::local(), slot);
    t2 = Clock::now();
    c2 = cpu_us();
    r.spans.push_back({request_id, "engine.solve", root, at(t1), us_between(t1, t2)});
    bytes = service::encode_plan_response(parsed.id, slot);
  }
  const double c3 = cpu_us();
  const Clock::time_point t3 = Clock::now();
  r.spans.push_back({request_id, "wire.encode", root, at(t2), us_between(t2, t3)});
  r.spans[static_cast<size_t>(root)].dur_us = us_between(t0, t3);

  r.parse_us += c1 - c0;
  r.solve_us += c2 - c1;
  r.encode_us += c3 - c2;
  r.resp_bytes += static_cast<double>(bytes.size());
  r.identical &= bytes == p.expected[index];
}

/// The workload's request lines served in-process on one thread, by fresh
/// engines on the same CSV, in whole laps of the stream.
class Replayer {
 public:
  /// Builds the engines, timing the lazily built artifacts, and serves one
  /// untimed lap, as the daemon's warm-up.
  explicit Replayer(const Prepared& p)
      : p_(p), e_(p.csv_path, p.spec->fleet_shards) {
    if (e_.fleet == nullptr) {
      const Clock::time_point t0 = Clock::now();
      e_.plan->consolidator();
      r_.cold_build_s = seconds_since(t0);
    } else {
      const Clock::time_point t0 = Clock::now();
      std::vector<double> caps;
      for (size_t s = 0; s < e_.fleet->shard_count(); ++s) {
        e_.fleet->engine(s).consolidator();
        caps.push_back(e_.fleet->engine(s).aggregates().total_capacity);
      }
      r_.cold_build_s = seconds_since(t0);
      std::vector<int> scenarios;
      for (const service::WireRequest& q : p.parsed) {
        if (std::find(scenarios.begin(), scenarios.end(), q.scenario) ==
            scenarios.end()) {
          scenarios.push_back(q.scenario);
        }
      }
      const Clock::time_point t1 = Clock::now();
      for (const int scenario : scenarios) {
        e_.fleet->split_load(core::Scenario::by_number(scenario),
                             0.25 * e_.capacity, caps);
      }
      r_.frontier_build_s = seconds_since(t1);
    }
    for (size_t i = 0; i < p.lines.size(); ++i) {
      serve_bare(p, e_, i, r_.identical);
    }
    epoch_ = Clock::now();
  }

  /// Wall time of one bare lap, in seconds; not counted in the result.
  double lap_s() {
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < p_.lines.size(); ++i) {
      serve_bare(p_, e_, i, r_.identical);
    }
    return seconds_since(t0);
  }

  void bare(size_t laps) {
    const size_t n = laps * p_.lines.size();
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      serve_bare(p_, e_, i % p_.lines.size(), r_.identical);
    }
    r_.bare_us += us_between(t0, Clock::now());
    r_.bare_requests += n;
  }

  void traced(size_t laps) {
    const size_t n = laps * p_.lines.size();
    const core::EngineCounters before = counters_of(e_);
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < n; ++i) {
      serve_traced(p_, e_, i % p_.lines.size(), r_.requests++, epoch_, r_,
                   fleet_spans_);
    }
    r_.traced_us += us_between(t0, Clock::now());
    add_delta(before, counters_of(e_), r_.counters);
  }

  /// Layer probes on one lap, apart from the timed requests: the
  /// Algorithm 1 table query and the closed form on the plan's ON set, at
  /// each request's own load. A request with a quarantine list queries the
  /// table the engine would use for it, the incremental one moved to that
  /// membership (the move itself is not timed). Then per-request means.
  Replay finish() {
    r_.finish();
    if (e_.fleet != nullptr || e_.plan->consolidator() == nullptr ||
        e_.plan->analytic() == nullptr) {
      return std::move(r_);
    }
    core::PlanResult slot;
    core::ConsolidationChoice choice;
    core::ClosedFormResult closed;
    std::vector<size_t> on_set;
    std::unique_ptr<core::IncrementalConsolidator> incremental;
    std::vector<char> active;
    for (size_t i = 0; i < p_.parsed.size(); ++i) {
      const service::WireRequest& q = p_.parsed[i];
      const double load = load_of(q, e_.capacity);
      e_.plan->solve_into(
          core::PlanRequest(core::Scenario::by_number(q.scenario), load,
                            q.quarantined),
          core::SolveScratch::local(), slot);
      on_set.clear();
      const std::vector<bool>& on = slot.plan->allocation.on;
      for (size_t k = 0; k < on.size(); ++k) {
        if (on[k]) on_set.push_back(k);
      }
      if (!q.quarantined.empty()) {
        if (incremental == nullptr) {
          incremental = std::make_unique<core::IncrementalConsolidator>(
              e_.plan->shared_model());
        }
        active.assign(on.size(), 1);
        for (const size_t m : q.quarantined) active[m] = 0;
        incremental->set_active(active);
      }
      const Clock::time_point q0 = Clock::now();
      if (q.quarantined.empty()) {
        e_.plan->consolidator()->table().query_best_into(
            *e_.plan->particles(), e_.plan->planning_model(), load, choice);
      } else {
        incremental->query_best_into(load, choice);
      }
      const Clock::time_point q1 = Clock::now();
      e_.plan->analytic()->solve_into(on_set.data(), on_set.size(), load,
                                      closed);
      const Clock::time_point q2 = Clock::now();
      const uint64_t id = r_.requests + i;
      r_.spans.push_back({id, "consolidation.query_best", -1,
                          us_between(epoch_, q0), us_between(q0, q1)});
      r_.spans.push_back({id, "closed_form.solve", -1, us_between(epoch_, q1),
                          us_between(q1, q2)});
      r_.table_query_us += us_between(q0, q1);
      r_.closed_form_us += us_between(q1, q2);
    }
    r_.table_query_us /= static_cast<double>(p_.parsed.size());
    r_.closed_form_us /= static_cast<double>(p_.parsed.size());
    return std::move(r_);
  }

 private:
  const Prepared& p_;
  Engines e_;
  Replay r_;
  Clock::time_point epoch_;
  obs::SpanContext fleet_spans_;
};

void write_spans(const std::string& path, const std::vector<BenchSpan>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "request,span,name,parent,start_us,dur_us\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    std::fprintf(f, "%llu,%zu,%s,%lld,%.3f,%.3f\n",
                 static_cast<unsigned long long>(spans[i].request), i,
                 spans[i].name, static_cast<long long>(spans[i].parent),
                 spans[i].start_us, spans[i].dur_us);
  }
  std::fclose(f);
}

/// Median round trip of `line` on an idle daemon, in microseconds.
double probe_rtt_us(uint16_t port, const std::string& line, LoopStats& totals) {
  service::ServiceClient client;
  std::vector<double> rtt;
  if (!client.connect("127.0.0.1", port)) {
    ++totals.attempted;
    ++totals.lost;
    return 0.0;
  }
  client.set_timeout_ms(kTimeoutMs);
  for (size_t i = 0; i < kProbeRoundTrips; ++i) {
    ++totals.attempted;
    const Clock::time_point t0 = Clock::now();
    const std::optional<std::string> response = client.call(line);
    if (!response.has_value() ||
        response->find("\"ok\":true") == std::string::npos) {
      ++(response.has_value() ? totals.errors : totals.lost);
      return 0.0;
    }
    rtt.push_back(us_between(t0, Clock::now()));
  }
  return util::percentile(rtt, 50.0);
}

/// histogram/gauge value from a --metrics-out document; 0 when absent.
double exported(const service::JsonValue& doc, const char* family,
                const std::string& name, const char* field) {
  const service::JsonValue* metrics = doc.find("metrics");
  const service::JsonValue* group =
      metrics != nullptr ? metrics->find(family) : nullptr;
  const service::JsonValue* entry =
      group != nullptr ? group->find(name) : nullptr;
  if (entry == nullptr) return 0.0;
  if (field == nullptr) return entry->is_number() ? entry->as_number() : 0.0;
  const service::JsonValue* value = entry->find(field);
  return value != nullptr && value->is_number() ? value->as_number() : 0.0;
}

/// Rounds of a traced run. Each round measures the daemon for a share of
/// the window, then replays the same lines in-process, bare then traced or
/// traced then bare. Both sides, and the span bookkeeping overhead, so see
/// the same host: its speed drifts by 15% or more over seconds, which is
/// as much as the socket I/O the daemon adds to the replayed layers.
constexpr size_t kTraceRounds = 4;
/// How far the replayed layers may exceed the daemon's CPU per request
/// before the traced run fails. The daemon does the replayed work plus its
/// socket I/O, but that I/O is 1-10% of its CPU, and the same work in
/// another process measured up to 12% cheaper or dearer (fleetplan-n10k:
/// -11.7%). So the check guards against a broken breakdown, such as a
/// layer counted twice or a replay that does other work than the daemon;
/// `service.io_us` itself is only as exact as that.
constexpr double kLayerTolerance = 0.25;

int run_traced(const Args& args, const Prepared& p) {
  // The daemon always has a registry attached; so does the replay.
  obs::MetricsRegistry registry;
  obs::ScopedObservation scope(&registry);
  const std::string stem = args.work_dir + "/" + args.workload + "-" +
                           std::to_string(args.seed);

  // Daemon with --metrics-out: idle probes, then the window in rounds.
  const std::string metrics_path = stem + "-metrics.json";
  std::remove(metrics_path.c_str());
  LoopStats totals;
  Setup setup;
  const std::unique_ptr<Daemon> daemon =
      start_and_warm(args, p, metrics_path, totals, setup);
  service::WireRequest probe;
  probe.verb = service::Verb::kPing;
  const double ping_us =
      probe_rtt_us(daemon->port(), service::encode_request(probe), totals);
  probe.verb = service::Verb::kHealth;
  const double health_us =
      probe_rtt_us(daemon->port(), service::encode_request(probe), totals);

  Replayer replayer(p);
  const double part_s = args.seconds / kTraceRounds;
  // Replay blocks of whole laps, about half a window part each.
  const size_t laps = std::max<size_t>(
      1, static_cast<size_t>(part_s / 2.0 / replayer.lap_s()));
  std::vector<double> latency_us;
  double window_cpu_us = 0.0;
  uint64_t window_ok = 0;
  double window_s = 0.0;
  double loadgen_cpu_pct = 0.0;
  double steal = 0.0;
  bool saturated = false;
  for (size_t round = 0; round < kTraceRounds; ++round) {
    const Window w = measure_window(*daemon, p, part_s);
    totals.merge(w.stats);
    latency_us.insert(latency_us.end(), w.stats.latency_us.begin(),
                      w.stats.latency_us.end());
    window_cpu_us += w.kept_cpu_us;
    window_ok += w.kept_ok;
    window_s += w.wall_s;
    loadgen_cpu_pct += w.loadgen_cpu_pct / kTraceRounds;
    steal += w.steal_pct / kTraceRounds;
    saturated = saturated || w.generator_saturated;
    if (round % 2 == 0) {
      replayer.bare(laps);
      replayer.traced(laps);
    } else {
      replayer.traced(laps);
      replayer.bare(laps);
    }
  }
  const int status = daemon->stop();
  const bool clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  report_failures("traced run", totals);

  const Replay replay = replayer.finish();
  write_spans(stem + "-spans.csv", replay.spans);
  if (!replay.identical) {
    std::fprintf(stderr, "in-process replay bytes differ from expected\n");
  }

  service::JsonValue doc;
  std::string error;
  if (!service::parse_json(perfbench::read_file(metrics_path), doc, error)) {
    std::fprintf(stderr, "cannot read %s: %s\n", metrics_path.c_str(),
                 error.c_str());
    return 1;
  }
  const bool fleet = p.spec->fleet_shards > 0;
  const std::string verb = fleet ? "fleetplan" : "plan";
  const double admit_to_write_us = exported(
      doc, "histograms", "service.latency." + verb + "_us", "p50");
  const double high_water =
      exported(doc, "gauges", "service.queue.high_water", nullptr);

  const double cpu_us =
      window_cpu_us / static_cast<double>(std::max<uint64_t>(window_ok, 1));
  const double io_us =
      cpu_us - replay.parse_us - replay.solve_us - replay.encode_us;
  const double solves = static_cast<double>(
      std::max<uint64_t>(replay.counters.solves, 1));
  const double reqs = static_cast<double>(replay.requests);
  const double overhead_pct = replay.overhead_pct();

  // The per-layer breakdown of one request's server CPU.
  struct Share {
    const char* layer;
    double us;
  };
  const std::vector<Share> shares = {
      {"wire.parse", replay.parse_us},
      {fleet ? "fleet.solve" : "engine.solve", replay.solve_us},
      {"wire.encode", replay.encode_us},
      {"service.io (rest)", io_us},
  };
  const Share* dominant = &shares[0];
  for (const Share& s : shares) {
    if (s.us > dominant->us) dominant = &s;
  }
  std::fprintf(stderr, "\n%s seed %llu: per-layer share of %.1f us server "
               "CPU per request (%zu replayed requests)\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               cpu_us, replay.requests);
  std::fprintf(stderr, "  %-20s %12s %8s\n", "layer", "us/req", "share");
  for (const Share& s : shares) {
    std::fprintf(stderr, "  %-20s %12.1f %7.1f%%\n", s.layer, s.us,
                 100.0 * s.us / cpu_us);
  }
  std::fprintf(stderr, "  dominant layer: %s; tracing overhead %.2f%%\n",
               dominant->layer, overhead_pct);
  const bool layers_fit = io_us >= -kLayerTolerance * cpu_us;
  if (!layers_fit) {
    std::fprintf(stderr, "  FAILED: in-process layer times exceed the "
                 "daemon's CPU per request by more than %.0f%%\n",
                 100.0 * kLayerTolerance);
  } else if (io_us < 0.0) {
    std::fprintf(stderr, "  note: in-process layer times exceed the "
                 "daemon's CPU per request by %.1f%%\n",
                 -100.0 * io_us / cpu_us);
  }
  if (saturated) {
    std::fprintf(stderr, "  WARNING: load generator saturated\n");
  }

  const bool correct = replay.identical && totals.failed() == 0 && clean_exit &&
                       window_ok > 0 && layers_fit;
  print_result(
      correct, totals.attempted + replay.requests + replay.bare_requests,
      totals.failed(),
      {{"wire.encode_us", replay.encode_us, "us"},
       {"wire.parse_us", replay.parse_us, "us"},
       {"wire.resp_bytes", replay.resp_bytes, "bytes"},
       {"engine.solve_us", fleet ? replay.shard_solve_us : replay.solve_us,
        "us"},
       {"engine.memo_hit_pct",
        100.0 * static_cast<double>(replay.counters.memo_hits) / solves, "%"},
       {"engine.table_query_us", replay.table_query_us, "us"},
       {"engine.closed_form_us", replay.closed_form_us, "us"},
       {"engine.incremental_replans_per_req",
        static_cast<double>(replay.counters.incremental_replans) / reqs,
        "count"},
       {"engine.incremental_cold_builds",
        static_cast<double>(replay.counters.incremental_cold_builds), "count"},
       {"engine.event_rebuilds_per_req",
        static_cast<double>(replay.counters.incremental_event_rebuilds) / reqs,
        "count"},
       {"engine.lp_pct",
        100.0 * static_cast<double>(replay.counters.lp_fallback) / solves, "%"},
       {"engine.cold_build_s", replay.cold_build_s, "s"},
       {"fleet.solve_us", fleet ? replay.solve_us : 0.0, "us"},
       {"fleet.slowest_shard_us", replay.slowest_shard_us, "us"},
       {"fleet.frontier_build_s", replay.frontier_build_s, "s"},
       {"service.cpu_us_per_req", cpu_us, "us"},
       {"service.io_us", io_us, "us"},
       {"service.ping_rtt_us", ping_us, "us"},
       {"service.health_rtt_us", health_us, "us"},
       {"service.dispatch_hop_us", ping_us - health_us, "us"},
       {"service.admit_to_write_us", admit_to_write_us, "us"},
       {"service.queue_high_water", high_water, "count"},
       {"loadgen.rps",
        static_cast<double>(latency_us.size()) / window_s, "req/s"},
       {"loadgen.p90_ms", util::percentile(latency_us, 90.0) / 1000.0, "ms"},
       {"loadgen.cpu_pct", loadgen_cpu_pct, "%"},
       {"host.steal_pct", steal, "%"},
       {"trace_overhead_pct", overhead_pct, "%"}});
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", error.c_str());
    return 2;
  }
  try {
    const Prepared p =
        prepare(*perfbench::find_workload(args.workload), args.seed,
                args.work_dir);
    pin_to_one_cpu();
    if (args.trace == 0) return run_end_to_end(args, p);
    // cooloptd solves on a worker thread, whose malloc arena is not the
    // main thread's. Replayed on the main thread, plan-n2k-churn's solves
    // cost 5-7% more CPU than the daemon's, so the replay runs on a thread
    // of its own too.
    int status = 1;
    std::exception_ptr failure;
    std::thread traced([&] {
      try {
        status = run_traced(args, p);
      } catch (...) {
        failure = std::current_exception();
      }
    });
    traced.join();
    if (failure) std::rethrow_exception(failure);
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 1;
  }
}
