// Simulator performance: how expensive are the substrate's primitives —
// one transient RK4 step, a controlled steady-state solve, and a full fast
// profiling campaign — as the room grows. Guides users sizing their own
// experiments (the figure benches run thousands of settles).
//
// Rows only (median per-call times); writes BENCH_simulator.json
// (bench/report.h).

#include "bench/report.h"
#include "obs/session.h"
#include "profiling/profiler.h"
#include "sim/room.h"

using namespace coolopt;

namespace {

sim::RoomConfig room_of(size_t n) {
  sim::RoomConfig cfg;
  cfg.num_servers = n;
  cfg.seed = 3;
  // Keep the CRAC sized to the fleet so large rooms stay physical.
  const double scale = static_cast<double>(n) / 20.0;
  cfg.crac.flow_m3s *= scale;
  cfg.crac.max_cooling_w *= scale;
  cfg.wall_conductance_w_k *= scale;
  cfg.ambient_heat_capacity *= scale;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  obs::ObsSession obs_session(argc, argv);
  bench::Report report("simulator");
  util::CliFlags flags;
  if (const int rc =
          report.parse_flags(flags, argc, argv, "simulator performance");
      rc >= 0) {
    return rc;
  }

  for (size_t n = 8; n <= 256; n *= 2) {
    sim::MachineRoom room(room_of(n));
    room.set_uniform_utilization(0.6);
    report.row(util::strf("transient_step/%zu", n),
               bench::median_us([&] { room.step(0.5); }), "us");
  }
  for (size_t n = 8; n <= 128; n *= 2) {
    sim::MachineRoom room(room_of(n));
    double u = 0.3;
    report.row(util::strf("controlled_settle/%zu", n), bench::median_us([&] {
                 // Alternate operating points so the solve is never a no-op.
                 u = u > 0.5 ? 0.3 : 0.7;
                 room.set_uniform_utilization(u);
                 room.settle();
                 bench::keep(room.total_power_w());
               }),
               "us");
  }
  for (const size_t n : {size_t{8}, size_t{20}}) {
    report.row(util::strf("fast_profiling_campaign/%zu", n),
               bench::median_us([&] {
                 sim::MachineRoom room(room_of(n));
                 bench::keep(profiling::profile_room(
                     room, profiling::ProfilingOptions::fast()));
               }) / 1000.0,
               "ms");
  }
  sim::MachineRoom room(room_of(20));
  room.set_uniform_utilization(0.5);
  room.settle();
  size_t i = 0;
  report.row("sensor_read/20", bench::median_us([&] {
               bench::keep(room.read_cpu_temp_c(i));
               i = (i + 1) % room.size();
             }),
             "us");
  return report.finish();
}
