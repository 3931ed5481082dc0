// Configuration of the simulated machine room.
//
// Defaults approximate the paper's testbed: one rack of 20 Dell PowerEdge
// R210-class 1U servers in a small machine room cooled by a Liebert
// Challenger 3000-class CRAC that supplies cool air from the ceiling and
// holds the *return* (exhaust) air at an operator set point T_SP.
//
// Temperatures are degrees Celsius, powers Watts, flows m^3/s throughout.
#pragma once

#include <cstdint>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

namespace coolopt::sim {

/// Per-server ground-truth parameters (before per-unit manufacturing jitter).
struct ServerConfig {
  // --- power ---
  double idle_power_w = 36.0;      ///< draw at 0% load, machine ON
  double peak_delta_w = 59.0;      ///< extra draw at 100% load
  double standby_power_w = 0.0;    ///< draw when switched OFF (0 == unplugged)
  /// Mild concavity of the real P(u) curve: P = idle + delta*(u + nl*u*(1-u)).
  /// The paper's linear Eq. 9 is a fit; nl > 0 gives that fit a realistic
  /// sub-percent residual.
  double power_nonlinearity = 0.06;

  // --- capacity ---
  double capacity_files_s = 40.0;  ///< max html files/s (the paper's workload)

  // --- thermals (Eq. 1-2 parameters) ---
  double cpu_heat_capacity = 450.0;   ///< nu_cpu, J/K (CPU + heatsink)
  double box_heat_capacity = 40.0;    ///< nu_box, J/K (chassis air)
  double cpu_box_exchange = 4.0;      ///< theta_cpu_box, W/K
  double fan_flow_m3s = 0.020;        ///< F_in == F_out while ON
  double off_flow_m3s = 0.0015;       ///< passive draft when OFF
  /// Fraction of electrical power dissipated at the CPU die; the rest heats
  /// the chassis air directly (PSU, DIMMs, drives).
  double cpu_heat_fraction = 0.65;
};

/// CRAC (computer-room air conditioner) ground truth.
struct CracConfig {
  double flow_m3s = 0.34;           ///< f_ac, held constant by the unit
  double c_air = 1210.0;            ///< J/(K m^3) volumetric heat capacity
  double fan_power_w = 140.0;       ///< constant circulation fan draw
  double max_cooling_w = 12000.0;   ///< chilled-water coil capacity
  double min_supply_c = 8.0;        ///< lowest achievable supply temperature

  /// Coefficient of performance at `cop_ref_temp_c`, and its slope per K of
  /// supply temperature. Rising COP with warmer supply air is one of the
  /// two physical mechanisms that make raising T_ac save energy (the other
  /// is envelope heat exchange, RoomConfig::wall_conductance_w_k); the
  /// paper's linear P_ac = c*f_ac*(T_SP - T_ac) model linearizes both.
  double cop_ref = 2.4;
  double cop_ref_temp_c = 15.0;
  double cop_slope_per_k = 0.20;
  double cop_min = 1.2;

  // PI controller holding return air at the set point.
  double pi_kp = 900.0;             ///< W per K of error
  double pi_ki = 25.0;              ///< W per (K*s)
  double control_period_s = 1.0;

  double default_setpoint_c = 24.0; ///< T_SP on power-up
};

/// Room geometry / airflow ground truth.
struct RoomConfig {
  size_t num_servers = 20;

  /// Racks in the room; servers are assigned to racks in contiguous blocks
  /// (server i sits in rack i / ceil(num_servers/num_racks)). The paper
  /// formulates load distribution "within or across racks"; with more than
  /// one rack the vent-distance penalty below adds cross-rack thermal
  /// diversity on top of the within-rack height gradient.
  size_t num_racks = 1;
  /// Extra recirculation per rack index beyond the first (racks farther
  /// from the CRAC vent breathe warmer air).
  double rack_recirc_penalty = 0.06;

  double ambient_heat_capacity = 6.0e4;  ///< J/K (~50 m^3 of air)
  /// Envelope exchange with the climate-controlled building: conduction
  /// through walls plus door/plenum air infiltration. Small machine rooms
  /// are leaky; a warm room exports a substantial share of its heat this
  /// way, which is the second reason warm supply air saves CRAC energy.
  double wall_conductance_w_k = 140.0;
  double outside_temp_c = 24.0;          ///< building corridor temperature

  /// Recirculation fraction of a server's intake drawn from warm room air
  /// instead of the cold supply stream, interpolated linearly from the
  /// bottom slot to the top slot (cool air falls: bottom machines sit in
  /// the cooler spot, as in the paper's testbed).
  double recirc_bottom = 0.05;
  double recirc_top = 0.68;

  /// Per-slot fan-flow derating from bottom to top (supply pressure drops
  /// along the rack), multiplicative on ServerConfig::fan_flow_m3s.
  double flow_derate_top = 0.82;

  /// Relative per-unit manufacturing jitter applied to power and thermal
  /// parameters (stddev, e.g. 0.02 == 2%).
  double unit_jitter = 0.02;

  /// Idiosyncratic per-unit airflow variation (fan aging, dust, cabling;
  /// stddev, relative). Deliberately larger than unit_jitter and
  /// UNCORRELATED with rack position: it makes "coolest spot at idle" an
  /// imperfect proxy for "easiest to cool under load", which is exactly
  /// the gap between the cool-job-allocation heuristic and the paper's
  /// optimal distribution.
  double airflow_jitter = 0.24;

  /// Per-unit CPU-to-air heat-exchange variation (heatsink mounting, paste
  /// quality; stddev, relative). Like airflow_jitter, it decorrelates
  /// "cool spot" from "easy to cool".
  double exchange_jitter = 0.15;

  /// Scales the spatial diversity of the room: 1.0 keeps recirc/flow
  /// gradients as configured, 0.0 collapses every slot to the mean (used by
  /// the diversity-ablation bench).
  double diversity_scale = 1.0;

  uint64_t seed = 42;

  ServerConfig server;
  CracConfig crac;

  /// Heterogeneous fleets: when non-empty, overrides `num_servers`/`server`
  /// — the room is built from these blocks in order (e.g. 12 old nodes
  /// followed by 8 new ones). Rack/slot geometry still follows the global
  /// index. The paper assumes a homogeneous fleet; heterogeneous power
  /// models route the optimizer through the bounded solver (see
  /// PlanEngine).
  struct FleetBlock {
    ServerConfig server;
    size_t count = 0;
  };
  std::vector<FleetBlock> fleet;

  /// Servers in the room after accounting for `fleet`.
  size_t total_servers() const {
    if (fleet.empty()) return num_servers;
    size_t n = 0;
    for (const FleetBlock& b : fleet) n += b.count;
    return n;
  }

  // --- sensors ---
  double power_meter_noise_w = 0.35;     ///< Watts-up-Pro-like meter noise
  double power_meter_quantum_w = 0.1;
  double temp_sensor_noise_c = 0.25;     ///< lm-sensors readout noise
  double temp_sensor_quantum_c = 1.0;    ///< integer-degree readout

  // --- failure injection (all off by default) ---
  /// Probability per sample that a plug meter glitches by +- spike size
  /// (loose plugs and RF interference do this to real Watts-up meters).
  double power_meter_spike_prob = 0.0;
  double power_meter_spike_w = 300.0;
  /// Probability per sample that the temperature readout repeats its last
  /// value (an lm-sensors bus hiccup: the register is stale, not wrong).
  double temp_sensor_stuck_prob = 0.0;
};

/// Faults to inject for the duration of one measurement: failed server fans
/// (MachineRoom::set_fan_failed) and the sensor-level failure knobs above.
/// The evaluation layer routes these through one entry point
/// (control::EvalEngine::measure_faulted) so robustness studies do not
/// mutate shared rooms ad hoc.
struct FaultPlan {
  /// Server indices whose fans have failed (passive draft only).
  std::vector<size_t> failed_fans;
  /// Sensor faults, folded into the room's instrument configuration when
  /// positive (zero keeps the configured value).
  double power_meter_spike_prob = 0.0;
  double power_meter_spike_w = 300.0;
  double temp_sensor_stuck_prob = 0.0;

  bool empty() const {
    return failed_fans.empty() && power_meter_spike_prob <= 0.0 &&
           temp_sensor_stuck_prob <= 0.0;
  }

  /// Rejects fault targets that don't exist in a room of `total_servers`
  /// machines. Called by every consumer (EvalEngine::measure_faulted,
  /// FaultScheduler) before the plan can touch a room.
  void validate(size_t total_servers) const {
    for (size_t idx : failed_fans) {
      if (idx >= total_servers) {
        throw std::invalid_argument(
            "FaultPlan: failed-fan index " + std::to_string(idx) +
            " out of range (room has " + std::to_string(total_servers) +
            " servers)");
      }
    }
  }

  /// The room configuration with the sensor faults applied. Fan failures
  /// are runtime state, not configuration — the caller applies them to the
  /// built room via MachineRoom::set_fan_failed.
  RoomConfig applied_to(RoomConfig cfg) const {
    if (power_meter_spike_prob > 0.0) {
      cfg.power_meter_spike_prob = power_meter_spike_prob;
      cfg.power_meter_spike_w = power_meter_spike_w;
    }
    if (temp_sensor_stuck_prob > 0.0) {
      cfg.temp_sensor_stuck_prob = temp_sensor_stuck_prob;
    }
    return cfg;
  }
};

}  // namespace coolopt::sim
