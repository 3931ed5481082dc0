// Telemetry streaming support: snapshot deltas.
//
// A streaming tick is "what changed since the subscriber's last snapshot":
// telemetry_delta() merges two sorted MetricsSnapshot instances and keeps
// the entries that are new or whose value moved (histograms compare by
// count — a histogram with no new observations is unchanged by
// construction). Against a default-constructed snapshot the delta is the
// full baseline, which is exactly what a subscriber's first tick should be.
// The registry is the only store: a consumer that wants a metric's history
// keeps the ticks it receives.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace coolopt::obs {

/// Changed-entries view between two snapshots of the same registry.
/// Values are cumulative (the new value), not differences — a consumer
/// that wants rates divides by the tick interval itself.
struct MetricsDelta {
  uint64_t from_sequence = 0;
  uint64_t to_sequence = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  void clear() {
    from_sequence = 0;
    to_sequence = 0;
    counters.clear();
    gauges.clear();
    histograms.clear();
  }
};

/// Fills `out` (reusing its buffers) with every entry of `cur` that is
/// absent from `prev` or carries a different value. Both snapshots must
/// come from the same registry (entries sorted by name); instruments never
/// disappear because registries are append-only.
void telemetry_delta(const MetricsSnapshot& prev, const MetricsSnapshot& cur,
                     MetricsDelta& out);

}  // namespace coolopt::obs
