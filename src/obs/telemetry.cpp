#include "obs/telemetry.h"

namespace coolopt::obs {

namespace {

/// Two-pointer merge over name-sorted entry lists: keep `cur` entries that
/// are new or whose value differs under `changed`.
template <typename Value, typename Changed>
void merge_changed(const std::vector<std::pair<std::string, Value>>& prev,
                   const std::vector<std::pair<std::string, Value>>& cur,
                   std::vector<std::pair<std::string, Value>>& out,
                   Changed changed) {
  out.clear();
  size_t i = 0;
  for (const auto& entry : cur) {
    while (i < prev.size() && prev[i].first < entry.first) ++i;
    if (i < prev.size() && prev[i].first == entry.first) {
      if (changed(prev[i].second, entry.second)) out.push_back(entry);
    } else {
      out.push_back(entry);  // new since prev
    }
  }
}

}  // namespace

void telemetry_delta(const MetricsSnapshot& prev, const MetricsSnapshot& cur,
                     MetricsDelta& out) {
  out.from_sequence = prev.sequence;
  out.to_sequence = cur.sequence;
  merge_changed(prev.counters, cur.counters, out.counters,
                [](uint64_t a, uint64_t b) { return a != b; });
  merge_changed(prev.gauges, cur.gauges, out.gauges,
                [](double a, double b) { return a != b; });
  merge_changed(prev.histograms, cur.histograms, out.histograms,
                [](const HistogramSnapshot& a, const HistogramSnapshot& b) {
                  return a.count != b.count;
                });
}

}  // namespace coolopt::obs
