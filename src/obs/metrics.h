// Thread-safe metrics: counters, gauges, and latency histograms.
//
// Design (issue: "instrumentation must compile to near-zero cost when no
// sink is attached"): the library's hot paths never talk to a
// MetricsRegistry directly — they go through the nullable global attach
// point in obs/obs.h, so an unattached run pays one relaxed atomic load and
// a predictable branch per instrumented site. When a registry IS attached,
// instruments are looked up by name under the registry mutex and updated
// with relaxed atomics (counters/gauges) or a short critical section
// (histograms).
//
// Histograms retain exact samples up to a cap of kPercentileBudget (4096)
// and then switch to uniform reservoir sampling (Vitter's Algorithm R with
// a deterministic LCG), so p50/p95/p99 are exact up to 4096 observations
// and unbiased estimates beyond, while a histogram's memory and snapshot
// cost stay fixed no matter how many requests a daemon serves. count, sum,
// min and max are always exact.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace coolopt::obs {

class JsonWriter;

/// Monotonically increasing event count.
class Counter {
 public:
  void inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Aggregate view of a histogram at one instant.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;   ///< 0 when empty
  double max = 0.0;   ///< 0 when empty
  double mean = 0.0;  ///< 0 when empty
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

class Histogram {
 public:
  /// `sample_cap` bounds retained samples (clamped to [1,
  /// kPercentileBudget]); beyond it, reservoir sampling keeps an unbiased
  /// subset.
  explicit Histogram(size_t sample_cap = kDefaultSampleCap);

  void observe(double v);

  uint64_t count() const;
  /// Samples currently retained (at most the cap).
  size_t retained() const;
  /// Aggregates are exact; the p50/p95/p99 fields interpolate over every
  /// retained sample, so they equal percentile(). The cap bounds the copy-
  /// and-sort cost, which keeps interval snapshotting (the telemetry
  /// broadcaster samples every subscriber interval) cheap.
  HistogramSnapshot snapshot() const;
  /// Linear-interpolated percentile over the retained samples, p in [0,100].
  double percentile(double p) const;

  static constexpr size_t kPercentileBudget = 4096;
  static constexpr size_t kDefaultSampleCap = kPercentileBudget;
  static constexpr uint64_t kLcgSeed = 0x9e3779b97f4a7c15ull;

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
  size_t sample_cap_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  uint64_t lcg_ = kLcgSeed;  // deterministic reservoir stream
};

/// Point-in-time copy of every instrument in a registry, stamped with the
/// registry's monotone snapshot sequence number. Entries are sorted by name
/// (the registry maps are ordered), which telemetry_delta relies on.
struct MetricsSnapshot {
  uint64_t sequence = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  void clear() {
    sequence = 0;
    counters.clear();
    gauges.clear();
    histograms.clear();
  }
};

/// Named instrument directory. Instruments are created on first use and
/// live as long as the registry (references remain valid; the registry is
/// append-only).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Copies every instrument into `out` (reusing its buffers) and stamps it
  /// with the next value of the registry's snapshot sequence. Lock-light:
  /// the registry mutex is held only to walk the append-only maps; counter
  /// and gauge values are relaxed atomic reads and histogram snapshots take
  /// each histogram's own short lock.
  void snapshot(MetricsSnapshot& out) const;

  /// Sequence number the next snapshot() call will be stamped with, minus
  /// one — i.e. how many snapshots have been taken so far.
  uint64_t snapshot_sequence() const {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Claims the next sequence number without copying instruments — for
  /// exporters (ObsSession::flush) that serialize the registry directly but
  /// still participate in the same ordering as snapshot() consumers.
  uint64_t advance_sequence() const {
    return seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Emits {"counters":{...},"gauges":{...},"histograms":{...}} as one JSON
  /// object into an in-flight writer (callers own the enclosing document).
  void write_json(JsonWriter& w) const;
  /// Convenience: the same object as a standalone JSON document.
  void to_json(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  mutable std::atomic<uint64_t> seq_{0};
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace coolopt::obs
