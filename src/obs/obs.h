// Global observability attach points.
//
// The library's hot paths are instrumented against *nullable* globals: an
// unattached run (the default — every existing caller) pays one relaxed
// atomic pointer load and a predicted-not-taken branch per site, which is
// the "near-zero cost when no sink is attached" contract the perf suites
// hold us to. Attaching is explicit and scoped:
//
//   obs::MetricsRegistry registry;
//   obs::RunTrace trace;
//   {
//     obs::ScopedObservation scope(&registry, &trace);
//     eval.measure(...);                // instrumented internals record
//   }                                   // detached again here
//   registry.to_json(std::cout);
//
// Attach/detach is not synchronized against concurrently *running*
// instrumented code — attach before starting work, detach after it ends
// (exactly what ObsSession and ScopedObservation do).
#pragma once

#include <atomic>
#include <cstdint>

#include "obs/metrics.h"
#include "obs/run_trace.h"

namespace coolopt::obs {

namespace detail {
inline std::atomic<MetricsRegistry*> g_metrics{nullptr};
inline std::atomic<RunTrace*> g_trace{nullptr};
}  // namespace detail

/// Currently attached registry/trace, or nullptr. Inline so the unattached
/// fast path is a single relaxed load + branch at the call site, not a
/// cross-TU function call.
inline MetricsRegistry* metrics() {
  return detail::g_metrics.load(std::memory_order_relaxed);
}
inline RunTrace* trace() {
  return detail::g_trace.load(std::memory_order_relaxed);
}

/// Replaces the global sink (nullptr detaches). Returns the previous one.
inline MetricsRegistry* attach_metrics(MetricsRegistry* registry) {
  return detail::g_metrics.exchange(registry, std::memory_order_acq_rel);
}
inline RunTrace* attach_trace(RunTrace* run_trace) {
  return detail::g_trace.exchange(run_trace, std::memory_order_acq_rel);
}

/// RAII attach for a lexical scope; restores the previous sinks on exit.
class ScopedObservation {
 public:
  explicit ScopedObservation(MetricsRegistry* registry, RunTrace* run_trace = nullptr)
      : prev_metrics_(attach_metrics(registry)), prev_trace_(attach_trace(run_trace)) {}
  ~ScopedObservation() {
    attach_metrics(prev_metrics_);
    attach_trace(prev_trace_);
  }
  ScopedObservation(const ScopedObservation&) = delete;
  ScopedObservation& operator=(const ScopedObservation&) = delete;

 private:
  MetricsRegistry* prev_metrics_;
  RunTrace* prev_trace_;
};

// --- one-line instrumentation helpers (all no-ops when unattached) ---

inline void count(const char* name, uint64_t n = 1) {
  if (MetricsRegistry* m = metrics()) m->counter(name).inc(n);
}

// --- per-owner counter fields ---
//
// An owner's counters() (or stats()) snapshot is a plain struct of uint64_t
// fields that concurrent threads bump in place (relaxed, via
// std::atomic_ref). Every event site bumps its field and the registry
// counter that reports it in one count() call, so the snapshot and the
// registry cannot drift apart.

/// Adds `n` to a counter field; returns the new value.
inline uint64_t bump_counter(uint64_t& field, uint64_t n = 1) {
  std::atomic_ref<uint64_t> live(field);
  return live.fetch_add(n, std::memory_order_relaxed) + n;
}

/// Reads a counter field that bump_counter() may be updating concurrently.
/// The field is never a const object (bump_counter writes it), so a const
/// accessor may read it through std::atomic_ref<uint64_t>.
inline uint64_t load_counter(const uint64_t& field) {
  return std::atomic_ref<uint64_t>(const_cast<uint64_t&>(field))
      .load(std::memory_order_relaxed);
}

/// One event: bumps the owner's `*field` and the registry counter `name`.
inline void count(const char* name, uint64_t* field, uint64_t n = 1) {
  bump_counter(*field, n);
  if (MetricsRegistry* m = metrics()) m->counter(name).inc(n);
}

inline void gauge_set(const char* name, double v) {
  if (MetricsRegistry* m = metrics()) m->gauge(name).set(v);
}

inline void observe(const char* name, double v) {
  if (MetricsRegistry* m = metrics()) m->histogram(name).observe(v);
}

/// Histogram handle for ScopedTimer sites; nullptr when unattached.
inline Histogram* maybe_histogram(const char* name) {
  MetricsRegistry* m = metrics();
  return m != nullptr ? &m->histogram(name) : nullptr;
}

}  // namespace coolopt::obs
