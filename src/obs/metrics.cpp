#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "obs/json_writer.h"

namespace coolopt::obs {

Histogram::Histogram(size_t sample_cap)
    : sample_cap_(std::clamp<size_t>(sample_cap, 1, kPercentileBudget)) {
  samples_.reserve(std::min<size_t>(sample_cap_, 1024));
}

void Histogram::observe(double v) {
  std::lock_guard<std::mutex> lock(mu_);
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  if (samples_.size() < sample_cap_) {
    samples_.push_back(v);
    return;
  }
  // Reservoir (Algorithm R): keep sample i with probability cap/i.
  lcg_ = lcg_ * 6364136223846793005ull + 1442695040888963407ull;
  const uint64_t slot = (lcg_ >> 16) % count_;
  if (slot < sample_cap_) samples_[slot] = v;
}

uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

size_t Histogram::retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

double Histogram::percentile(double p) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0.0;
  if (!(p >= 0.0 && p <= 100.0)) {
    throw std::invalid_argument("Histogram::percentile: p outside [0,100]");
  }
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  std::vector<double> sorted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.count = count_;
    s.sum = sum_;
    s.min = count_ > 0 ? min_ : 0.0;
    s.max = count_ > 0 ? max_ : 0.0;
    s.mean = count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
    sorted = samples_;  // at most kPercentileBudget samples
  }
  if (!sorted.empty()) {
    std::sort(sorted.begin(), sorted.end());
    const auto at = [&](double p) {
      const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
      const size_t lo = static_cast<size_t>(rank);
      const size_t hi = std::min(lo + 1, sorted.size() - 1);
      const double frac = rank - static_cast<double>(lo);
      return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
    };
    s.p50 = at(50.0);
    s.p95 = at(95.0);
    s.p99 = at(99.0);
  }
  return s;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::snapshot(MetricsSnapshot& out) const {
  out.counters.clear();
  out.gauges.clear();
  out.histograms.clear();
  // Collect stable instrument pointers under the registry lock, then read
  // values after releasing it: instruments are never destroyed while the
  // registry lives, so emitters only ever contend on their own instrument.
  thread_local std::vector<std::pair<const std::string*, const Counter*>> cs;
  thread_local std::vector<std::pair<const std::string*, const Gauge*>> gs;
  thread_local std::vector<std::pair<const std::string*, const Histogram*>> hs;
  cs.clear();
  gs.clear();
  hs.clear();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) cs.emplace_back(&name, c.get());
    for (const auto& [name, g] : gauges_) gs.emplace_back(&name, g.get());
    for (const auto& [name, h] : histograms_) hs.emplace_back(&name, h.get());
  }
  out.counters.reserve(cs.size());
  out.gauges.reserve(gs.size());
  out.histograms.reserve(hs.size());
  for (const auto& [name, c] : cs) out.counters.emplace_back(*name, c->value());
  for (const auto& [name, g] : gs) out.gauges.emplace_back(*name, g->value());
  for (const auto& [name, h] : hs) out.histograms.emplace_back(*name, h->snapshot());
  out.sequence = advance_sequence();
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.kv(name, c->value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.kv(name, g->value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    const HistogramSnapshot s = h->snapshot();
    w.key(name);
    w.begin_object();
    w.kv("count", s.count);
    w.kv("sum", s.sum);
    w.kv("min", s.min);
    w.kv("max", s.max);
    w.kv("mean", s.mean);
    w.kv("p50", s.p50);
    w.kv("p95", s.p95);
    w.kv("p99", s.p99);
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

void MetricsRegistry::to_json(std::ostream& os) const {
  std::string json;
  JsonWriter w(json);
  write_json(w);
  os << json;
}

}  // namespace coolopt::obs
