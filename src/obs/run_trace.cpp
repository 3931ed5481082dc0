#include "obs/run_trace.h"

#include <ostream>
#include <utility>

#include "obs/json_writer.h"
#include "util/csv.h"
#include "util/strings.h"

namespace coolopt::obs {

RunTrace::RunTrace(TraceOptions options) : options_(options) {}

void RunTrace::record_step(StepSample sample) {
  std::lock_guard<std::mutex> lock(mu_);
  if (steps_.size() >= options_.max_steps) {
    ++dropped_steps_;
    return;
  }
  steps_.push_back(std::move(sample));
}

void RunTrace::record_solve(SolveSample sample) {
  std::lock_guard<std::mutex> lock(mu_);
  if (solves_.size() >= options_.max_solves) {
    ++dropped_solves_;
    return;
  }
  solves_.push_back(std::move(sample));
}

void RunTrace::record_event(EventSample sample) {
  std::lock_guard<std::mutex> lock(mu_);
  if (events_.size() >= options_.max_events) {
    ++dropped_events_;
    return;
  }
  events_.push_back(std::move(sample));
}

std::vector<StepSample> RunTrace::steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_;
}

std::vector<SolveSample> RunTrace::solves() const {
  std::lock_guard<std::mutex> lock(mu_);
  return solves_;
}

std::vector<EventSample> RunTrace::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

size_t RunTrace::step_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return steps_.size();
}

size_t RunTrace::dropped_steps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_steps_;
}

namespace {

void write_series(JsonWriter& w, std::string_view name,
                  const std::vector<double>& xs) {
  w.key(name);
  w.begin_array();
  for (const double x : xs) w.value(x);
  w.end_array();
}

}  // namespace

void RunTrace::write_json(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();

  w.key("steps");
  w.begin_array();
  for (const StepSample& s : steps_) {
    w.begin_object();
    w.kv("time_s", s.time_s);
    w.kv("steady", s.steady);
    w.kv("t_ac_c", s.t_ac_c);
    w.kv("t_return_c", s.t_return_c);
    w.kv("p_ac_w", s.p_ac_w);
    w.kv("p_it_w", s.p_it_w);
    w.kv("p_total_w", s.p_total_w);
    w.kv("peak_cpu_c", s.peak_cpu_c);
    if (!s.server_load_files_s.empty()) {
      write_series(w, "server_load_files_s", s.server_load_files_s);
      write_series(w, "server_power_w", s.server_power_w);
      write_series(w, "server_cpu_c", s.server_cpu_c);
    }
    w.end_object();
  }
  w.end_array();

  w.key("solves");
  w.begin_array();
  for (const SolveSample& s : solves_) {
    w.begin_object();
    w.kv("solver", s.solver);
    w.kv("n", s.n);
    w.kv("solve_us", s.solve_us);
    w.kv("feasible", s.feasible);
    w.kv("residual", s.residual);
    w.end_object();
  }
  w.end_array();

  w.key("events");
  w.begin_array();
  for (const EventSample& e : events_) {
    w.begin_object();
    w.kv("time_s", e.time_s);
    w.kv("kind", e.kind);
    w.kv("value", e.value);
    w.kv("detail", e.detail);
    w.end_object();
  }
  w.end_array();

  w.kv("dropped_steps", static_cast<uint64_t>(dropped_steps_));
  w.kv("dropped_solves", static_cast<uint64_t>(dropped_solves_));
  w.kv("dropped_events", static_cast<uint64_t>(dropped_events_));
  w.end_object();
}

void RunTrace::to_json(std::ostream& os) const {
  std::string json;
  JsonWriter w(json);
  write_json(w);
  os << json;
}

void RunTrace::steps_to_csv(std::ostream& os) const {
  util::CsvWriter w(os, {"time_s", "steady", "t_ac_c", "t_return_c", "p_ac_w",
                         "p_it_w", "p_total_w", "peak_cpu_c"});
  std::lock_guard<std::mutex> lock(mu_);
  for (const StepSample& s : steps_) {
    w.row({util::strf("%.6g", s.time_s), s.steady ? "1" : "0",
           util::strf("%.6g", s.t_ac_c), util::strf("%.6g", s.t_return_c),
           util::strf("%.6g", s.p_ac_w), util::strf("%.6g", s.p_it_w),
           util::strf("%.6g", s.p_total_w), util::strf("%.6g", s.peak_cpu_c)});
  }
}

}  // namespace coolopt::obs
