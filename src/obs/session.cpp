#include "obs/session.h"

#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "obs/json_writer.h"
#include "obs/obs.h"
#include "util/log.h"
#include "util/strings.h"

namespace coolopt::obs {
namespace {

/// If `arg` is `--NAME=VALUE` or `--NAME` (value in the next slot), fills
/// `value` and returns how many argv slots were consumed (0 = no match).
size_t match_flag(const std::vector<std::string>& args, size_t i,
                  const std::string& name, std::string& value) {
  const std::string eq = "--" + name + "=";
  if (util::starts_with(args[i], eq)) {
    value = args[i].substr(eq.size());
    return 1;
  }
  if (args[i] == "--" + name && i + 1 < args.size()) {
    value = args[i + 1];
    return 2;
  }
  return 0;
}

}  // namespace

std::vector<std::string> strip_obs_flags(const std::vector<std::string>& args,
                                         std::string& metrics_out,
                                         std::string& trace_out) {
  std::vector<std::string> rest;
  rest.reserve(args.size());
  for (size_t i = 0; i < args.size(); ++i) {
    size_t used = match_flag(args, i, "metrics-out", metrics_out);
    if (used == 0) used = match_flag(args, i, "trace-out", trace_out);
    if (used == 0) {
      rest.push_back(args[i]);
    } else {
      i += used - 1;
    }
  }
  return rest;
}

ObsSession::ObsSession(int& argc, char** argv) {
  // Consume our flags and compact argv in place (argv entries are stable
  // C strings owned by the runtime; only the pointers move).
  int w = 1;
  for (int r = 1; r < argc; ++r) {
    const std::string cur(argv[r]);
    if (util::starts_with(cur, "--metrics-out=")) {
      metrics_path_ = cur.substr(std::string("--metrics-out=").size());
      continue;
    }
    if (cur == "--metrics-out" && r + 1 < argc) {
      metrics_path_ = argv[++r];
      continue;
    }
    if (util::starts_with(cur, "--trace-out=")) {
      trace_path_ = cur.substr(std::string("--trace-out=").size());
      continue;
    }
    if (cur == "--trace-out" && r + 1 < argc) {
      trace_path_ = argv[++r];
      continue;
    }
    argv[w++] = argv[r];
  }
  if (w != argc) {
    argc = w;
    argv[argc] = nullptr;
  }

  if (metrics_path_.empty()) {
    if (const char* env = std::getenv("COOLOPT_METRICS_OUT")) metrics_path_ = env;
  }
  if (trace_path_.empty()) {
    if (const char* env = std::getenv("COOLOPT_TRACE_OUT")) trace_path_ = env;
  }
  init();
}

ObsSession::ObsSession(std::string metrics_out, std::string trace_out)
    : metrics_path_(std::move(metrics_out)), trace_path_(std::move(trace_out)) {
  init();
}

void ObsSession::init() {
  if (metrics_path_.empty() && trace_path_.empty()) return;
  registry_ = std::make_unique<MetricsRegistry>();
  trace_ = std::make_unique<RunTrace>();
  attach_metrics(registry_.get());
  attach_trace(trace_.get());
}

void ObsSession::flush() {
  if (!active()) return;
  if (!metrics_path_.empty()) {
    std::ofstream os(metrics_path_);
    if (!os) {
      throw std::runtime_error("ObsSession: cannot open " + metrics_path_);
    }
    std::string json;
    JsonWriter w(json);
    w.begin_object();
    w.kv("schema", "coolopt.obs.v1");
    w.kv("sequence", registry_->advance_sequence());
    w.key("metrics");
    registry_->write_json(w);
    w.key("trace");
    trace_->write_json(w);
    w.end_object();
    os << json << "\n";
  }
  if (!trace_path_.empty()) {
    std::ofstream os(trace_path_);
    if (!os) {
      throw std::runtime_error("ObsSession: cannot open " + trace_path_);
    }
    trace_->steps_to_csv(os);
  }
}

ObsSession::~ObsSession() {
  if (!active()) return;
  // Detach before exporting so the export itself is not instrumented.
  if (metrics() == registry_.get()) attach_metrics(nullptr);
  if (obs::trace() == trace_.get()) attach_trace(nullptr);
  try {
    flush();
  } catch (const std::exception& e) {
    util::log_error("ObsSession: %s", e.what());
  }
}

}  // namespace coolopt::obs
