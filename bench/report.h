// The one result format of the perf benches (bench/perf_*.cpp and
// bench/robustness_campaign.cpp).
//
// A Report holds three kinds of fact and writes them as one JSON document:
//
//   host   hardware threads, compiler and build type of the binary;
//   rows   measured quantities: {name, value, unit};
//   gates  checked targets: {name, value, op, bound, pass}, where pass is
//          `value op bound`, so the bound is the gate's tolerance band and
//          the verdict can be re-derived from the artifact alone.
//
// The document's top-level "pass" is the AND of its gates. The committed
// artifacts under bench/baselines/ and tools/check_bench.sh read only this
// schema:
//
//   {"bench":"engine",
//    "host":{"hardware_threads":4,"compiler":"gcc 12.2.0",
//            "build_type":"RelWithDebInfo"},
//    "rows":[{"name":"closed_form.solve/8","value":0.12,"unit":"us"}, ...],
//    "gates":[{"name":"warm_path.plan_mismatches/200","value":0,"op":"==",
//              "bound":0,"pass":true}, ...],
//    "pass":true}
//
// Also here: the median-of-repeats timer, and the SKU-structured room the
// engine and scale benches plan over.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/synthetic.h"
#include "obs/json_writer.h"
#include "util/cli.h"
#include "util/strings.h"
#include "util/table.h"

#ifndef COOLOPT_BUILD_TYPE
#define COOLOPT_BUILD_TYPE "unknown"
#endif

namespace coolopt::bench {

/// Keeps `value` (and everything it points to) observable, so the
/// optimizer cannot drop the computation that produced it.
template <typename T>
inline void keep(const T& value) {
  asm volatile("" : : "r,m"(value) : "memory");
}

/// Microseconds since `t0`.
inline double us_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Milliseconds since `t0`.
inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return us_since(t0) / 1000.0;
}

/// Median of `samples` (the upper median for an even count).
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

/// Per-call time of `fn` in microseconds: the median of 5 samples. A
/// first, uncounted call sizes the samples: each runs `fn` often enough to
/// fill 10 ms, so calls far below the clock's resolution still time
/// truly; a call slower than that runs once per sample.
template <typename Fn>
double median_us(Fn&& fn) {
  constexpr size_t kSamples = 5;
  constexpr double kMinSampleUs = 10000.0;
  auto t0 = std::chrono::steady_clock::now();
  fn();
  const double first_us = us_since(t0);
  const size_t iters =
      first_us >= kMinSampleUs
          ? 1
          : static_cast<size_t>(kMinSampleUs / std::max(first_us, 0.01)) + 1;
  std::vector<double> samples;
  samples.reserve(kSamples);
  for (size_t r = 0; r < kSamples; ++r) {
    t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iters; ++i) fn();
    samples.push_back(us_since(t0) / static_cast<double>(iters));
  }
  return median(std::move(samples));
}

/// SKU-structured room: `skus` machine classes replicated across `machines`
/// slots, with 3x capacity headroom so per-machine caps stay slack at the
/// benches' operating points. Solves then stay on the closed form, and the
/// timings isolate the Algorithm 1 table and its n-scaling rather than LP
/// fallbacks. Real fleets are built from a few classes, and the event
/// table stays compact at any n.
inline core::RoomModel sku_model(size_t machines, size_t skus, uint64_t seed) {
  core::SyntheticModelOptions opt;
  opt.machines = machines;
  opt.seed = seed;
  core::RoomModel model = core::make_synthetic_model(opt);
  for (size_t i = skus; i < model.size(); ++i) {
    model.machines[i] = model.machines[i % skus];
  }
  for (core::MachineModel& m : model.machines) m.capacity *= 3.0;
  return model;
}

class Report {
 public:
  explicit Report(std::string bench)
      : bench_(std::move(bench)), json_out_("BENCH_" + bench_ + ".json") {}

  /// Defines --json-out (default BENCH_<bench>.json) beside the bench's own
  /// flags and parses argv. Returns -1 when the bench should run, else the
  /// exit code for main: 0 after --help, 2 on a bad flag.
  int parse_flags(util::CliFlags& flags, int argc, char** argv,
                  const char* summary) {
    flags.define("json-out", "machine-readable results path", json_out_);
    std::string error;
    if (!flags.parse(argc, argv, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    if (flags.help_requested()) {
      std::printf("%s", flags.usage(summary).c_str());
      return 0;
    }
    json_out_ = flags.get_string("json-out", json_out_);
    return -1;
  }

  /// A measured quantity.
  void row(std::string name, double value, std::string unit) {
    rows_.push_back({std::move(name), value, std::move(unit)});
  }

  /// A checked target, `value op bound` with op one of >=, >, <=, <, ==.
  void gate(std::string name, double value, const char* op, double bound) {
    const std::string o = op;
    const bool pass = o == ">=" ? value >= bound
                      : o == ">"  ? value > bound
                      : o == "<=" ? value <= bound
                      : o == "<"  ? value < bound
                      : o == "==" ? value == bound
                                  : throw std::invalid_argument("gate op " + o);
    gates_.push_back({std::move(name), value, o, bound, pass});
  }

  /// The AND of every gate.
  bool pass() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const Gate& g) { return g.pass; });
  }

  /// print(), write() to the --json-out path, and the process exit code:
  /// 0 when every gate passes, 1 when one fails, 2 when the artifact
  /// cannot be written.
  int finish() const {
    print();
    if (!write(json_out_)) {
      std::fprintf(stderr, "cannot write %s\n", json_out_.c_str());
      return 2;
    }
    std::printf("(JSON written to %s)\n", json_out_.c_str());
    return pass() ? 0 : 1;
  }

 private:
  /// Prints the rows and gates as two tables, then the verdict.
  void print() const {
    util::TextTable rows({"row", "value", "unit"});
    for (const Row& r : rows_) {
      rows.row({r.name, util::strf("%.6g", r.value), r.unit});
    }
    std::printf("%s\n", rows.render().c_str());
    util::TextTable gates({"gate", "value", "bound", "verdict"});
    for (const Gate& g : gates_) {
      gates.row({g.name, util::strf("%.6g", g.value),
                 g.op + " " + util::strf("%.6g", g.bound),
                 g.pass ? "PASS" : "FAIL"});
    }
    if (!gates_.empty()) std::printf("%s\n", gates.render().c_str());
    std::printf("%s: %s\n", bench_.c_str(), pass() ? "PASS" : "FAIL");
  }

  /// Writes the JSON document to `path`; false when it cannot be opened.
  bool write(const std::string& path) const {
    std::string json;
    obs::JsonWriter w(json);
    w.begin_object();
    w.kv("bench", bench_);
    w.key("host");
    w.begin_object();
    w.kv("hardware_threads",
         static_cast<uint64_t>(std::thread::hardware_concurrency()));
    w.kv("compiler", compiler());
    w.kv("build_type", COOLOPT_BUILD_TYPE);
    w.end_object();
    w.key("rows");
    w.begin_array();
    for (const Row& r : rows_) {
      w.begin_object();
      w.kv("name", r.name);
      w.kv("value", r.value);
      w.kv("unit", r.unit);
      w.end_object();
    }
    w.end_array();
    w.key("gates");
    w.begin_array();
    for (const Gate& g : gates_) {
      w.begin_object();
      w.kv("name", g.name);
      w.kv("value", g.value);
      w.kv("op", g.op);
      w.kv("bound", g.bound);
      w.kv("pass", g.pass);
      w.end_object();
    }
    w.end_array();
    w.kv("pass", pass());
    w.end_object();
    std::ofstream out(path);
    if (!out) return false;
    out << json << "\n";
    return static_cast<bool>(out);
  }

  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  struct Gate {
    std::string name;
    double value;
    std::string op;
    double bound;
    bool pass;
  };

  static std::string compiler() {
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
  }

  std::string bench_;
  std::string json_out_;
  std::vector<Row> rows_;
  std::vector<Gate> gates_;
};

}  // namespace coolopt::bench
