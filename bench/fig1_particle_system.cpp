// Reproduces Fig. 1: the one-dimensional particle system behind the
// consolidation algorithm (Section III-B).
//
// The figure illustrates an n = 4, k = 2 system where only two crossing
// events occur, so only three coordinate orders ever exist — and for k = 2
// only two distinct top-2 subsets need checking instead of all C(4,2) = 6.
// This binary prints the construction end to end: particles, events,
// per-segment orders, and the top-k candidates the algorithm actually
// examines, then checks the counting argument.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <set>

#include "core/incremental.h"
#include "obs/session.h"
#include "tests/oracle/consolidation.h"
#include "util/strings.h"
#include "util/table.h"

using namespace coolopt;

namespace {

/// Inverse of the Eq. 23 reduction: a model whose particles are (a_i, b_i).
core::RoomModel model_from_particles(const std::vector<double>& a,
                                     const std::vector<double>& b) {
  core::RoomModel model;
  const double w1 = 1.0;
  const double w2 = 1.0;
  const double t_max = 50.0;
  for (size_t i = 0; i < a.size(); ++i) {
    core::MachineModel m;
    m.id = static_cast<int>(i);
    m.power = {w1, w2};
    m.thermal.alpha = 1.0;
    m.thermal.beta = 1.0 / b[i];
    m.thermal.gamma = t_max - m.thermal.beta * w2 - a[i] * m.thermal.beta * w1;
    m.capacity = 1000.0;
    model.machines.push_back(m);
  }
  model.cooler = {1.0, 100.0, 0.0, 0.0, -1e300};
  model.t_max = t_max;
  model.t_ac_min = 0.0;
  model.t_ac_max = 1000.0;
  model.validate();
  return model;
}

std::string order_at(const core::ParticleSystem& ps, double t) {
  std::vector<size_t> idx(ps.size());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::sort(idx.begin(), idx.end(), [&](size_t x, size_t y) {
    return ps.coordinate(x, t) > ps.coordinate(y, t);
  });
  std::vector<std::string> names;
  for (const size_t i : idx) names.push_back(util::strf("%zu", i));
  return util::strf("(%s)", util::join(names, ",").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  coolopt::obs::ObsSession obs_session(argc, argv);
  std::printf("Fig. 1 reproduction: the consolidation particle system "
              "(n = 4, k = 2, two events)\n\n");

  // A four-particle system with exactly two crossings in t > 0, like the
  // figure: particle 0 starts highest but falls fast, getting passed by 1
  // at t = 1 and by 2 at t = 3; the bottom particle 3 falls fastest of all
  // and is never caught; 1 and 2 are parallel and never meet.
  const std::vector<double> a = {10.0, 8.0, 4.0, 0.2};
  const std::vector<double> b = {2.5, 0.5, 0.5, 2.6};
  const core::RoomModel model = model_from_particles(a, b);
  const core::ParticleSystem ps = core::ParticleSystem::from_model(model);

  util::TextTable particles({"particle", "a (initial coordinate)", "b (speed)"});
  for (size_t i = 0; i < 4; ++i) {
    particles.row({util::strf("%zu", i), util::strf("%.3f", ps.a[i]),
                   util::strf("%.3f", ps.b[i])});
  }
  std::printf("%s\n", particles.render().c_str());

  const core::IncrementalConsolidator ec(core::share_model(model));
  const size_t events = core::reference_table(ps).events.size();
  std::printf("Crossing events in t > 0: %zu (the figure has 2)\n", events);
  std::printf("Coordinate orders over time:\n");
  std::printf("  t = 0.0: %s\n", order_at(ps, 0.0).c_str());
  std::printf("  t = 2.0: %s\n", order_at(ps, 2.0).c_str());
  std::printf("  t = 4.0: %s\n\n", order_at(ps, 4.0).c_str());

  // The counting argument: distinct top-2 sets across all orders.
  std::set<std::set<size_t>> top2;
  for (const double t : {0.5, 2.0, 4.0}) {
    std::vector<size_t> idx(4);
    std::iota(idx.begin(), idx.end(), size_t{0});
    std::sort(idx.begin(), idx.end(), [&](size_t x, size_t y) {
      return ps.coordinate(x, t) > ps.coordinate(y, t);
    });
    top2.insert({idx[0], idx[1]});
  }
  std::printf("Distinct top-2 candidate subsets across all orders: %zu "
              "(vs C(4,2) = 6 for naive enumeration)\n",
              top2.size());

  // And the machinery agrees with brute force on this instance.
  const core::BruteForceConsolidator brute(model);
  bool agree = true;
  core::ConsolidationChoice fast;
  for (const double load : {0.5, 2.0, 5.0, 9.0}) {
    const bool found = ec.query_best_into(load, fast);
    const auto slow = brute.best(load);
    if (found != slow.has_value() ||
        (found && std::abs(fast.predicted_total_power_w -
                           slow->predicted_total_power_w) > 1e-9)) {
      agree = false;
    }
  }

  const bool pass = events == 2 && top2.size() <= 2 && agree;
  std::printf("\nShape check (2 events, <= 2 candidate subsets, algorithm == "
              "enumeration): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
