#include "workload.h"

#include <algorithm>

#include "core/synthetic.h"
#include "util/rng.h"

namespace perfbench {

namespace {

/// Machine classes in every room, and the capacity headroom factor that
/// keeps per-machine caps slack at 15-35% load (so every solve stays on
/// the closed-form / Algorithm 1 path rather than the bounded LP).
constexpr size_t kSkus = 8;
constexpr double kCapacityHeadroom = 3.0;

constexpr double kLoadPctLo = 15.0;
constexpr double kLoadPctHi = 35.0;

/// The machine classes are the synthetic draws of this seed, the room that
/// bench/perf_engine and bench/perf_scale use. Under other draws (seed 1,
/// for one) the closed form leaves its bounds at 15-35% load and every
/// n = 2000 solve runs the bounded LP at 0.3-1 s, a different workload.
constexpr uint64_t kSkuSeed = 42;

/// plan-n200-mix: the scenarios that return complete plans on this room.
/// The Bottom-up family (2, 3, 5, 7) fills machines to their inflated caps,
/// breaches T_max and sheds load through the degraded bisection on every
/// solve; scenario 6 runs the bounded LP, which is not measured here.
constexpr int kMixScenarios[] = {1, 4, 8};
constexpr size_t kMixPoints = 240;
constexpr size_t kCyclePoints = 16;
/// Forward steps of the churn walk; the stream walks back the same way,
/// so the cycle has 2 * kChurnForward requests, each one membership delta
/// away from its predecessor (the wrap included).
constexpr size_t kChurnForward = 63;
/// fleetplan-n10k plans scenario 8 only: for the other complete-plan
/// scenarios (1, 4) the frontier sampling at full shard capacity throws
/// ("even_allocation: load exceeds the ON set's capacity"), so every
/// fleetplan request of those scenarios fails on this room.
constexpr size_t kFleetPoints = 32;

coolopt::service::WireRequest plan_request(uint64_t id, int scenario,
                                           double load_pct) {
  coolopt::service::WireRequest request;
  request.id = id;
  request.verb = coolopt::service::Verb::kPlan;
  request.scenario = scenario;
  request.load_pct = load_pct;
  return request;
}

/// `n` (even) loads in [kLoadPctLo, kLoadPctHi), one in each of n equal
/// strata, then shuffled. Strata i and n-1-i mirror one draw, so the stream
/// is seeded but its mean load is the middle of the range for every seed,
/// and the mean plan cost (plan_kw) barely moves from seed to seed.
std::vector<double> stratified_loads(coolopt::util::Rng& rng, size_t n) {
  std::vector<double> loads(n);
  const double width = (kLoadPctHi - kLoadPctLo) / static_cast<double>(n);
  for (size_t i = 0; i < n / 2; ++i) {
    const double u = rng.uniform();
    loads[i] = kLoadPctLo + width * (static_cast<double>(i) + u);
    loads[n - 1 - i] = kLoadPctHi - width * (static_cast<double>(i) + u);
  }
  rng.shuffle(loads);
  return loads;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"plan-n200-mix", 200, 0},
      {"plan-n2k-cycle", 2000, 0},
      {"plan-n2k-churn", 2000, 0},
      {"fleetplan-n10k", 10000, 8},
  };
  return kAll;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

coolopt::core::RoomModel make_room(size_t machines, uint64_t seed) {
  coolopt::core::SyntheticModelOptions options;
  options.machines = machines;
  options.seed = kSkuSeed;
  coolopt::core::RoomModel model = coolopt::core::make_synthetic_model(options);
  // Equal shares of each class, laid out over the slots in seeded order.
  std::vector<size_t> classes(machines);
  for (size_t i = 0; i < machines; ++i) classes[i] = i % kSkus;
  coolopt::util::Rng(seed).fork("room").shuffle(classes);
  const std::vector<coolopt::core::MachineModel> skus(
      model.machines.begin(), model.machines.begin() + kSkus);
  for (size_t i = 0; i < machines; ++i) {
    model.machines[i] = skus[classes[i]];
    model.machines[i].id = static_cast<int>(i);
    model.machines[i].capacity *= kCapacityHeadroom;
  }
  return model;
}

std::vector<std::vector<size_t>> churn_walk(size_t machines, size_t steps,
                                            size_t max_size, uint64_t seed) {
  coolopt::util::Rng rng(seed);
  std::vector<std::vector<size_t>> sets;
  sets.reserve(steps + 1);
  std::vector<size_t> current;
  sets.push_back(current);
  for (size_t step = 0; step < steps; ++step) {
    // After the first step the set never empties again, so every later
    // request is a restricted solve (the memo never answers it).
    const bool add = current.size() <= 1 ||
                     (current.size() < max_size && rng.chance(0.5));
    if (add) {
      size_t machine = 0;
      do {
        machine = static_cast<size_t>(rng.next_u64() % machines);
      } while (std::find(current.begin(), current.end(), machine) !=
               current.end());
      current.insert(std::lower_bound(current.begin(), current.end(), machine),
                     machine);
    } else {
      current.erase(current.begin() +
                    static_cast<std::ptrdiff_t>(rng.next_u64() % current.size()));
    }
    sets.push_back(current);
  }
  return sets;
}

std::vector<coolopt::service::WireRequest> make_requests(
    const WorkloadSpec& spec, uint64_t seed) {
  coolopt::util::Rng rng = coolopt::util::Rng(seed).fork(spec.name);
  std::vector<coolopt::service::WireRequest> out;

  if (spec.name == "plan-n200-mix") {
    const std::vector<double> loads = stratified_loads(rng, kMixPoints);
    constexpr size_t kScenarioCount = std::size(kMixScenarios);
    for (size_t i = 0; i < kMixPoints; ++i) {
      out.push_back(
          plan_request(i, kMixScenarios[i % kScenarioCount], loads[i]));
    }
  } else if (spec.name == "plan-n2k-cycle") {
    const std::vector<double> loads = stratified_loads(rng, kCyclePoints);
    for (size_t i = 0; i < kCyclePoints; ++i) {
      out.push_back(plan_request(i, 8, loads[i]));
    }
  } else if (spec.name == "plan-n2k-churn") {
    const std::vector<std::vector<size_t>> walk =
        churn_walk(spec.machines, kChurnForward, kMaxQuarantined,
                   rng.next_u64());
    // Out along the walk, then back: S0 .. S63, S62 .. S1 (then S0 again).
    std::vector<size_t> order;
    for (size_t i = 0; i < walk.size(); ++i) order.push_back(i);
    for (size_t i = walk.size() - 2; i >= 1; --i) order.push_back(i);
    const std::vector<double> loads = stratified_loads(rng, order.size());
    for (size_t i = 0; i < order.size(); ++i) {
      out.push_back(plan_request(i, 8, loads[i]));
      out.back().quarantined = walk[order[i]];
    }
  } else if (spec.name == "fleetplan-n10k") {
    const std::vector<double> loads = stratified_loads(rng, kFleetPoints);
    for (size_t i = 0; i < kFleetPoints; ++i) {
      coolopt::service::WireRequest request = plan_request(i, 8, loads[i]);
      request.verb = coolopt::service::Verb::kFleetplan;
      out.push_back(request);
    }
  }
  return out;
}

std::vector<std::string> encode_lines(
    const std::vector<coolopt::service::WireRequest>& requests) {
  std::vector<std::string> lines;
  lines.reserve(requests.size());
  for (const coolopt::service::WireRequest& r : requests) {
    lines.push_back(coolopt::service::encode_request(r));
  }
  return lines;
}

}  // namespace perfbench
