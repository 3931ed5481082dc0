// Self-tests of the benchmark's own code: seeded streams, the churn walk,
// the /proc parsers and the choice of quiet slices. Exits non-zero when
// any check failed.
//
//   .bench_build/perfbench_selftest

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "stats.h"
#include "workload.h"

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

/// Number of machines in exactly one of the two sorted sets.
size_t symmetric_difference(const std::vector<size_t>& a,
                            const std::vector<size_t>& b) {
  const std::set<size_t> sa(a.begin(), a.end());
  const std::set<size_t> sb(b.begin(), b.end());
  size_t d = 0;
  for (const size_t x : sa) d += sb.count(x) == 0;
  for (const size_t x : sb) d += sa.count(x) == 0;
  return d;
}

void test_streams_are_seeded() {
  for (const perfbench::WorkloadSpec& spec : perfbench::workloads()) {
    const auto a = perfbench::encode_lines(perfbench::make_requests(spec, 7));
    const auto b = perfbench::encode_lines(perfbench::make_requests(spec, 7));
    const auto c = perfbench::encode_lines(perfbench::make_requests(spec, 8));
    check(!a.empty(), spec.name + ": empty stream");
    check(a == b, spec.name + ": same seed, different request stream");
    check(a != c, spec.name + ": different seeds, same request stream");
    for (size_t i = 0; i < a.size(); ++i) {
      const std::string id = "{\"id\":" + std::to_string(i) + ",";
      check(a[i].rfind(id, 0) == 0, spec.name + ": request id != index");
    }
  }
  const coolopt::core::RoomModel r1 = perfbench::make_room(200, 3);
  const coolopt::core::RoomModel r2 = perfbench::make_room(200, 3);
  const coolopt::core::RoomModel r3 = perfbench::make_room(200, 4);
  bool same = true;
  bool differs = false;
  for (size_t i = 0; i < r1.size(); ++i) {
    same &= r1.machines[i].thermal.alpha == r2.machines[i].thermal.alpha &&
            r1.machines[i].capacity == r2.machines[i].capacity;
    differs |= r1.machines[i].thermal.alpha != r3.machines[i].thermal.alpha;
  }
  check(same, "same seed, different room");
  check(differs, "different seeds, same room layout");
}

void test_churn_walk() {
  constexpr size_t kMachines = 2000;
  const auto walk = perfbench::churn_walk(kMachines, 5000,
                                          perfbench::kMaxQuarantined, 11);
  check(walk.size() == 5001, "walk length");
  check(walk.front().empty(), "walk starts empty");
  size_t largest = 0;
  for (size_t i = 0; i < walk.size(); ++i) {
    const std::vector<size_t>& set = walk[i];
    check(set.size() <= perfbench::kMaxQuarantined, "walk above its bound");
    check(i == 0 || !set.empty(), "walk emptied after its first step");
    largest = std::max(largest, set.size());
    for (size_t j = 0; j < set.size(); ++j) {
      check(set[j] < kMachines, "quarantine index out of range");
      check(j == 0 || set[j - 1] < set[j], "set not sorted and unique");
    }
    if (i > 0) {
      check(symmetric_difference(walk[i - 1], set) == 1,
            "step changed more than one machine");
    }
  }
  check(largest == perfbench::kMaxQuarantined, "walk never reached its bound");

  // The request stream walks out and back, so even its wrap is one delta.
  const perfbench::WorkloadSpec& churn = *perfbench::find_workload("plan-n2k-churn");
  const auto requests = perfbench::make_requests(churn, 5);
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& prev = requests[(i + requests.size() - 1) % requests.size()];
    check(symmetric_difference(prev.quarantined, requests[i].quarantined) == 1,
          "churn stream step " + std::to_string(i) + " is not one delta");
  }
}

void test_proc_parsers() {
  const std::string status =
      "Name:\tcooloptd\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\n"
      "VmRSS:\t   50000 kB\n";
  uint64_t kib = 0;
  check(perfbench::parse_status_vm_hwm_kib(status, kib) && kib == 51234,
        "status VmHWM");
  check(!perfbench::parse_status_vm_hwm_kib("Name:\tx\nVmRSS:\t1 kB\n", kib),
        "status without VmHWM accepted");

  const std::string machine =
      "cpu  549826 0 28514 1325696 675 0 14116 30754 0 0\n"
      "cpu0 103816 0 7837 364193 248 0 5677 8701 0 0\n";
  uint64_t steal = 0;
  uint64_t total = 0;
  check(perfbench::parse_proc_stat_steal(machine, steal, total) &&
            steal == 30754 && total == 1949581,
        "machine stat steal/total");
  check(!perfbench::parse_proc_stat_steal("cpu0 1 2 3\n", steal, total),
        "per-cpu line accepted as the machine line");

  std::vector<uint64_t> idle;
  check(perfbench::parse_proc_stat_idle(
            machine + "cpu1 1 0 2 364000 52 0 0 0 0 0\nintr 1 2\n", idle) &&
            idle == std::vector<uint64_t>({364193 + 248, 364000 + 52}),
        "per-cpu idle + iowait");
  check(!perfbench::parse_proc_stat_idle("cpu  1 2 3 4 5\nintr 1\n", idle),
        "stat without per-cpu lines accepted");
  check(!perfbench::parse_proc_stat_idle("cpu0 1 2 3\n", idle),
        "truncated per-cpu line accepted");
}

void test_pick_quiet() {
  using perfbench::pick_quiet;
  const std::vector<size_t> none;
  check(pick_quiet({}, 5, 1.0) == none, "no slices");
  check(pick_quiet({3.0}, 5, 1.0) == std::vector<size_t>{0},
        "one noisy slice is still kept");
  check(pick_quiet({0.5, 2.0}, 1, 1.0) == std::vector<size_t>{0},
        "quiet slice before a noisy one");
  // Quiet ones keep run order whatever their steal; noisy ones top up,
  // least-stolen first.
  check(pick_quiet({0.9, 7.0, 0.0, 3.0, 1.0, 2.5}, 5, 1.0) ==
            std::vector<size_t>({0, 2, 4, 5, 3}),
        "n slices: quiet in order, then least-stolen");
  check(pick_quiet({0.2, 0.3, 0.1}, 2, 1.0) == std::vector<size_t>({0, 1}),
        "first quiet slices win");
}

}  // namespace

int main() {
  test_streams_are_seeded();
  test_churn_walk();
  test_proc_parsers();
  test_pick_quiet();
  std::fprintf(stderr, "perfbench_selftest: %s (%d failed checks)\n",
               g_failures == 0 ? "ok" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
