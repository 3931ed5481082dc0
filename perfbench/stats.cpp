#include "stats.h"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

bool parse_status_vm_hwm_kib(std::string_view status_text, uint64_t& kib) {
  constexpr std::string_view kKey = "VmHWM:";
  size_t pos = 0;
  while (pos < status_text.size()) {
    size_t eol = status_text.find('\n', pos);
    if (eol == std::string_view::npos) eol = status_text.size();
    const std::string_view line = status_text.substr(pos, eol - pos);
    if (line.substr(0, kKey.size()) == kKey) {
      const std::string rest(line.substr(kKey.size()));
      char* end = nullptr;
      const unsigned long long value = std::strtoull(rest.c_str(), &end, 10);
      if (end == rest.c_str()) return false;
      kib = value;
      return true;
    }
    pos = eol + 1;
  }
  return false;
}

bool parse_proc_stat_steal(std::string_view stat_text, uint64_t& steal,
                           uint64_t& total) {
  if (stat_text.substr(0, 4) != "cpu ") return false;
  std::istringstream fields(std::string(
      stat_text.substr(4, stat_text.find('\n') - 4)));
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  uint64_t values[8] = {};
  for (uint64_t& v : values) {
    if (!(fields >> v)) return false;
  }
  steal = values[7];
  total = 0;
  for (const uint64_t v : values) total += v;
  return true;
}

bool parse_proc_stat_idle(std::string_view stat_text,
                          std::vector<uint64_t>& idle) {
  idle.clear();
  std::istringstream lines{std::string(stat_text)};
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("cpu", 0) != 0 || line.size() < 4 || line[3] < '0' ||
        line[3] > '9') {
      continue;
    }
    std::istringstream fields(line.substr(3));
    size_t cpu = 0;
    // user nice system idle iowait
    uint64_t values[5] = {};
    if (!(fields >> cpu)) return false;
    for (uint64_t& v : values) {
      if (!(fields >> v)) return false;
    }
    if (idle.size() <= cpu) idle.resize(cpu + 1, 0);
    idle[cpu] = values[3] + values[4];
  }
  return !idle.empty();
}

std::vector<size_t> pick_quiet(const std::vector<double>& steal_pct,
                               size_t count, double quiet_pct) {
  std::vector<size_t> order(steal_pct.size());
  std::iota(order.begin(), order.end(), size_t{0});
  auto noise = [&](size_t i) {
    return steal_pct[i] <= quiet_pct ? 0.0 : steal_pct[i];
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return noise(a) < noise(b); });
  order.resize(std::min(count, order.size()));
  return order;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace perfbench
