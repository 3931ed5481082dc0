// Small measurement helpers shared by the load generator and its
// self-tests: the /proc parsers that give cooloptd's peak resident set,
// the host's steal time and each CPU's idle time, and the choice of the
// quiet slices of a measured window.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// VmHWM (peak resident set) in KiB from /proc/<pid>/status text.
bool parse_status_vm_hwm_kib(std::string_view status_text, uint64_t& kib);

/// Steal and total jiffies of the whole machine, from the first ("cpu")
/// line of /proc/stat: time the hypervisor ran something else while a
/// virtual CPU of this machine wanted to run.
bool parse_proc_stat_steal(std::string_view stat_text, uint64_t& steal,
                           uint64_t& total);

/// Idle jiffies (idle + iowait) of each CPU, from the "cpuN" lines of
/// /proc/stat, indexed by N. False when there is no such line.
bool parse_proc_stat_idle(std::string_view stat_text,
                          std::vector<uint64_t>& idle);

/// Indices of the `count` slices a window keeps, given each slice's host
/// steal in percent: the quiet ones (steal <= `quiet_pct`) in time order,
/// topped up with the least-stolen others when fewer were quiet. Fewer
/// than `count` only when there are fewer slices.
std::vector<size_t> pick_quiet(const std::vector<double>& steal_pct,
                               size_t count, double quiet_pct);

/// Whole file as a string; empty when it cannot be read.
std::string read_file(const std::string& path);

}  // namespace perfbench
