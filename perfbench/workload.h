// The benchmark's four workloads: a seeded SKU room plus the request lines
// a closed-loop client sends to cooloptd. Everything here is a pure
// function of (workload, seed), so one seed always yields byte-identical
// rooms and request streams; cooloptd itself only ever sees the CSV and
// the lines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/model.h"
#include "service/wire.h"

namespace perfbench {

/// Static description of one workload (see README.md for why each exists).
struct WorkloadSpec {
  std::string name;
  size_t machines = 0;
  size_t fleet_shards = 0;  ///< 0 = plan verb, monolithic daemon
};

/// The four workload names, in the order `--workload all` runs them.
const std::vector<WorkloadSpec>& workloads();
/// nullptr when `name` is not a workload.
const WorkloadSpec* find_workload(const std::string& name);

/// Quarantine bound of the churn walk.
inline constexpr size_t kMaxQuarantined = 8;

/// SKU-structured room: 8 fixed synthetic machine classes in equal shares
/// over `machines` slots, in an order drawn from `seed`, with 3x capacity
/// headroom. The room depends only on (machines, seed), so the two n = 2000
/// workloads share one room.
coolopt::core::RoomModel make_room(size_t machines, uint64_t seed);

/// Seeded random walk over quarantine sets of `machines` machines: each
/// step quarantines or readmits exactly one machine. The walk starts empty
/// and then stays within [1, max_size]. Returns `steps` + 1 sorted sets.
std::vector<std::vector<size_t>> churn_walk(size_t machines, size_t steps,
                                            size_t max_size, uint64_t seed);

/// The workload's distinct requests, in stream order (request id == index).
/// The measured stream cycles through them; warm-up sends each once.
std::vector<coolopt::service::WireRequest> make_requests(
    const WorkloadSpec& spec, uint64_t seed);

/// One encoded protocol line per request (what goes over the socket).
std::vector<std::string> encode_lines(
    const std::vector<coolopt::service::WireRequest>& requests);

}  // namespace perfbench
