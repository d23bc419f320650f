// Shared types of the end-to-end benchmark: the query list format, the
// workload names and a few timing helpers.
#ifndef CAPEFP_E2E_BENCH_COMMON_H_
#define CAPEFP_E2E_BENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/network/road_network.h"

namespace capefp::e2e {

// The five query kinds of the engine's public API.
enum class Kind {
  kAllFp,           // AllFastestPaths over a leaving window.
  kSingleFp,        // SingleFastestPath over a leaving window.
  kAt,              // FastestPathAt: fixed departure (lo == hi).
  kArriveAllFp,     // ArrivalAllFastestPaths over an arrival window.
  kArriveSingleFp,  // ArrivalSingleFastestPath over an arrival window.
};

const char* KindName(Kind kind);
bool ParseKind(const std::string& name, Kind* kind);

// One line of the query file. For the arrival kinds [lo, hi] is the
// arrival window at `target`; otherwise it is the leaving window at
// `source` (a single instant for kAt).
struct Query {
  Kind kind = Kind::kAllFp;
  network::NodeId source = network::kInvalidNode;
  network::NodeId target = network::kInvalidNode;
  double lo = 0.0;
  double hi = 0.0;
};

// The workloads BENCHMARK.json names.
enum class Workload { kRushBatch, kCommuteMixed, kDenseEps };
bool ParseWorkload(const std::string& name, Workload* workload);

// Writes/reads the query list ("<kind> <source> <target> <lo> <hi>" per
// line, doubles printed round-trip exact). Read aborts on malformed input.
void WriteQueries(const std::vector<Query>& queries, const std::string& path);
std::vector<Query> ReadQueries(const std::string& path);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// ε of the dense_eps workload, in seconds (the engine's unit).
inline constexpr double kDenseEpsSeconds = 5.0;

}  // namespace capefp::e2e

#endif  // CAPEFP_E2E_BENCH_COMMON_H_
