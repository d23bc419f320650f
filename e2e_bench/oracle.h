// The benchmark's independent oracle and answer checker.
//
// The oracle is a plain time-dependent Dijkstra over RoadNetwork adjacency
// with edge times from tdf::TravelTime alone: it shares no PWL kernel,
// accessor, storage or search code with the engine it checks.
#ifndef CAPEFP_E2E_BENCH_ORACLE_H_
#define CAPEFP_E2E_BENCH_ORACLE_H_

#include <string>
#include <vector>

#include "e2e_bench/common.h"
#include "src/core/profile_search.h"
#include "src/core/reverse_profile_search.h"
#include "src/core/td_astar.h"
#include "src/network/road_network.h"

namespace capefp::e2e {

// Absolute tolerance on travel times, in minutes.
inline constexpr double kTolMinutes = 1e-6;

class Oracle {
 public:
  explicit Oracle(const network::RoadNetwork* network);

  // Fastest travel time (minutes) from `s` leaving at `leave` to `t`.
  double FastestTime(network::NodeId s, network::NodeId t, double leave);

  // Travel time along the node sequence `path` leaving path[0] at `leave`
  // (the fastest of parallel edges per hop); negative when `path` is not
  // a path of the network.
  double PathTime(const std::vector<network::NodeId>& path,
                  double leave) const;

 private:
  const network::RoadNetwork* network_;
  std::vector<double> arrival_;
  std::vector<char> done_;
};

// Every answer the engine gives for one query; only the member of the
// query's kind is filled.
struct Answer {
  core::AllFpResult all;
  core::SingleFpResult single;
  core::TdAStarResult at;
  core::ReverseAllFpResult arrive_all;
  core::ReverseSingleFpResult arrive_single;
};

// Tally of ε>0 allFP border samples above optimum + ε (see README.md,
// "Known fault"). When a BandTally is passed, a sample above the band by
// at most kBandCapFactor × ε is counted here instead of failing its query;
// one further above still fails it, and BandVerdict fails the whole check
// when more than kBandMaxShare of the samples lie above the band.
inline constexpr double kBandCapFactor = 1.0;
inline constexpr double kBandMaxShare = 0.01;

struct BandTally {
  int64_t samples = 0;
  int64_t above = 0;
  double max_excess_minutes = 0.0;
};

// "" when `band` stays within kBandMaxShare, else the violation.
std::string BandVerdict(const BandTally& band);

// Checks `answer` to `query` against the oracle at `samples` (instants in
// the query window) with ε = `eps_minutes` for allFP. Returns "" when the
// answer holds, else the first violation.
std::string CheckAnswer(Oracle* oracle, const Query& query,
                        const Answer& answer, double eps_minutes,
                        const std::vector<double>& samples,
                        BandTally* band = nullptr);

// True when `answer` holds a path (a border for the allFP kinds); a query
// whose answer does not is a failed query.
bool Found(const Query& query, const Answer& answer);

// True when two answers to one query are identical (a repeat of the query
// must reproduce its first answer exactly).
bool SameAnswer(const Query& query, const Answer& a, const Answer& b);

// The window start plus `count` seeded instants in [query.lo, query.hi].
std::vector<double> SampleInstants(const Query& query, uint64_t seed,
                                   int count);

}  // namespace capefp::e2e

#endif  // CAPEFP_E2E_BENCH_ORACLE_H_
