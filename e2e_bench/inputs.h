// Seeded inputs of the end-to-end benchmark (see README.md for their
// make-up).
#ifndef CAPEFP_E2E_BENCH_INPUTS_H_
#define CAPEFP_E2E_BENCH_INPUTS_H_

#include <cstdint>
#include <string>

#include "e2e_bench/common.h"
#include "src/network/road_network.h"

namespace capefp::e2e {

// Query lists come in rounds of identical make-up; a run measures whole
// rounds. Lists are long enough that no query repeats within a run.
inline constexpr int kRushPerBucket = 16;  // Pairs per bucket per round.
inline constexpr int kRushRounds = 64;     // 64 queries per round.
inline constexpr int kMixedRounds = 1000;  // Five queries per round.
inline constexpr int kMixedStrata = 10;    // Commute distance strata.
inline constexpr int kDenseRounds = 200;   // Eight queries per round.

inline constexpr size_t RoundSize(Workload w) {
  return w == Workload::kRushBatch      ? 4 * kRushPerBucket
         : w == Workload::kCommuteMixed ? 5
                                        : 8;
}

inline constexpr int kDenseVariantsPerClass = 4;

// `base`'s topology with synthetic dense workday profiles: per road class,
// kDenseVariantsPerClass seeded variants of `bucket_minutes`-wide speed
// buckets (rush dips plus noise); each edge draws its variant from `seed`.
network::RoadNetwork WithDenseProfiles(const network::RoadNetwork& base,
                                       int bucket_minutes, uint64_t seed);

// Writes `dir`/network.txt and `dir`/queries.txt for `workload`. The
// network is fixed, with Table-1 patterns or (`dense`) dense profiles of
// `bucket_minutes`-wide buckets; the query list comes from `seed`.
void GenerateInputs(Workload workload, uint64_t seed, bool dense,
                    int bucket_minutes, const std::string& dir);

}  // namespace capefp::e2e

#endif  // CAPEFP_E2E_BENCH_INPUTS_H_
