// The measured process: set-up from the generated files, the timed closed
// loop, the oracle check, and (traced mode) the per-layer split.
#ifndef CAPEFP_E2E_BENCH_RUNNER_H_
#define CAPEFP_E2E_BENCH_RUNNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "e2e_bench/common.h"
#include "e2e_bench/oracle.h"
#include "src/core/engine.h"
#include "src/network/road_network.h"

namespace capefp::e2e {

// Worker threads of rush_batch's RunBatch calls.
inline constexpr int kBatchThreads = 4;

// Buffer pool of commute_mixed's disk-backed engine and of the traced
// layer pass's CCAM store, in pages (the CCAM file of the full network has
// well over ten times as many).
inline constexpr size_t kPoolPages = 64;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// Everything the traced split needs from the set-up and the timed phase.
struct RunState {
  Workload workload = Workload::kRushBatch;
  std::string dir;  // Holds network.txt, queries.txt and the CCAM file.
  uint64_t seed = 0;
  const network::RoadNetwork* network = nullptr;
  core::FastestPathEngine* engine = nullptr;
  std::vector<Query> queries;
  // First answer to each query (the one the oracle checks).
  std::vector<std::optional<Answer>> reference;
  double eps_seconds = 0.0;
  double load_s = 0.0;
  // Timed phase.
  std::vector<double> latency_ms;
  double measured_s = 0.0;
  int64_t completed = 0;
  int64_t failed = 0;  // Timed queries whose answer holds no path.
  // rush_batch only: sum of per-query ms and of batch walls (ms).
  double busy_ms = 0.0;
  double batch_wall_ms = 0.0;
};

// Answers `q` through the engine's public query calls (`trace` is passed
// to the calls that take one).
Answer RunOne(core::FastestPathEngine* engine, const Query& q,
              obs::Trace* trace = nullptr);

// The traced split (runner_traced.cc): runs for about `budget_s` seconds
// and returns every per-layer metric, 0 where the workload does not
// exercise the layer. `absent` receives the names whose component the
// engine no longer registers. `attempted` counts the queries run and
// `failed` those whose answer holds no path.
std::vector<Metric> RunTraced(RunState* state, double budget_s,
                              std::vector<std::string>* absent,
                              int64_t* attempted, int64_t* failed);

// Nearest-rank percentile of `values` (copied and sorted).
double Percentile(std::vector<double> values, double p);

}  // namespace capefp::e2e

#endif  // CAPEFP_E2E_BENCH_RUNNER_H_
