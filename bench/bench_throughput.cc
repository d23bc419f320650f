// Batched query throughput: the §6.2 distance-bucketed allFP workload
// replayed through FastestPathEngine::RunBatch at several thread counts,
// reporting QPS, latency percentiles, edge-TTF memo hit rates, and
// expansion counts. Results go to stdout as a table
// and (by default) to BENCH_throughput.json — the repo's machine-readable
// perf baseline.
//
// Flags:
//   --queries=N        queries per 1-mile distance bucket (default 16)
//   --buckets=B        distance buckets, 1..B miles (default 3)
//   --seed=S           workload seed (default 1)
//   --grid=G           boundary estimator grid dimension (default 16)
//   --network=small|full  Suffolk scale (default full)
//   --threads-list=L   comma-separated thread counts (default 1,2,4,8)
//   --flightrec=on|off always-on flight recorder (default on; "off"
//                      measures the recorder's cost by difference)
//   --eps=SECONDS      bounded-error PWL compression knob (default 0 =
//                      exact labels; results stay value-exact either way)
//   --json=PATH        output path (default BENCH_throughput.json; "" = off)
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/core/engine.h"
#include "src/gen/suffolk_generator.h"
#include "src/obs/metrics.h"
#include "src/tdf/speed_pattern.h"
#include "src/util/check.h"
#include "src/util/stats.h"

namespace capefp::bench {
namespace {

struct ConfigResult {
  int threads = 0;
  double wall_ms = 0.0;
  double qps = 0.0;
  util::Summary latency_ms;
  int64_t expansions = 0;
  // This config's movement of the engine metric tree (counters diffed
  // against the pre-run snapshot) and its batch-local latency histogram.
  obs::MetricsSnapshot metrics_delta;
  obs::HistogramSnapshot batch_latency;
};

// The host's CPU model as the OS names it ("unknown" off Linux), so the
// committed JSON says which machine its timings come from.
std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size()) {
      return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// This config's edge-TTF memo hit rate, from its exact per-query counts.
double HitRate(const obs::MetricsSnapshot& delta) {
  const uint64_t hits = delta.counter("capefp.ttf_cache.hits");
  const uint64_t lookups = delta.counter("capefp.ttf_cache.lookups");
  return lookups == 0 ? 0.0
                      : static_cast<double>(hits) /
                            static_cast<double>(lookups);
}

std::vector<int> ParseThreadsList(const std::string& spec) {
  std::vector<int> out;
  size_t at = 0;
  while (at < spec.size()) {
    size_t comma = spec.find(',', at);
    if (comma == std::string::npos) comma = spec.size();
    out.push_back(std::stoi(spec.substr(at, comma - at)));
    at = comma + 1;
  }
  CAPEFP_CHECK(!out.empty()) << "empty --threads-list";
  return out;
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv,
                    {"queries", "buckets", "seed", "grid", "network",
                     "threads-list", "flightrec", "eps"});
  const int queries = static_cast<int>(flags.GetInt("queries", 16));
  const int buckets = static_cast<int>(flags.GetInt("buckets", 3));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const int grid = static_cast<int>(flags.GetInt("grid", 16));
  const std::string network_kind = flags.GetString("network", "full");
  const std::vector<int> thread_counts =
      ParseThreadsList(flags.GetString("threads-list", "1,2,4,8"));
  const std::string json_path =
      flags.GetString("json", "BENCH_throughput.json");
  const std::string flightrec = flags.GetString("flightrec", "on");
  CAPEFP_CHECK(flightrec == "on" || flightrec == "off")
      << "--flightrec takes on|off, got " << flightrec;
  const double eps_seconds = flags.GetDouble("eps", 0.0);

  gen::SuffolkOptions net_options;
  if (network_kind == "small") net_options = gen::SuffolkOptions::Small();
  net_options.seed = 42;
  const auto sn = gen::GenerateSuffolkNetwork(net_options);

  const unsigned hw_threads = std::thread::hardware_concurrency();
  PrintHeader(
      "Throughput: RunBatch over the distance-bucketed allFP workload",
      {{"network nodes", std::to_string(sn.network.num_nodes())},
       {"network segments", std::to_string(sn.network.num_edges() / 2)},
       {"query interval", "07:00-10:00 workday (3h morning rush)"},
       {"queries per bucket", std::to_string(queries)},
       {"distance buckets", "1.." + std::to_string(buckets) + " miles"},
       {"bdLB grid", std::to_string(grid)},
       {"flight recorder", flightrec},
       {"simplify eps", std::to_string(eps_seconds) + " s"},
       {"host hardware threads", std::to_string(hw_threads)},
       {"host cpu", CpuModel()}});

  core::EngineOptions options;
  options.boundary_grid_dim = grid;
  options.flight_recorder = flightrec == "on";
  options.simplify_eps = eps_seconds;
  auto engine_or = core::FastestPathEngine::Create(&sn.network, options);
  CAPEFP_CHECK(engine_or.ok()) << engine_or.status().ToString();
  core::FastestPathEngine& engine = **engine_or;

  const double lo = tdf::HhMm(7, 0);
  const double hi = tdf::HhMm(10, 0);
  std::vector<core::ProfileQuery> workload;
  for (int mile = 1; mile <= buckets; ++mile) {
    const auto pairs =
        SampleQueryPairs(sn.network, mile - 0.5, mile + 0.5, queries,
                         seed * 1000 + static_cast<uint64_t>(mile));
    for (const QueryPair& pair : pairs) {
      workload.push_back({pair.source, pair.target, lo, hi});
    }
  }

  // Reference run: results of every config must match it bit for bit (the
  // batch API promises identical answers regardless of thread count). It
  // also fills the edge-TTF memo, whose entries live as long as the
  // engine, so every config below measures the warm steady state.
  std::vector<core::AllFpResult> reference = engine.RunBatch(workload, 1);

  std::vector<ConfigResult> results;
  for (const int threads : thread_counts) {
    const obs::MetricsSnapshot before = engine.metrics()->Snapshot();
    util::WallTimer timer;
    const core::BatchResult batch =
        engine.RunBatchWithMetrics(workload, threads);
    ConfigResult config;
    config.wall_ms = timer.ElapsedMillis();
    config.threads = threads;
    config.qps =
        static_cast<double>(workload.size()) / (config.wall_ms / 1000.0);
    config.metrics_delta = batch.metrics.DeltaSince(before);
    config.batch_latency = batch.latency_ms;
    for (double ms : batch.per_query_millis) config.latency_ms.Add(ms);
    for (size_t i = 0; i < batch.results.size(); ++i) {
      CAPEFP_CHECK(batch.results[i].found);
      config.expansions += batch.results[i].stats.expansions;
      CAPEFP_CHECK(tdf::PwlFunction::ApproxEqual(
          *batch.results[i].border, *reference[i].border, 0.0))
          << "config (threads=" << threads
          << ") diverged from the reference on query " << i;
    }
    results.push_back(config);
    // Tail latencies come from the batch-local histogram's quantile
    // helpers (bucket-interpolated; bias bounded by one bucket width —
    // see HistogramSnapshot::Percentile), matching what the slow-query
    // tracker thresholds on.
    std::printf("threads=%d  %8.1f ms  %7.1f qps  p50 %6.2f ms"
                "  p95 %6.2f ms  p99 %6.2f ms  p999 %6.2f ms"
                "  hit-rate %5.1f%%\n",
                threads, config.wall_ms, config.qps,
                config.latency_ms.percentile(50),
                config.latency_ms.percentile(95),
                config.batch_latency.P99(), config.batch_latency.P999(),
                100.0 * HitRate(config.metrics_delta));
  }

  double base_qps = 0.0;
  for (const ConfigResult& r : results) {
    if (r.threads == 1) base_qps = r.qps;
  }

  if (!json_path.empty()) {
    JsonWriter w;
    w.BeginObject();
    w.Key("bench");
    w.String("bench_throughput");
    w.Key("workload");
    w.BeginObject();
    w.Key("network");
    w.String(network_kind);
    w.Key("nodes");
    w.Uint(sn.network.num_nodes());
    w.Key("segments");
    w.Uint(sn.network.num_edges() / 2);
    w.Key("queries");
    w.Uint(workload.size());
    w.Key("queries_per_bucket");
    w.Int(queries);
    w.Key("distance_buckets_miles");
    w.Int(buckets);
    w.Key("leave_interval_minutes");
    w.BeginArray();
    w.Double(lo);
    w.Double(hi);
    w.EndArray();
    w.Key("estimator_grid");
    w.Int(grid);
    w.Key("seed");
    w.Uint(seed);
    w.EndObject();
    w.Key("host");
    w.BeginObject();
    w.Key("cpu_model");
    w.String(CpuModel());
    w.Key("hardware_concurrency");
    w.Uint(hw_threads);
    w.EndObject();
    w.Key("configs");
    w.BeginArray();
    for (const ConfigResult& r : results) {
      w.BeginObject();
      w.Key("threads");
      w.Int(r.threads);
      w.Key("wall_ms");
      w.Double(r.wall_ms);
      w.Key("qps");
      w.Double(r.qps);
      w.Key("speedup_vs_1_thread");
      w.Double(base_qps > 0.0 ? r.qps / base_qps : 0.0);
      w.Key("latency_ms");
      w.BeginObject();
      w.Key("mean");
      w.Double(r.latency_ms.mean());
      w.Key("p50");
      w.Double(r.latency_ms.percentile(50));
      w.Key("p95");
      w.Double(r.latency_ms.percentile(95));
      w.Key("max");
      w.Double(r.latency_ms.max());
      w.EndObject();
      w.Key("expansions");
      w.Int(r.expansions);
      w.Key("ttf_cache_stats");
      w.BeginObject();
      w.Key("hits");
      w.Uint(r.metrics_delta.counter("capefp.ttf_cache.hits"));
      w.Key("misses");
      w.Uint(r.metrics_delta.counter("capefp.ttf_cache.misses"));
      w.Key("bypasses");
      w.Uint(r.metrics_delta.counter("capefp.ttf_cache.bypasses"));
      w.Key("hit_rate");
      w.Double(HitRate(r.metrics_delta));
      w.EndObject();
      w.Key("batch_latency_ms");
      w.BeginObject();
      w.Key("count");
      w.Uint(r.batch_latency.count);
      w.Key("mean");
      w.Double(r.batch_latency.mean());
      w.Key("p50");
      w.Double(r.batch_latency.P50());
      w.Key("p95");
      w.Double(r.batch_latency.Percentile(95.0));
      w.Key("p99");
      w.Double(r.batch_latency.P99());
      w.Key("p999");
      w.Double(r.batch_latency.P999());
      w.EndObject();
      w.Key("metrics");
      r.metrics_delta.WriteJson(&w);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
    WriteFileOrDie(json_path, w.str() + "\n");
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace capefp::bench

int main(int argc, char** argv) { return capefp::bench::Main(argc, argv); }
