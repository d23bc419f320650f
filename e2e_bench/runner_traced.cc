// The traced split: per-layer counts and times for one workload.
//
// Two passes over the workload's query list follow the timed phase:
//  1. the engine pass: the same public calls with an obs::Trace per query
//     (or RunBatchWithMetrics with traces), diffing the engine's metrics
//     registry around it and reading the edge_ttf leaves of the traces;
//  2. the layer pass: ProfileSearch, ReverseProfileSearch and TdAStar
//     driven directly through timing decorators of the two public virtual
//     interfaces, NetworkAccessor and TravelTimeEstimator. The accessor
//     decorator has no edge-TTF cache attached, so its searches derive
//     every edge function on demand where the engine would hit its cache.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "e2e_bench/inputs.h"
#include "e2e_bench/runner.h"
#include "src/core/boundary_estimator.h"
#include "src/core/profile_search.h"
#include "src/core/reverse_profile_search.h"
#include "src/core/td_astar.h"
#include "src/network/accessor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/storage/ccam_accessor.h"
#include "src/storage/ccam_builder.h"
#include "src/storage/ccam_store.h"
#include "src/util/check.h"

namespace capefp::e2e {
namespace {

using network::NodeId;

double NanosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start)
      .count();
}

struct Tally {
  uint64_t calls = 0;
  double ns = 0.0;
};

class TimedAccessor final : public network::NetworkAccessor {
 public:
  explicit TimedAccessor(network::NetworkAccessor* inner) : inner_(inner) {}

  size_t num_nodes() const override { return inner_->num_nodes(); }
  geo::Point Location(NodeId node) override {
    const auto start = Clock::now();
    const geo::Point p = inner_->Location(node);
    location.ns += NanosSince(start);
    ++location.calls;
    return p;
  }
  void GetSuccessors(NodeId node,
                     std::vector<network::NeighborEdge>* out) override {
    const auto start = Clock::now();
    inner_->GetSuccessors(node, out);
    successors.ns += NanosSince(start);
    ++successors.calls;
  }
  const tdf::CapeCodPattern& Pattern(network::PatternId id) const override {
    return inner_->Pattern(id);
  }
  const tdf::Calendar& calendar() const override {
    return inner_->calendar();
  }
  double max_speed() const override { return inner_->max_speed(); }

  Tally successors;
  Tally location;

 private:
  network::NetworkAccessor* inner_;
};

class TimedEstimator final : public core::TravelTimeEstimator {
 public:
  TimedEstimator(std::unique_ptr<core::TravelTimeEstimator> inner,
                 Tally* tally)
      : inner_(std::move(inner)), tally_(tally) {}

  double Estimate(NodeId node) override {
    const auto start = Clock::now();
    const double v = inner_->Estimate(node);
    tally_->ns += NanosSince(start);
    ++tally_->calls;
    return v;
  }

 private:
  std::unique_ptr<core::TravelTimeEstimator> inner_;
  Tally* tally_;
};

// Total duration (ms) and count of the aggregated leaves named `name`.
double LeafMs(const obs::Trace& trace, std::string_view name,
              uint64_t* count) {
  double ms = 0.0;
  for (const obs::Trace::SpanData& span : trace.spans()) {
    if (span.aggregated && span.name == name) {
      ms += span.duration_ms;
      *count += span.count;
    }
  }
  return ms;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

bool Forward(Kind k) {
  return k == Kind::kAllFp || k == Kind::kSingleFp || k == Kind::kAt;
}

// Every per-layer metric, in the order BENCHMARK.json lists them.
const std::vector<std::pair<std::string, std::string>>& LayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"network.load_s", "s"},
      {"network.successors_calls_per_query", "count"},
      {"network.successors_ns_per_call", "ns"},
      {"network.edge_ttf_calls_per_query", "count"},
      {"network.edge_ttf_ms_per_query", "ms"},
      {"network.ttf_cache_hit_rate", "ratio"},
      {"core.estimator.build_s", "s"},
      {"core.estimator.estimate_calls_per_query", "count"},
      {"core.estimator.estimate_ns_per_call", "ns"},
      {"core.estimator.tightness", "ratio"},
      {"core.search.ms_per_query", "ms"},
      {"core.search.self_ms_per_query", "ms"},
      {"core.search.expansions_per_query", "count"},
      {"core.search.pushes_per_query", "count"},
      {"core.search.pruned_dominated_per_query", "count"},
      {"core.search.pruned_bound_per_query", "count"},
      {"core.search.push_yield", "ratio"},
      {"core.reverse_search.ms_per_query", "ms"},
      {"core.reverse_search.expansions_per_query", "count"},
      {"core.td_astar.ms_per_query", "ms"},
      {"core.td_astar.expanded_nodes_per_query", "count"},
      {"core.engine.worker_busy_ratio", "ratio"},
      {"core.engine.scaling_1_to_4", "ratio"},
      {"tdf.simplify.breakpoints_in_per_query", "count"},
      {"tdf.simplify.compression_ratio", "ratio"},
      {"tdf.simplify.refined_paths_per_query", "count"},
      {"tdf.simplify.refine_ms_per_query", "ms"},
      {"tdf.arena.spills_per_query", "count"},
      {"tdf.border_breakpoints_per_query", "count"},
      {"tdf.arena.high_water_bytes", "bytes"},
      {"storage.build_s", "s"},
      {"storage.open_s", "s"},
      {"storage.page_faults_per_query", "count"},
      {"storage.pool_hit_rate", "ratio"},
      {"storage.read_us_per_page", "us"},
      {"storage.successors_ns_per_call", "ns"},
      {"storage.io_ms_per_query", "ms"},
      {"obs.flight_events_per_query", "count"},
      {"obs.trace_overhead_ratio", "ratio"},
  };
  return kMetrics;
}

// Registry reads that remember which names the engine no longer has.
class RegistryDelta {
 public:
  RegistryDelta(const obs::MetricsSnapshot& before,
                const obs::MetricsSnapshot& after,
                std::vector<std::string>* absent)
      : after_(after), delta_(after.DeltaSince(before)), absent_(absent) {}

  double Counter(const std::string& name, const std::string& metric) {
    if (after_.counters.count(name) == 0) return Missing(metric);
    return static_cast<double>(delta_.counter(name));
  }
  double Gauge(const std::string& name, const std::string& metric) {
    if (after_.gauges.count(name) == 0) return Missing(metric);
    return after_.gauge(name);
  }
  double HistogramSum(const std::string& name, const std::string& metric) {
    auto it = delta_.histograms.find(name);
    if (it == delta_.histograms.end()) return Missing(metric);
    return it->second.sum;
  }

 private:
  double Missing(const std::string& metric) {
    if (std::find(absent_->begin(), absent_->end(), metric) ==
        absent_->end()) {
      absent_->push_back(metric);
    }
    return 0.0;
  }

  const obs::MetricsSnapshot& after_;
  obs::MetricsSnapshot delta_;
  std::vector<std::string>* absent_;
};

// Events journalled after `since` ticks.
uint64_t MaxTicks(const obs::FlightJournal& journal) {
  uint64_t m = 0;
  for (const obs::FlightEvent& e : journal.events) m = std::max(m, e.ticks);
  return m;
}
uint64_t EventsAfter(const obs::FlightJournal& journal, uint64_t since) {
  uint64_t n = 0;
  for (const obs::FlightEvent& e : journal.events) n += e.ticks > since;
  return n;
}

// Flight events are counted over this many leading queries of the engine
// pass, few enough that no per-worker ring wraps.
constexpr size_t kFlightWindow = 16;

constexpr size_t kTightnessQueries = 64;

// Rounds over which rush_batch's 1 -> 4 thread scaling is measured (one
// round alone read 0.67 and 2.30 on two runs of one seed).
constexpr size_t kScalingRounds = 3;

}  // namespace

std::vector<Metric> RunTraced(RunState* st, double budget_s,
                              std::vector<std::string>* absent,
                              int64_t* attempted, int64_t* failed) {
  std::map<std::string, double> v;
  const std::vector<Query>& qs = st->queries;
  const size_t n = qs.size();
  core::FastestPathEngine* engine = st->engine;
  const bool rush = st->workload == Workload::kRushBatch;
  const bool disk = st->workload == Workload::kCommuteMixed;
  v["network.load_s"] = st->load_s;

  const size_t round = RoundSize(st->workload);
  auto round_queries = [&](size_t r) {
    std::vector<core::ProfileQuery> pq;
    for (size_t i = r * round; i < (r + 1) * round; ++i) {
      pq.push_back({qs[i].source, qs[i].target, qs[i].lo, qs[i].hi});
    }
    return pq;
  };

  // core.engine: the first kScalingRounds rounds, each at kBatchThreads
  // and then at one thread, so that host noise falls on both sides.
  if (rush) {
    double wall4 = 0.0, wall1 = 0.0;
    for (size_t r = 0; r < kScalingRounds; ++r) {
      const auto pq = round_queries(r);
      for (const int threads : {kBatchThreads, 1}) {
        const auto start = Clock::now();
        const auto results = engine->RunBatch(pq, threads);
        (threads == 1 ? wall1 : wall4) += SecondsSince(start);
        *attempted += static_cast<int64_t>(round);
        for (const core::AllFpResult& res : results) {
          if (!res.found || !res.border.has_value()) ++*failed;
        }
      }
    }
    v["core.engine.scaling_1_to_4"] = Ratio(wall1, wall4);
    v["core.engine.worker_busy_ratio"] =
        Ratio(st->busy_ms, kBatchThreads * st->batch_wall_ms);
  }

  // --- Engine pass. ---
  obs::FlightRecorder* recorder = engine->flight_recorder();
  const uint64_t flight_since =
      recorder != nullptr ? MaxTicks(recorder->Snapshot()) : 0;
  uint64_t flight_events = 0;
  size_t flight_queries = 0;
  const obs::MetricsSnapshot before = engine->metrics()->Snapshot();
  std::vector<double> traced_ms;
  double edge_ttf_ms = 0.0;
  uint64_t edge_ttf_calls = 0;
  size_t searched = 0;     // allFP + singleFP engine queries.
  size_t disk_queries = 0;  // Forward kinds on the disk-backed engine.
  double border_bps = 0.0;
  size_t borders = 0;
  const auto engine_start = Clock::now();
  const double engine_budget = budget_s / 2.0;
  if (rush) {
    size_t r = 0;
    do {
      std::vector<obs::Trace> traces;
      const core::BatchResult batch = engine->RunBatchWithMetrics(
          round_queries(r), kBatchThreads, &traces);
      r = (r + 1) % (n / round);
      for (size_t i = 0; i < round; ++i) {
        traced_ms.push_back(batch.per_query_millis[i]);
        edge_ttf_ms += LeafMs(traces[i], "edge_ttf", &edge_ttf_calls);
        const core::AllFpResult& r = batch.results[i];
        if (!r.found || !r.border.has_value()) {
          ++*failed;
          continue;
        }
        border_bps += static_cast<double>(r.border->breakpoints().size());
        ++borders;
      }
      if (flight_queries == 0 && recorder != nullptr) {
        flight_events = EventsAfter(recorder->Snapshot(), flight_since);
        flight_queries = round;
      }
      searched += round;
    } while (SecondsSince(engine_start) < engine_budget);
  } else {
    size_t next = 0;
    do {
      for (size_t j = 0; j < round; ++j, next = (next + 1) % n) {
        const Query& q = qs[next];
        obs::Trace trace;
        const auto start = Clock::now();
        const Answer a = RunOne(engine, q, &trace);
        traced_ms.push_back(MillisSince(start));
        edge_ttf_ms += LeafMs(trace, "edge_ttf", &edge_ttf_calls);
        if (q.kind == Kind::kAllFp || q.kind == Kind::kSingleFp) ++searched;
        if (disk && Forward(q.kind)) ++disk_queries;
        if (!Found(q, a)) {
          ++*failed;
        } else if (q.kind == Kind::kAllFp) {
          border_bps += static_cast<double>(a.all.border->breakpoints().size());
          ++borders;
        }
        if (traced_ms.size() == kFlightWindow && recorder != nullptr) {
          flight_events = EventsAfter(recorder->Snapshot(), flight_since);
          flight_queries = kFlightWindow;
        }
      }
    } while (SecondsSince(engine_start) < engine_budget);
  }
  *attempted += static_cast<int64_t>(traced_ms.size());
  const obs::MetricsSnapshot after = engine->metrics()->Snapshot();
  RegistryDelta reg(before, after, absent);
  const double engine_queries = static_cast<double>(traced_ms.size());

  v["network.edge_ttf_calls_per_query"] =
      Ratio(static_cast<double>(edge_ttf_calls), searched);
  v["network.edge_ttf_ms_per_query"] = Ratio(edge_ttf_ms, searched);
  {
    const double hits = reg.Counter("capefp.ttf_cache.hits",
                                    "network.ttf_cache_hit_rate");
    const double misses = reg.Counter("capefp.ttf_cache.misses",
                                      "network.ttf_cache_hit_rate");
    v["network.ttf_cache_hit_rate"] = Ratio(hits, hits + misses);
  }
  const double bp_in = reg.Counter("capefp.tdf.simplify.breakpoints_in",
                                   "tdf.simplify.breakpoints_in_per_query");
  const double bp_out = reg.Counter("capefp.tdf.simplify.breakpoints_out",
                                    "tdf.simplify.compression_ratio");
  v["tdf.simplify.breakpoints_in_per_query"] = Ratio(bp_in, searched);
  v["tdf.simplify.compression_ratio"] = Ratio(bp_out, bp_in);
  v["tdf.simplify.refined_paths_per_query"] =
      Ratio(reg.Counter("capefp.tdf.simplify.refined_paths",
                        "tdf.simplify.refined_paths_per_query"),
            searched);
  v["tdf.simplify.refine_ms_per_query"] =
      Ratio(reg.HistogramSum("capefp.tdf.simplify.refine_ms",
                             "tdf.simplify.refine_ms_per_query"),
            searched);
  v["tdf.arena.spills_per_query"] =
      Ratio(reg.Counter("capefp.tdf.arena.spills", "tdf.arena.spills_per_query"),
            engine_queries);
  v["tdf.arena.high_water_bytes"] = reg.Gauge(
      "capefp.tdf.arena.high_water_bytes", "tdf.arena.high_water_bytes");
  v["tdf.border_breakpoints_per_query"] = Ratio(border_bps, borders);
  if (disk) {
    const double hits =
        reg.Counter("capefp.storage.pool.hits", "storage.pool_hit_rate");
    const double faults = reg.Counter("capefp.storage.pool.faults",
                                      "storage.page_faults_per_query");
    const double reads = reg.Counter("capefp.storage.pager.page_reads",
                                     "storage.read_us_per_page");
    const double read_us = reg.Counter("capefp.storage.pager.read_micros",
                                       "storage.read_us_per_page");
    const double write_us = reg.Counter("capefp.storage.pager.write_micros",
                                        "storage.io_ms_per_query");
    v["storage.page_faults_per_query"] = Ratio(faults, disk_queries);
    v["storage.pool_hit_rate"] = Ratio(hits, hits + faults);
    v["storage.read_us_per_page"] = Ratio(read_us, reads);
    v["storage.io_ms_per_query"] =
        Ratio((read_us + write_us) / 1000.0, disk_queries);
  }
  if (recorder == nullptr) absent->push_back("obs.flight_events_per_query");
  v["obs.flight_events_per_query"] =
      Ratio(static_cast<double>(flight_events), flight_queries);
  v["obs.trace_overhead_ratio"] =
      Ratio(Percentile(traced_ms, 50.0), Percentile(st->latency_ms, 50.0));

  // --- Layer pass. ---
  const auto index_start = Clock::now();
  core::BoundaryIndexOptions index_options;
  index_options.grid_dim = core::EngineOptions().boundary_grid_dim;
  index_options.mode = core::BoundaryIndexOptions::Mode::kTravelTime;
  const core::BoundaryNodeIndex index(*st->network, index_options);
  v["core.estimator.build_s"] = SecondsSince(index_start);

  network::InMemoryAccessor memory(st->network);
  std::unique_ptr<storage::CcamStore> store;
  std::optional<storage::CcamAccessor> ccam;
  network::NetworkAccessor* inner = &memory;
  if (disk) {
    const std::string path = st->dir + "/layers.ccam";
    const auto build_start = Clock::now();
    auto report = storage::BuildCcamFile(*st->network, path);
    CAPEFP_CHECK(report.ok()) << report.status().ToString();
    v["storage.build_s"] = SecondsSince(build_start);
    const auto open_start = Clock::now();
    storage::CcamOpenOptions open;
    open.buffer_pool_pages = kPoolPages;
    auto opened = storage::CcamStore::Open(path, open);
    CAPEFP_CHECK(opened.ok()) << opened.status().ToString();
    v["storage.open_s"] = SecondsSince(open_start);
    store = std::move(*opened);
    std::printf("ccam: %u file pages of %u bytes, buffer pool %zu pages\n",
                store->file_pages(), store->page_size(), kPoolPages);
    ccam.emplace(store.get());
    inner = &*ccam;
  }
  TimedAccessor accessor(inner);
  Tally estimates;
  core::ProfileSearchOptions options;
  options.simplify_eps = st->eps_seconds / 60.0;
  core::ProfileSearch::Scratch scratch;
  core::TdAStarScratch td_scratch;
  struct Sum {
    double ms = 0.0, self_ms = 0.0, expansions = 0.0, pushes = 0.0,
           dominated = 0.0, bound = 0.0;
    size_t count = 0;
  } fwd, rev, td;
  size_t forward_queries = 0;
  size_t layer_queries = 0;
  const auto layer_start = Clock::now();
  const double layer_budget = budget_s / 2.0;
  size_t next = 0;
  do {
    const Query& q = qs[next];
    next = (next + 1) % n;
    ++layer_queries;
    const bool reverse =
        q.kind == Kind::kArriveAllFp || q.kind == Kind::kArriveSingleFp;
    // The estimator reads locations through the undecorated accessor, so
    // its time is not counted twice.
    TimedEstimator estimator(
        std::make_unique<core::BoundaryNodeEstimator>(
            &index, inner, reverse ? q.source : q.target,
            reverse ? core::BoundaryNodeEstimator::Direction::kFromAnchor
                    : core::BoundaryNodeEstimator::Direction::kToAnchor,
            &scratch.estimator),
        &estimates);
    const Tally succ0 = accessor.successors;
    const Tally loc0 = accessor.location;
    const Tally est0 = estimates;
    obs::Trace trace;
    bool found = false;
    const auto start = Clock::now();
    if (q.kind == Kind::kAt) {
      const core::TdAStarResult r = core::TdAStar(
          &accessor, q.source, q.target, q.lo, &estimator, nullptr,
          &td_scratch);
      td.ms += MillisSince(start);
      found = r.found;
      td.expansions += static_cast<double>(r.expanded_nodes);
      ++td.count;
    } else if (reverse) {
      core::ReverseProfileSearch search(st->network, &estimator, options,
                                        &scratch);
      const core::ReverseProfileQuery rq{q.source, q.target, q.lo, q.hi};
      core::SearchStats stats;
      if (q.kind == Kind::kArriveAllFp) {
        const core::ReverseAllFpResult r = search.RunAllFp(rq);
        stats = r.stats;
        found = r.found && r.border.has_value();
      } else {
        const core::ReverseSingleFpResult r = search.RunSingleFp(rq);
        stats = r.stats;
        found = r.found;
      }
      rev.ms += MillisSince(start);
      rev.expansions += static_cast<double>(stats.expansions);
      ++rev.count;
    } else {
      core::SearchStats stats;
      {
        obs::Trace::Span span = trace.StartSpan("search");
        core::ProfileSearch search(&accessor, &estimator, options, &scratch,
                                   &trace);
        const core::ProfileQuery fq{q.source, q.target, q.lo, q.hi};
        if (q.kind == Kind::kAllFp) {
          const core::AllFpResult r = search.RunAllFp(fq);
          stats = r.stats;
          found = r.found && r.border.has_value();
        } else {
          const core::SingleFpResult r = search.RunSingleFp(fq);
          stats = r.stats;
          found = r.found;
        }
      }
      const double ms = MillisSince(start);
      uint64_t ttf_calls = 0;
      const double children_ms =
          (accessor.successors.ns - succ0.ns + accessor.location.ns -
           loc0.ns + estimates.ns - est0.ns) /
              1e6 +
          LeafMs(trace, "edge_ttf", &ttf_calls);
      fwd.ms += ms;
      fwd.self_ms += ms - children_ms;
      fwd.expansions += static_cast<double>(stats.expansions);
      fwd.pushes += static_cast<double>(stats.pushes);
      fwd.dominated += static_cast<double>(stats.pruned_dominated);
      fwd.bound += static_cast<double>(stats.pruned_bound);
      ++fwd.count;
    }
    if (!reverse) ++forward_queries;
    if (!found) ++*failed;
  } while (SecondsSince(layer_start) < layer_budget);
  *attempted += static_cast<int64_t>(layer_queries);

  const double succ_calls = static_cast<double>(accessor.successors.calls);
  v["network.successors_calls_per_query"] = Ratio(succ_calls, forward_queries);
  v["network.successors_ns_per_call"] =
      Ratio(accessor.successors.ns, succ_calls);
  if (disk) {
    v["storage.successors_ns_per_call"] =
        Ratio(accessor.successors.ns, succ_calls);
  }
  v["core.estimator.estimate_calls_per_query"] =
      Ratio(static_cast<double>(estimates.calls), layer_queries);
  v["core.estimator.estimate_ns_per_call"] =
      Ratio(estimates.ns, static_cast<double>(estimates.calls));
  const auto per = [](double total, size_t count) {
    return Ratio(total, static_cast<double>(count));
  };
  v["core.search.ms_per_query"] = per(fwd.ms, fwd.count);
  v["core.search.self_ms_per_query"] = per(fwd.self_ms, fwd.count);
  v["core.search.expansions_per_query"] = per(fwd.expansions, fwd.count);
  v["core.search.pushes_per_query"] = per(fwd.pushes, fwd.count);
  v["core.search.pruned_dominated_per_query"] = per(fwd.dominated, fwd.count);
  v["core.search.pruned_bound_per_query"] = per(fwd.bound, fwd.count);
  v["core.search.push_yield"] = Ratio(fwd.expansions, fwd.pushes);
  v["core.reverse_search.ms_per_query"] = per(rev.ms, rev.count);
  v["core.reverse_search.expansions_per_query"] =
      per(rev.expansions, rev.count);
  v["core.td_astar.ms_per_query"] = per(td.ms, td.count);
  v["core.td_astar.expanded_nodes_per_query"] = per(td.expansions, td.count);

  // Estimator tightness: bound at the source over the oracle's optimum at
  // the window start, over the first kTightnessQueries distinct forward
  // queries.
  Oracle oracle(st->network);
  double tightness = 0.0;
  size_t tight_count = 0;
  std::set<std::pair<NodeId, NodeId>> seen;
  for (const Query& q : qs) {
    if (tight_count == kTightnessQueries) break;
    if (!Forward(q.kind) || !seen.insert({q.source, q.target}).second) {
      continue;
    }
    core::BoundaryNodeEstimator estimator(&index, &memory, q.target);
    tightness += Ratio(estimator.Estimate(q.source),
                       oracle.FastestTime(q.source, q.target, q.lo));
    ++tight_count;
  }
  v["core.estimator.tightness"] = per(tightness, tight_count);

  std::vector<Metric> out;
  for (const auto& [name, unit] : LayerMetrics()) {
    out.push_back({name, unit, v.count(name) ? v[name] : 0.0});
  }
  return out;
}

}  // namespace capefp::e2e
