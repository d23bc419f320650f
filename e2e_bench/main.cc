// capefp end-to-end benchmark.
//
//   e2e_bench gen --workload W --seed N --dir D [--dense 1]
//                 [--bucket-minutes M]
//       writes D/network.txt and D/queries.txt (seeded inputs); --dense 1
//       gives any workload's list the dense-profile network.
//   e2e_bench run --workload W --seed N --seconds S --trace 0|1 --dir D
//       the measured process: loads the files, builds the engine, runs the
//       closed loop, checks every answer against the oracle and prints one
//       JSON line (end-to-end metrics, or per-layer ones with --trace 1).
//   e2e_bench selftest --case C --dir D
//       feeds the checker one deliberately wrong answer; exits 1 when the
//       checker rejects it (0 for the unmodified control cases).
//   e2e_bench probe --dir D --eps SECONDS --limit-mb M --queries K
//       exact/ε allFP over D's network under an address-space limit,
//       printing the compression ratio (used for the FOUND lines).
//
// run.py wraps these; see README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "e2e_bench/common.h"
#include "e2e_bench/inputs.h"
#include "e2e_bench/oracle.h"
#include "e2e_bench/runner.h"
#include "src/core/engine.h"
#include "src/network/network_io.h"
#include "src/tdf/travel_time.h"
#include "src/util/check.h"

namespace capefp::e2e {
namespace {

// commute_mixed compares the disk-backed allFP borders of this many
// leading rounds with an in-memory engine's.
constexpr size_t kDiskCheckRounds = 20;

// Tail percentile reported as latency_tail_ms, per workload: the highest
// percentile that keeps at least ten samples beyond it at the benchmark's
// run length (see README.md).
double TailPercentile(Workload w) {
  switch (w) {
    case Workload::kRushBatch: return 99.0;
    case Workload::kCommuteMixed: return 95.0;
    case Workload::kDenseEps: return 98.0;
  }
  return 50.0;
}

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      CAPEFP_CHECK(key.rfind("--", 0) == 0) << "bad argument " << key;
      values_[key.substr(2)] = argv[i + 1];
    }
  }
  std::string Get(const std::string& key) const {
    auto it = values_.find(key);
    CAPEFP_CHECK(it != values_.end()) << "missing --" << key;
    return it->second;
  }
  std::string Get(const std::string& key, const std::string& def) const {
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

 private:
  std::map<std::string, std::string> values_;
};

Workload GetWorkload(const Args& args) {
  Workload w;
  CAPEFP_CHECK(ParseWorkload(args.Get("workload"), &w))
      << "unknown workload " << args.Get("workload");
  return w;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

std::vector<core::ProfileQuery> ProfileQueries(const std::vector<Query>& qs) {
  std::vector<core::ProfileQuery> out;
  for (const Query& q : qs) out.push_back({q.source, q.target, q.lo, q.hi});
  return out;
}

// The timed closed loop over whole rounds of the list: rush_batch hands
// each round to one RunBatch call, the single-client workloads run its
// queries one at a time. Round 0 runs first as an untimed warm-up; timing
// starts at round 1. Only the query calls are timed; answers are kept (or
// compared with the first answer, should the list wrap) between them, and
// timed answers that hold no path are counted as failed.
void TimedPhase(RunState* st, double budget_s,
                std::vector<std::string>* errors) {
  const size_t n = st->queries.size();
  const size_t round = RoundSize(st->workload);
  const bool batch = st->workload == Workload::kRushBatch;
  st->reference.assign(n, std::nullopt);
  auto keep = [&](size_t i, Answer a, bool timed) {
    if (timed && !Found(st->queries[i], a)) ++st->failed;
    if (!st->reference[i].has_value()) {
      st->reference[i] = std::move(a);
    } else if (!SameAnswer(st->queries[i], *st->reference[i], a)) {
      errors->push_back("repeat of query " + std::to_string(i) +
                        " differs from its first answer");
    }
  };
  auto run_round = [&](size_t first, bool timed) {
    if (batch) {
      const std::vector<Query> qs(st->queries.begin() + first,
                                  st->queries.begin() + first + round);
      std::vector<double> ms;
      const auto start = Clock::now();
      auto results = st->engine->RunBatch(ProfileQueries(qs), kBatchThreads,
                                          &ms);
      const double wall = MillisSince(start);
      if (timed) {
        st->measured_s += wall / 1000.0;
        st->batch_wall_ms += wall;
        st->completed += static_cast<int64_t>(round);
        for (const double m : ms) {
          st->busy_ms += m;
          st->latency_ms.push_back(m);
        }
      }
      for (size_t j = 0; j < round; ++j) {
        Answer a;
        a.all = std::move(results[j]);
        keep(first + j, std::move(a), timed);
      }
      return;
    }
    for (size_t i = first; i < first + round; ++i) {
      const auto start = Clock::now();
      Answer a = RunOne(st->engine, st->queries[i]);
      const double ms = MillisSince(start);
      if (timed) {
        st->measured_s += ms / 1000.0;
        st->latency_ms.push_back(ms);
        ++st->completed;
      }
      keep(i, std::move(a), timed);
    }
  };
  run_round(0, /*timed=*/false);
  size_t first = round % n;
  while (st->measured_s < budget_s) {
    run_round(first, /*timed=*/true);
    first = (first + round) % n;
  }
}

// Oracle check of every first answer, plus (commute_mixed) disk-backed vs
// in-memory allFP borders.
void CheckPhase(RunState* st, std::vector<std::string>* errors) {
  Oracle oracle(st->network);
  const double eps_min = st->eps_seconds / 60.0;
  BandTally band;
  for (size_t i = 0; i < st->queries.size(); ++i) {
    if (!st->reference[i].has_value()) continue;
    const Query& q = st->queries[i];
    const std::string err =
        CheckAnswer(&oracle, q, *st->reference[i], eps_min,
                    SampleInstants(q, st->seed * 1000003u + i, 1), &band);
    if (!err.empty()) errors->push_back(err);
  }
  if (band.samples > 0) {
    std::printf("eps band: %lld of %lld sampled border values above "
                "optimum + eps, by up to %.6f min\n",
                static_cast<long long>(band.above),
                static_cast<long long>(band.samples),
                band.max_excess_minutes);
  }
  if (std::string err = BandVerdict(band); !err.empty()) {
    errors->push_back(err);
  }
  if (st->workload != Workload::kCommuteMixed) return;
  auto memory = core::FastestPathEngine::Create(st->network, {});
  CAPEFP_CHECK(memory.ok()) << memory.status().ToString();
  for (size_t i = 0; i < kDiskCheckRounds * RoundSize(st->workload); ++i) {
    const Query& q = st->queries[i];
    if (q.kind != Kind::kAllFp || !st->reference[i].has_value()) continue;
    const core::AllFpResult mem =
        (*memory)->AllFastestPaths({q.source, q.target, q.lo, q.hi});
    const auto& disk = st->reference[i]->all.border;
    if (!mem.border.has_value() || !disk.has_value() ||
        !tdf::PwlFunction::ApproxEqual(*disk, *mem.border, kTolMinutes)) {
      errors->push_back("disk-backed border of query " + std::to_string(i) +
                        " differs from the in-memory engine's");
    }
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) os << ", ";
    os << "\"" << metrics[i].name << "\": {\"value\": "
       << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
       << "\"}";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
  std::fflush(stdout);
}

int CmdRun(const Args& args) {
  const auto process_start = Clock::now();
  RunState st;
  st.workload = GetWorkload(args);
  st.dir = args.Get("dir");
  st.seed = std::stoull(args.Get("seed"));
  const double seconds = std::stod(args.Get("seconds"));
  const bool trace = args.Get("trace") == "1";
  CAPEFP_CHECK(seconds > 0.0) << "--seconds must be positive";

  // Set-up: everything a route planner pays before its first query.
  st.queries = ReadQueries(st.dir + "/queries.txt");
  const auto load_start = Clock::now();
  auto network = network::ReadNetworkFile(st.dir + "/network.txt");
  CAPEFP_CHECK(network.ok()) << network.status().ToString();
  st.load_s = SecondsSince(load_start);
  st.network = &*network;
  core::EngineOptions options;
  if (st.workload == Workload::kDenseEps) {
    st.eps_seconds = kDenseEpsSeconds;
    options.simplify_eps = st.eps_seconds;
  }
  if (st.workload == Workload::kCommuteMixed) {
    options.ccam_path = st.dir + "/engine.ccam";
    options.ccam_buffer_pool_pages = kPoolPages;
  }
  auto engine = core::FastestPathEngine::Create(st.network, options);
  CAPEFP_CHECK(engine.ok()) << engine.status().ToString();
  st.engine = engine->get();
  const double setup_s = SecondsSince(process_start);

  std::vector<std::string> errors;
  const auto timed_start = Clock::now();
  TimedPhase(&st, trace ? seconds / 2.0 : seconds, &errors);
  const double peak_rss_mb = PeakRssMb();
  const auto check_start = Clock::now();
  CheckPhase(&st, &errors);
  std::printf("phases: setup %.2f s, timed %.2f s, check %.2f s\n", setup_s,
              SecondsSince(timed_start) - SecondsSince(check_start),
              SecondsSince(check_start));

  int64_t attempted = st.completed;
  int64_t failed = st.failed;
  std::vector<Metric> metrics;
  if (trace) {
    std::vector<std::string> absent;
    metrics = RunTraced(&st, seconds / 2.0, &absent, &attempted, &failed);
    for (const std::string& name : absent) {
      std::printf("absent: %s (its component is not registered)\n",
                  name.c_str());
    }
  } else {
    const double tail_p = TailPercentile(st.workload);
    std::printf("latency_tail_ms is p%g of %zu samples\n", tail_p,
                st.latency_ms.size());
    metrics = {
        {"setup_s", "s", setup_s},
        {"qps", "1/s", static_cast<double>(st.completed) / st.measured_s},
        {"latency_p50_ms", "ms", Percentile(st.latency_ms, 50.0)},
        {"latency_tail_ms", "ms", Percentile(st.latency_ms, tail_p)},
        {"peak_rss_mb", "MiB", peak_rss_mb},
    };
  }
  for (size_t i = 0; i < errors.size() && i < 10; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", errors[i].c_str());
  }
  PrintResult(errors.empty(), attempted, failed, metrics);
  return errors.empty() ? 0 : 1;
}

int CmdGen(const Args& args) {
  const Workload workload = GetWorkload(args);
  GenerateInputs(workload, std::stoull(args.Get("seed")),
                 workload == Workload::kDenseEps || args.Get("dense", "0") == "1",
                 std::stoi(args.Get("bucket-minutes", "15")), args.Get("dir"));
  return 0;
}

// The edge a -> b of `net` (the shortest of parallel ones), or -1.
network::EdgeId EdgeBetween(const network::RoadNetwork& net, network::NodeId a,
                            network::NodeId b) {
  network::EdgeId best = -1;
  for (const network::EdgeId e : net.OutEdges(a)) {
    if (net.edge(e).to != b) continue;
    if (best < 0 ||
        net.edge(e).distance_miles < net.edge(best).distance_miles) {
      best = e;
    }
  }
  return best;
}

// `path` with the shortest u -> v -> u detour off one of its interior
// nodes u spliced in after u (v is neither path neighbour of u).
std::vector<network::NodeId> WithDetour(const network::RoadNetwork& net,
                                        std::vector<network::NodeId> path) {
  size_t at = 0;
  network::NodeId via = network::kInvalidNode;
  double best = std::numeric_limits<double>::infinity();
  for (size_t k = 1; k + 1 < path.size(); ++k) {
    for (const network::EdgeId out : net.OutEdges(path[k])) {
      const network::NodeId v = net.edge(out).to;
      const network::EdgeId back = EdgeBetween(net, v, path[k]);
      if (v == path[k - 1] || v == path[k + 1] || back < 0) continue;
      const double miles =
          net.edge(out).distance_miles + net.edge(back).distance_miles;
      if (miles < best) {
        best = miles;
        at = k;
        via = v;
      }
    }
  }
  CAPEFP_CHECK(at > 0) << "no detour off the victim's path";
  path.insert(path.begin() + static_cast<std::ptrdiff_t>(at) + 1,
              {via, path[at]});
  return path;
}

// Travel-time function of the walk `path` over leaving times [lo, hi],
// composed hop by hop with the tdf kernels.
tdf::PwlFunction WalkFunction(const network::RoadNetwork& net,
                              const std::vector<network::NodeId>& path,
                              double lo, double hi) {
  std::optional<tdf::PwlFunction> f;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    const network::EdgeId e = EdgeBetween(net, path[i], path[i + 1]);
    CAPEFP_CHECK(e >= 0) << "walk leaves the network";
    const double miles = net.edge(e).distance_miles;
    f = f.has_value()
            ? tdf::ExpandPath(*f, net.SpeedView(e), miles)
            : tdf::EdgeTravelTimeFunction(net.SpeedView(e), miles, lo, hi);
  }
  return *f;
}

// One deliberately wrong answer per case. The first query of the list
// whose exact answer has at least two pieces and a path of four or more
// nodes is the victim, so every mutation has something to break. The ε
// cases keep only the victim's first piece and splice a u -> v -> u detour
// into its path; the border becomes that walk's own travel-time function,
// so the answer passes every check but the band. ε is then set from the
// detour's cost at the sample instants: eps_band puts every sample at most
// 2% of ε above the band (under the cap, so the band share rejects it),
// eps_cap puts every sample more than kBandCapFactor × ε above it.
int CmdSelftest(const Args& args) {
  const std::string which = args.Get("case");
  const std::string dir = args.Get("dir");
  auto network = network::ReadNetworkFile(dir + "/network.txt");
  CAPEFP_CHECK(network.ok()) << network.status().ToString();
  const auto queries = ReadQueries(dir + "/queries.txt");
  core::EngineOptions options;
  options.simplify_eps = which == "none_eps" ? kDenseEpsSeconds : 0.0;
  auto engine = core::FastestPathEngine::Create(&*network, options);
  CAPEFP_CHECK(engine.ok()) << engine.status().ToString();
  double eps_min = options.simplify_eps / 60.0;

  Query victim;
  Answer answer;
  bool picked = false;
  for (const Query& q : queries) {
    if (q.kind != Kind::kAllFp) continue;
    answer.all = (*engine)->AllFastestPaths({q.source, q.target, q.lo, q.hi});
    if (answer.all.pieces.size() >= 2 &&
        answer.all.pieces[0].path.size() >= 4) {
      victim = q;
      picked = true;
      break;
    }
  }
  CAPEFP_CHECK(picked) << "no query with two pieces to mutate";
  core::AllFpResult& r = answer.all;
  if (which == "border_shift") {
    r.border = r.border->Shifted(0.01);
  } else if (which == "node_swap") {
    // Replace one interior node with another successor of its predecessor.
    auto& path = r.pieces[0].path;
    const size_t k = path.size() / 2;
    for (const network::EdgeId e : network->OutEdges(path[k - 1])) {
      const network::NodeId other = network->edge(e).to;
      if (other != path[k] && other != path[k + 1]) {
        path[k] = other;
        break;
      }
    }
  } else if (which == "gap") {
    r.pieces[0].leave_hi -= 0.01;
  } else if (which == "eps_band" || which == "eps_cap") {
    const core::AllFpPiece exact = r.pieces[0];
    victim.lo = exact.leave_lo;
    victim.hi = exact.leave_hi;
    const auto walk = WithDetour(*network, exact.path);
    r.pieces = {{victim.lo, victim.hi, walk}};
    r.border = WalkFunction(*network, walk, victim.lo, victim.hi);
    const Oracle probe(&*network);
    double lo = std::numeric_limits<double>::infinity(), hi = 0.0;
    for (const double l : SampleInstants(victim, 1, 3)) {
      const double detour =
          probe.PathTime(walk, l) - probe.PathTime(exact.path, l);
      lo = std::min(lo, detour);
      hi = std::max(hi, detour);
    }
    const double over =
        which == "eps_band" ? 1.02 : 1.1 * (1.0 + kBandCapFactor);
    eps_min = lo / over;
    CAPEFP_CHECK(which == "eps_cap" ||
                 hi <= (1.0 + kBandCapFactor) * eps_min)
        << "detour cost varies too much over the window";
    std::printf("%s: eps %.6f min, detour %.6f-%.6f min\n", which.c_str(),
                eps_min, lo, hi);
  } else {
    CAPEFP_CHECK(which == "none" || which == "none_eps")
        << "unknown case " << which;
  }
  // The same path as CheckPhase: ε answers go through a BandTally.
  Oracle oracle(&*network);
  BandTally band;
  std::string err = CheckAnswer(&oracle, victim, answer, eps_min,
                                SampleInstants(victim, 1, 3), &band);
  if (err.empty()) err = BandVerdict(band);
  std::printf("%s: %s\n", which.c_str(),
              err.empty() ? "accepted" : ("rejected: " + err).c_str());
  return err.empty() ? 0 : 1;
}

int CmdProbe(const Args& args) {
  const std::string dir = args.Get("dir");
  auto network = network::ReadNetworkFile(dir + "/network.txt");
  CAPEFP_CHECK(network.ok()) << network.status().ToString();
  const auto queries = ReadQueries(dir + "/queries.txt");
  core::EngineOptions options;
  options.simplify_eps = std::stod(args.Get("eps"));
  auto engine = core::FastestPathEngine::Create(&*network, options);
  CAPEFP_CHECK(engine.ok()) << engine.status().ToString();
  const rlim_t limit =
      static_cast<rlim_t>(std::stoull(args.Get("limit-mb"))) << 20;
  rlimit rl{limit, limit};
  CAPEFP_CHECK(setrlimit(RLIMIT_AS, &rl) == 0) << "setrlimit failed";
  const int count = std::stoi(args.Get("queries"));
  for (int i = 0; i < count && i < static_cast<int>(queries.size()); ++i) {
    const Query& q = queries[static_cast<size_t>(i)];
    const auto start = Clock::now();
    const auto r = (*engine)->AllFastestPaths({q.source, q.target, q.lo, q.hi});
    std::printf("query %d: %.1f ms, %zu pieces, %lld expansions\n", i,
                MillisSince(start), r.pieces.size(),
                static_cast<long long>(r.stats.expansions));
    std::fflush(stdout);
  }
  const obs::MetricsSnapshot snap = (*engine)->metrics()->Snapshot();
  const double in =
      static_cast<double>(snap.counter("capefp.tdf.simplify.breakpoints_in"));
  const double out =
      static_cast<double>(snap.counter("capefp.tdf.simplify.breakpoints_out"));
  std::printf("breakpoints_in %.0f breakpoints_out %.0f ratio %.6f\n", in, out,
              in > 0 ? out / in : 0.0);
  return 0;
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

Answer RunOne(core::FastestPathEngine* engine, const Query& q,
              obs::Trace* trace) {
  Answer a;
  switch (q.kind) {
    case Kind::kAllFp:
      a.all = engine->AllFastestPaths({q.source, q.target, q.lo, q.hi}, trace);
      break;
    case Kind::kSingleFp:
      a.single =
          engine->SingleFastestPath({q.source, q.target, q.lo, q.hi}, trace);
      break;
    case Kind::kAt:
      a.at = engine->FastestPathAt(q.source, q.target, q.lo, trace);
      break;
    case Kind::kArriveAllFp:
      a.arrive_all =
          engine->ArrivalAllFastestPaths({q.source, q.target, q.lo, q.hi});
      break;
    case Kind::kArriveSingleFp:
      a.arrive_single =
          engine->ArrivalSingleFastestPath({q.source, q.target, q.lo, q.hi});
      break;
  }
  return a;
}

}  // namespace capefp::e2e

int main(int argc, char** argv) {
  using namespace capefp::e2e;
  if (argc < 2) {
    std::fprintf(stderr, "usage: e2e_bench gen|run|selftest|probe ...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv);
  if (cmd == "gen") return CmdGen(args);
  if (cmd == "run") return CmdRun(args);
  if (cmd == "selftest") return CmdSelftest(args);
  if (cmd == "probe") return CmdProbe(args);
  std::fprintf(stderr, "unknown command %s\n", cmd.c_str());
  return 2;
}
