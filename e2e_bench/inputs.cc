// Input generation: the Suffolk-style network (Table-1 or dense synthetic
// speed profiles) and the seeded query list of each workload. Runs in its
// own process so that the measured process starts from the files alone.
#include "e2e_bench/inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>

#include "src/gen/suffolk_generator.h"
#include "src/network/network_io.h"
#include "src/tdf/speed_pattern.h"
#include "src/util/check.h"
#include "src/util/random.h"

namespace capefp::e2e {

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kAllFp: return "all";
    case Kind::kSingleFp: return "single";
    case Kind::kAt: return "at";
    case Kind::kArriveAllFp: return "arrive_all";
    case Kind::kArriveSingleFp: return "arrive_single";
  }
  return "?";
}

bool ParseKind(const std::string& name, Kind* kind) {
  for (Kind k : {Kind::kAllFp, Kind::kSingleFp, Kind::kAt, Kind::kArriveAllFp,
                 Kind::kArriveSingleFp}) {
    if (name == KindName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

bool ParseWorkload(const std::string& name, Workload* workload) {
  if (name == "rush_batch") {
    *workload = Workload::kRushBatch;
  } else if (name == "commute_mixed") {
    *workload = Workload::kCommuteMixed;
  } else if (name == "dense_eps") {
    *workload = Workload::kDenseEps;
  } else {
    return false;
  }
  return true;
}

void WriteQueries(const std::vector<Query>& queries, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  CAPEFP_CHECK(f != nullptr) << "cannot write " << path;
  for (const Query& q : queries) {
    std::fprintf(f, "%s %d %d %.17g %.17g\n", KindName(q.kind), q.source,
                 q.target, q.lo, q.hi);
  }
  CAPEFP_CHECK(std::fclose(f) == 0) << "cannot close " << path;
}

std::vector<Query> ReadQueries(const std::string& path) {
  std::ifstream in(path);
  CAPEFP_CHECK(in.good()) << "cannot read " << path;
  std::vector<Query> out;
  std::string kind;
  Query q;
  while (in >> kind >> q.source >> q.target >> q.lo >> q.hi) {
    CAPEFP_CHECK(ParseKind(kind, &q.kind)) << "bad query kind " << kind;
    out.push_back(q);
  }
  CAPEFP_CHECK(in.eof()) << "malformed query file " << path;
  CAPEFP_CHECK(!out.empty()) << "empty query file " << path;
  return out;
}

namespace {

using network::NodeId;
using network::RoadClass;

// Fixed network seed: every workload and every --seed runs on the same
// graph, so set-up cost and memory do not vary with the query seed.
constexpr uint64_t kNetworkSeed = 42;
constexpr uint64_t kDenseProfileSeed = 7;

double Dist(const geo::Point& a, const geo::Point& b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

NodeId RandomNode(const network::RoadNetwork& net, util::Rng* rng) {
  return static_cast<NodeId>(rng->NextBounded(net.num_nodes()));
}

// `count` pairs whose straight-line separations fall one in each of
// `count` equal strata of [lo, hi) miles. Stratifying keeps the mix of
// query lengths, and with it the work per round, alike across seeds.
std::vector<std::pair<NodeId, NodeId>> StratifiedPairs(
    const network::RoadNetwork& net, double lo, double hi, int count,
    util::Rng* rng) {
  std::vector<std::pair<NodeId, NodeId>> out;
  const double width = (hi - lo) / count;
  for (int k = 0; k < count; ++k) {
    const double a = lo + k * width;
    const double b = a + width;
    while (true) {
      const NodeId s = RandomNode(net, rng);
      const NodeId t = RandomNode(net, rng);
      const double d = Dist(net.location(s), net.location(t));
      if (s != t && d >= a && d < b) {
        out.emplace_back(s, t);
        break;
      }
    }
  }
  return out;
}

// Inbound commutes: a source in the inner suburbs (1.5-2 city radii from
// the centre) and a target in the urban core (within half a radius), one
// pair per equal stratum of [3, 5.5) miles of straight-line separation
// (the range nearly all such pairs fall in).
std::vector<std::pair<NodeId, NodeId>> CommutePairs(
    const gen::SuffolkNetwork& sn, int count, util::Rng* rng) {
  const network::RoadNetwork& net = sn.network;
  const double r = sn.city_radius_miles;
  constexpr double kLo = 3.0;
  constexpr double kHi = 5.5;
  std::vector<std::pair<NodeId, NodeId>> out;
  for (int k = 0; k < count; ++k) {
    const double a = kLo + k * (kHi - kLo) / count;
    const double b = kLo + (k + 1) * (kHi - kLo) / count;
    while (true) {
      const NodeId s = RandomNode(net, rng);
      const double ds = Dist(net.location(s), sn.city_center);
      if (ds < 1.5 * r || ds > 2.0 * r) continue;
      const NodeId t = RandomNode(net, rng);
      const double d = Dist(net.location(s), net.location(t));
      if (Dist(net.location(t), sn.city_center) <= 0.5 * r && d >= a &&
          d < b) {
        out.emplace_back(s, t);
        break;
      }
    }
  }
  return out;
}

template <typename T>
void Shuffle(std::vector<T>* v, util::Rng* rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng->NextBounded(i)]);
  }
}

// Workday speed (mph) of one dense-profile variant at `minute`: the class's
// free-flow speed times raised-cosine dips around the two rush peaks.
struct DipShape {
  double free_mph;
  double am_floor;  // Speed factor at the bottom of the morning dip.
  double pm_floor;  // Same for the evening dip.
  double am_center;
  double pm_center;
};

double DipFactor(double minute, double center, double floor_factor) {
  constexpr double kHalfWidth = 90.0;  // A 3-hour dip: 07:00-10:00 etc.
  const double off = std::abs(minute - center);
  if (off >= kHalfWidth) return 1.0;
  const double depth =
      0.5 * (1.0 + std::cos(std::numbers::pi * off / kHalfWidth));
  return 1.0 - (1.0 - floor_factor) * depth;
}

DipShape ClassShape(RoadClass rc) {
  switch (rc) {
    case RoadClass::kInboundHighway:
      return {65.0, 20.0 / 65.0, 1.0, 510.0, 1050.0};
    case RoadClass::kOutboundHighway:
      return {65.0, 1.0, 30.0 / 65.0, 510.0, 1050.0};
    case RoadClass::kLocalInCity:
      return {40.0, 0.5, 0.5, 510.0, 1050.0};
    case RoadClass::kLocalOutsideCity:
      return {40.0, 0.8, 0.8, 510.0, 1050.0};
  }
  return {40.0, 1.0, 1.0, 510.0, 1050.0};
}

tdf::CapeCodPattern DenseVariant(RoadClass rc, int bucket_minutes,
                                 util::Rng* rng) {
  DipShape shape = ClassShape(rc);
  // Per-variant jitter: peaks move by up to ±20 min, dips deepen or
  // flatten by up to 15%.
  shape.am_center += rng->NextDouble(-20.0, 20.0);
  shape.pm_center += rng->NextDouble(-20.0, 20.0);
  const double scale = rng->NextDouble(0.85, 1.15);
  shape.am_floor = std::clamp(1.0 - (1.0 - shape.am_floor) * scale, 0.1, 1.0);
  shape.pm_floor = std::clamp(1.0 - (1.0 - shape.pm_floor) * scale, 0.1, 1.0);
  std::vector<tdf::SpeedPiece> pieces;
  for (int m = 0; m < 1440; m += bucket_minutes) {
    const double mid = m + 0.5 * bucket_minutes;
    const double noise = rng->NextDouble(0.9, 1.1);
    const double mph = std::max(
        5.0, shape.free_mph * DipFactor(mid, shape.am_center, shape.am_floor) *
                 DipFactor(mid, shape.pm_center, shape.pm_floor) * noise);
    pieces.push_back({static_cast<double>(m), tdf::MphToMpm(mph)});
  }
  const double weekend_mph =
      rc == RoadClass::kInboundHighway || rc == RoadClass::kOutboundHighway
          ? 65.0
          : 40.0;
  std::vector<tdf::DailySpeedPattern> per_category;
  per_category.emplace_back(std::move(pieces));  // gen::kWorkday == 0.
  per_category.push_back(
      tdf::DailySpeedPattern::Constant(tdf::MphToMpm(weekend_mph)));
  return tdf::CapeCodPattern(std::move(per_category));
}

}  // namespace

network::RoadNetwork WithDenseProfiles(const network::RoadNetwork& base,
                                       int bucket_minutes, uint64_t seed) {
  CAPEFP_CHECK(bucket_minutes > 0 && 1440 % bucket_minutes == 0);
  util::Rng rng(seed);
  network::RoadNetwork out(base.calendar());
  for (int c = 0; c < network::kNumRoadClasses; ++c) {
    for (int v = 0; v < kDenseVariantsPerClass; ++v) {
      out.AddPattern(
          DenseVariant(static_cast<RoadClass>(c), bucket_minutes, &rng));
    }
  }
  for (size_t n = 0; n < base.num_nodes(); ++n) {
    out.AddNode(base.location(static_cast<NodeId>(n)));
  }
  for (size_t e = 0; e < base.num_edges(); ++e) {
    const network::Edge& edge = base.edge(static_cast<network::EdgeId>(e));
    const auto variant =
        static_cast<network::PatternId>(rng.NextBounded(kDenseVariantsPerClass));
    const auto pattern = static_cast<network::PatternId>(
        static_cast<int>(edge.road_class) * kDenseVariantsPerClass + variant);
    out.AddEdge(edge.from, edge.to, edge.distance_miles, pattern,
                edge.road_class);
  }
  return out;
}

void GenerateInputs(Workload workload, uint64_t seed, bool dense,
                    int bucket_minutes, const std::string& dir) {
  gen::SuffolkOptions options;
  options.seed = kNetworkSeed;
  gen::SuffolkNetwork sn = gen::GenerateSuffolkNetwork(options);
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(workload));

  std::vector<Query> queries;
  const double am_lo = tdf::HhMm(7, 0);
  const double am_hi = tdf::HhMm(10, 0);
  switch (workload) {
    case Workload::kRushBatch: {
      // Each round: one pair per distance stratum of the three 1-mile
      // buckets (§6.2) plus as many suburb -> core commutes, shuffled.
      for (int r = 0; r < kRushRounds; ++r) {
        std::vector<Query> round;
        for (int mile = 1; mile <= 3; ++mile) {
          for (const auto& [s, t] :
               StratifiedPairs(sn.network, mile - 0.5, mile + 0.5,
                               kRushPerBucket, &rng)) {
            round.push_back({Kind::kAllFp, s, t, am_lo, am_hi});
          }
        }
        for (const auto& [s, t] : CommutePairs(sn, kRushPerBucket, &rng)) {
          round.push_back({Kind::kAllFp, s, t, am_lo, am_hi});
        }
        Shuffle(&round, &rng);
        queries.insert(queries.end(), round.begin(), round.end());
      }
      break;
    }
    case Workload::kCommuteMixed: {
      // Round r asks all five kinds for one suburb -> core commute. Each
      // cycle of kMixedStrata rounds covers every commute distance stratum
      // once and, per kind, every 15-minute stratum of window starts
      // (07:00-09:30 leaving, 07:30-10:00 arriving) once.
      constexpr int kCycle = kMixedStrata;
      const double stratum = 150.0 / kCycle;
      for (int c = 0; c < kMixedRounds / kCycle; ++c) {
        auto pairs = CommutePairs(sn, kCycle, &rng);
        Shuffle(&pairs, &rng);
        std::vector<std::vector<double>> starts(5);
        for (std::vector<double>& kind_starts : starts) {
          for (int k = 0; k < kCycle; ++k) {
            kind_starts.push_back((k + rng.NextDouble()) * stratum);
          }
          Shuffle(&kind_starts, &rng);
        }
        for (int k = 0; k < kCycle; ++k) {
          const auto [s, t] = pairs[static_cast<size_t>(k)];
          const auto at = [&](int kind) {
            return starts[static_cast<size_t>(kind)][static_cast<size_t>(k)];
          };
          const double arrive_lo = tdf::HhMm(7, 30);
          queries.push_back({Kind::kAt, s, t, am_lo + at(0), am_lo + at(0)});
          queries.push_back(
              {Kind::kSingleFp, s, t, am_lo + at(1), am_lo + at(1) + 30.0});
          queries.push_back(
              {Kind::kAllFp, s, t, am_lo + at(2), am_lo + at(2) + 30.0});
          queries.push_back({Kind::kArriveAllFp, s, t, arrive_lo + at(3),
                             arrive_lo + at(3) + 30.0});
          queries.push_back({Kind::kArriveSingleFp, s, t, arrive_lo + at(4),
                             arrive_lo + at(4) + 30.0});
        }
      }
      break;
    }
    case Workload::kDenseEps: {
      // Each round: one pair per distance stratum of 0.5-1.5 miles.
      for (int r = 0; r < kDenseRounds; ++r) {
        for (const auto& [s, t] : StratifiedPairs(
                 sn.network, 0.5, 1.5, RoundSize(Workload::kDenseEps), &rng)) {
          queries.push_back({Kind::kAllFp, s, t, am_lo, am_hi});
        }
      }
      break;
    }
  }

  const std::string net_path = dir + "/network.txt";
  util::Status st;
  if (dense) {
    st = network::WriteNetworkFile(
        WithDenseProfiles(sn.network, bucket_minutes, kDenseProfileSeed),
        net_path);
  } else {
    st = network::WriteNetworkFile(sn.network, net_path);
  }
  CAPEFP_CHECK(st.ok()) << st.ToString();
  WriteQueries(queries, dir + "/queries.txt");
}

}  // namespace capefp::e2e
