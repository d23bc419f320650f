// End-to-end contract of the engine-wide ε knob (DESIGN.md §12): with
// simplify_eps > 0 the searches run on ε-banded labels (lower functions
// plus scalar debt) with slack-widened dominance and bound pruning, then
// re-expand the returned paths exactly. Every value the caller sees is
// therefore the *true* travel time of a real path, and that path is
// within ε of optimal. These tests pin the contract at both levels:
//
//   * banded ProfileSearch / ReverseProfileSearch borders sit inside the
//     one-sided band [exact − tol, exact + ε] at sampled leave times
//     (never below exact: refinement returns achievable values);
//   * the acceptance-criterion property — every returned travel time is
//     within ε of an independently computed exact value — holds against
//     pointwise time-dependent Dijkstra (no shared code with the kernel);
//   * the engine knob (seconds) threads through, cache entries stay
//     uncontaminated across interleaved ε settings, and the
//     capefp.tdf.simplify.* metrics move only when ε > 0.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/boundary_estimator.h"
#include "src/core/engine.h"
#include "src/core/estimator.h"
#include "src/core/profile_search.h"
#include "src/core/reverse_profile_search.h"
#include "src/core/td_astar.h"
#include "src/gen/random_network.h"
#include "src/gen/suffolk_generator.h"
#include "src/util/random.h"

namespace capefp::core {
namespace {

using network::EdgeTtfCache;
using network::InMemoryAccessor;
using network::NodeId;
using network::RoadNetwork;
using tdf::HhMm;
using tdf::PwlFunction;

// ε values under test, in minutes (1s, 5s, 30s).
constexpr double kEpsLadder[] = {1.0 / 60.0, 5.0 / 60.0, 30.0 / 60.0};

// Asserts the banded border stays inside [exact − tol, exact + ε] over the
// sampled leave-time window. The lower edge is tight (refined values are
// true travel times of real paths, so they can never beat the optimum);
// the upper edge is the advertised ε bound.
void ExpectWithinEpsBand(const PwlFunction& banded, const PwlFunction& exact,
                         double eps_minutes, double lo, double hi,
                         const char* what) {
  constexpr int kSamples = 33;
  for (int i = 0; i <= kSamples; ++i) {
    const double l = lo + (hi - lo) * i / kSamples;
    const double want = exact.Value(l);
    const double got = banded.Value(l);
    EXPECT_GE(got, want - 1e-6)
        << what << ": banded border below exact at l=" << l
        << " eps=" << eps_minutes;
    EXPECT_LE(got, want + eps_minutes + 1e-6)
        << what << ": banded border above exact+eps at l=" << l
        << " eps=" << eps_minutes;
  }
}

class EpsSearchTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  RoadNetwork MakeNet(uint64_t salt) const {
    gen::RandomNetworkOptions opt;
    opt.seed = GetParam() ^ salt;
    opt.num_nodes = 50;
    opt.extra_edge_fraction = 0.8;
    return gen::MakeRandomNetwork(opt);
  }
};

TEST_P(EpsSearchTest, ForwardBordersStayWithinEps) {
  const RoadNetwork net = MakeNet(0);
  InMemoryAccessor acc(&net);
  EdgeTtfCache cache(512);
  acc.set_ttf_cache(&cache);
  util::Rng rng(GetParam());

  for (int trial = 0; trial < 3; ++trial) {
    const auto s = static_cast<NodeId>(rng.NextBounded(50));
    auto t = static_cast<NodeId>(rng.NextBounded(50));
    if (t == s) t = static_cast<NodeId>((t + 1) % 50);
    const ProfileQuery query{s, t, HhMm(7, 0), HhMm(10, 0)};

    EuclideanEstimator est(&acc, t);
    ProfileSearch exact_search(&acc, &est);
    const AllFpResult exact = exact_search.RunAllFp(query);

    for (const double eps : kEpsLadder) {
      ProfileSearchOptions opt;
      opt.simplify_eps = eps;
      ProfileSearch banded(&acc, &est, opt);
      const AllFpResult approx = banded.RunAllFp(query);
      ASSERT_EQ(approx.found, exact.found) << "eps=" << eps;
      if (!exact.found) continue;
      ExpectWithinEpsBand(*approx.border, *exact.border, eps, query.leave_lo,
                          query.leave_hi, "forward allFP");
      EXPECT_GT(approx.stats.refined_paths, 0) << "eps=" << eps;
      EXPECT_GT(approx.stats.simplify_breakpoints_in, 0) << "eps=" << eps;
    }
  }
}

TEST_P(EpsSearchTest, ForwardSingleFpWithinEps) {
  const RoadNetwork net = MakeNet(0x51);
  InMemoryAccessor acc(&net);
  EdgeTtfCache cache(512);
  acc.set_ttf_cache(&cache);
  util::Rng rng(GetParam() ^ 0x51);

  for (int trial = 0; trial < 3; ++trial) {
    const auto s = static_cast<NodeId>(rng.NextBounded(50));
    auto t = static_cast<NodeId>(rng.NextBounded(50));
    if (t == s) t = static_cast<NodeId>((t + 1) % 50);
    const ProfileQuery query{s, t, HhMm(6, 30), HhMm(9, 30)};

    EuclideanEstimator est(&acc, t);
    ProfileSearch exact_search(&acc, &est);
    const SingleFpResult exact = exact_search.RunSingleFp(query);

    for (const double eps : kEpsLadder) {
      ProfileSearchOptions opt;
      opt.simplify_eps = eps;
      ProfileSearch banded(&acc, &est, opt);
      const SingleFpResult approx = banded.RunSingleFp(query);
      ASSERT_EQ(approx.found, exact.found);
      if (!exact.found) continue;
      // The banded best is a true travel time of a real path, so it can
      // only lose to the exact best — and by at most ε.
      EXPECT_GE(approx.best_travel_minutes,
                exact.best_travel_minutes - 1e-6)
          << "eps=" << eps;
      EXPECT_LE(approx.best_travel_minutes,
                exact.best_travel_minutes + eps + 1e-6)
          << "eps=" << eps;
    }
  }
}

TEST_P(EpsSearchTest, ReverseBordersStayWithinEps) {
  const RoadNetwork net = MakeNet(0x99);
  InMemoryAccessor acc(&net);
  util::Rng rng(GetParam() ^ 0x99);
  const auto s = static_cast<NodeId>(rng.NextBounded(50));
  auto t = static_cast<NodeId>(rng.NextBounded(50));
  if (t == s) t = static_cast<NodeId>((t + 1) % 50);
  const ReverseProfileQuery query{s, t, HhMm(8, 30), HhMm(9, 30)};

  EuclideanEstimator est(&acc, s);
  ReverseProfileSearch exact_search(&net, &est);
  const ReverseAllFpResult exact = exact_search.RunAllFp(query);
  const ReverseSingleFpResult exact_single = exact_search.RunSingleFp(query);

  for (const double eps : kEpsLadder) {
    ProfileSearchOptions opt;
    opt.simplify_eps = eps;
    ReverseProfileSearch banded(&net, &est, opt);
    const ReverseAllFpResult approx = banded.RunAllFp(query);
    ASSERT_EQ(approx.found, exact.found) << "eps=" << eps;
    if (exact.found) {
      ExpectWithinEpsBand(*approx.border, *exact.border, eps,
                          query.arrive_lo, query.arrive_hi, "reverse allFP");
    }
    const ReverseSingleFpResult approx_single = banded.RunSingleFp(query);
    ASSERT_EQ(approx_single.found, exact_single.found);
    if (exact_single.found) {
      EXPECT_GE(approx_single.best_travel_minutes,
                exact_single.best_travel_minutes - 1e-6)
          << "eps=" << eps;
      EXPECT_LE(approx_single.best_travel_minutes,
                exact_single.best_travel_minutes + eps + 1e-6)
          << "eps=" << eps;
    }
  }
}

// The PR's acceptance criterion, stated directly: for ε > 0, every travel
// time the banded search returns is within ε of the exact value, where
// "exact" comes from an independent pointwise time-dependent Dijkstra
// (not from any code path that saw the simplification kernel).
TEST_P(EpsSearchTest, ReturnedTravelTimesWithinEpsOfIndependentDijkstra) {
  const RoadNetwork net = MakeNet(0x777);
  InMemoryAccessor acc(&net);
  EdgeTtfCache cache(512);
  acc.set_ttf_cache(&cache);
  util::Rng rng(GetParam() ^ 0x777);
  const auto s = static_cast<NodeId>(rng.NextBounded(50));
  auto t = static_cast<NodeId>(rng.NextBounded(50));
  if (t == s) t = static_cast<NodeId>((t + 1) % 50);
  const ProfileQuery query{s, t, HhMm(7, 0), HhMm(9, 0)};

  // Independent accessor so the Dijkstra reference never shares cache
  // entries with the banded search.
  InMemoryAccessor ref_acc(&net);
  ZeroEstimator zero;

  for (const double eps : kEpsLadder) {
    ProfileSearchOptions opt;
    opt.simplify_eps = eps;
    EuclideanEstimator est(&acc, t);
    ProfileSearch banded(&acc, &est, opt);
    const AllFpResult result = banded.RunAllFp(query);
    ASSERT_TRUE(result.found);
    for (int i = 0; i <= 40; ++i) {
      const double l = query.leave_lo +
                       (query.leave_hi - query.leave_lo) * i / 40.0;
      const TdAStarResult truth = TdAStar(&ref_acc, s, t, l, &zero);
      ASSERT_TRUE(truth.found);
      const double got = result.border->Value(l);
      // Acceptance bound: exact <= returned <= exact + eps. The lower
      // edge is tight because refinement re-expands the returned path
      // with exact edge functions — the value is achievable, so it can
      // never beat the true optimum.
      EXPECT_GE(got, truth.travel_time_minutes - 1e-9)
          << "eps=" << eps << " l=" << l;
      EXPECT_LE(got, truth.travel_time_minutes + eps + 1e-9)
          << "eps=" << eps << " l=" << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpsSearchTest,
                         ::testing::Values(11u, 202u, 4242u));

// ---------------------------------------------------------------------------
// Engine-level knob: EngineOptions::simplify_eps is in seconds, results
// stay within ε of exact, and the capefp.tdf.simplify.* metrics move.

TEST(EngineEpsTest, KnobStaysWithinEpsAndPublishesMetrics) {
  gen::SuffolkNetwork sn =
      gen::GenerateSuffolkNetwork(gen::SuffolkOptions::Small());
  auto exact_engine = FastestPathEngine::Create(&sn.network, {});
  ASSERT_TRUE(exact_engine.ok());

  EngineOptions eps_options;
  eps_options.simplify_eps = 5.0;  // Seconds.
  const double eps_minutes = eps_options.simplify_eps / 60.0;
  auto eps_engine = FastestPathEngine::Create(&sn.network, eps_options);
  ASSERT_TRUE(eps_engine.ok()) << eps_engine.status().ToString();

  util::Rng rng(7);
  const auto n = sn.network.num_nodes();
  for (int trial = 0; trial < 4; ++trial) {
    const auto s = static_cast<NodeId>(rng.NextBounded(n));
    auto t = static_cast<NodeId>(rng.NextBounded(n));
    if (t == s) t = static_cast<NodeId>((t + 1) % n);
    const ProfileQuery query{s, t, HhMm(7, 0), HhMm(9, 0)};
    const AllFpResult a = (*exact_engine)->AllFastestPaths(query);
    const AllFpResult b = (*eps_engine)->AllFastestPaths(query);
    ASSERT_EQ(a.found, b.found);
    if (a.found) {
      ExpectWithinEpsBand(*b.border, *a.border, eps_minutes, query.leave_lo,
                          query.leave_hi, "engine allFP");
    }
    const SingleFpResult sa = (*exact_engine)->SingleFastestPath(query);
    const SingleFpResult sb = (*eps_engine)->SingleFastestPath(query);
    ASSERT_EQ(sa.found, sb.found);
    if (sa.found) {
      EXPECT_GE(sb.best_travel_minutes, sa.best_travel_minutes - 1e-6);
      EXPECT_LE(sb.best_travel_minutes,
                sa.best_travel_minutes + eps_minutes + 1e-6);
    }
  }

  // Arrival-side queries honor the knob too.
  const ReverseProfileQuery rq{0, static_cast<NodeId>(n / 2), HhMm(8, 30),
                               HhMm(9, 0)};
  const ReverseAllFpResult ra = (*exact_engine)->ArrivalAllFastestPaths(rq);
  const ReverseAllFpResult rb = (*eps_engine)->ArrivalAllFastestPaths(rq);
  ASSERT_EQ(ra.found, rb.found);
  if (ra.found) {
    ExpectWithinEpsBand(*rb.border, *ra.border, eps_minutes, rq.arrive_lo,
                        rq.arrive_hi, "engine reverse allFP");
  }

  // The ε engine published compression metrics; the exact engine's stayed
  // registered-but-zero.
  const auto eps_snap = (*eps_engine)->metrics()->Snapshot();
  const auto exact_snap = (*exact_engine)->metrics()->Snapshot();
  ASSERT_TRUE(eps_snap.counters.count("capefp.tdf.simplify.breakpoints_in"));
  EXPECT_GT(eps_snap.counters.at("capefp.tdf.simplify.breakpoints_in"), 0u);
  EXPECT_GT(eps_snap.counters.at("capefp.tdf.simplify.breakpoints_out"), 0u);
  EXPECT_GT(eps_snap.counters.at("capefp.tdf.simplify.refined_paths"), 0u);
  EXPECT_GE(eps_snap.counters.at("capefp.tdf.simplify.breakpoints_in"),
            eps_snap.counters.at("capefp.tdf.simplify.breakpoints_out"));
  EXPECT_EQ(exact_snap.counters.at("capefp.tdf.simplify.breakpoints_in"), 0u);
  EXPECT_EQ(exact_snap.counters.at("capefp.tdf.simplify.refined_paths"), 0u);
}

TEST(EngineEpsTest, NegativeEpsIsRejected) {
  gen::SuffolkNetwork sn =
      gen::GenerateSuffolkNetwork(gen::SuffolkOptions::Small());
  // Caller input: a Status, never a CHECK.
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    EngineOptions options;
    options.simplify_eps = bad;
    const auto engine = FastestPathEngine::Create(&sn.network, options);
    ASSERT_FALSE(engine.ok()) << bad;
    EXPECT_EQ(engine.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(engine.status().message().find("simplify_eps"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace capefp::core
