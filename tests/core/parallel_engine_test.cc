// RunBatch determinism: batched parallel execution must return answers
// bit-identical to the sequential engine, on both the in-memory and the
// disk-backed (shared BufferPool/Pager) paths. Exercised under TSan by
// tools/run_checks.sh, where the assertions double as a race detector for
// the whole shared-state query stack (edge-TTF memo, buffer pool, pager,
// boundary index).
#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/core/engine.h"
#include "src/gen/suffolk_generator.h"
#include "src/tdf/speed_pattern.h"
#include "src/util/random.h"
#include "tests/testing/temp_path.h"

namespace capefp::core {
namespace {

using tdf::HhMm;

std::vector<ProfileQuery> MakeWorkload(const network::RoadNetwork& net,
                                       int count) {
  util::Rng rng(7);
  std::vector<ProfileQuery> queries;
  while (queries.size() < static_cast<size_t>(count)) {
    const auto s =
        static_cast<network::NodeId>(rng.NextBounded(net.num_nodes()));
    const auto t =
        static_cast<network::NodeId>(rng.NextBounded(net.num_nodes()));
    if (s == t) continue;
    queries.push_back({s, t, HhMm(7, 0), HhMm(10, 0)});
  }
  return queries;
}

// Exact equality — not ApproxEqual. Identical floating-point bits are the
// whole point: parallel scheduling, memo hits, publication races and a
// full memo's on-demand derivations must not leak into results.
void ExpectBitIdentical(const AllFpResult& a, const AllFpResult& b,
                        size_t query_index) {
  SCOPED_TRACE("query " + std::to_string(query_index));
  ASSERT_EQ(a.found, b.found);
  if (!a.found) return;

  ASSERT_TRUE(a.border.has_value());
  ASSERT_TRUE(b.border.has_value());
  const auto& border_a = a.border->breakpoints();
  const auto& border_b = b.border->breakpoints();
  ASSERT_EQ(border_a.size(), border_b.size());
  for (size_t i = 0; i < border_a.size(); ++i) {
    EXPECT_EQ(border_a[i].x, border_b[i].x) << "border breakpoint " << i;
    EXPECT_EQ(border_a[i].y, border_b[i].y) << "border breakpoint " << i;
  }

  ASSERT_EQ(a.pieces.size(), b.pieces.size());
  for (size_t i = 0; i < a.pieces.size(); ++i) {
    EXPECT_EQ(a.pieces[i].leave_lo, b.pieces[i].leave_lo) << "piece " << i;
    EXPECT_EQ(a.pieces[i].leave_hi, b.pieces[i].leave_hi) << "piece " << i;
    EXPECT_EQ(a.pieces[i].path, b.pieces[i].path) << "piece " << i;
  }
}

class ParallelEngineTest : public ::testing::Test {
 protected:
  static constexpr int kQueries = 12;

  void RunDeterminismChecks(FastestPathEngine& engine,
                            const std::vector<ProfileQuery>& queries) {
    // Sequential reference through the one-query API.
    std::vector<AllFpResult> sequential;
    sequential.reserve(queries.size());
    for (const ProfileQuery& query : queries) {
      sequential.push_back(engine.AllFastestPaths(query));
    }

    const std::vector<AllFpResult> batch1 = engine.RunBatch(queries, 1);
    const std::vector<AllFpResult> batch4 = engine.RunBatch(queries, 4);
    ASSERT_EQ(batch1.size(), queries.size());
    ASSERT_EQ(batch4.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitIdentical(sequential[i], batch1[i], i);
      ExpectBitIdentical(sequential[i], batch4[i], i);
    }

    // A second 4-thread run against a warm (possibly full) memo must
    // still be bit-identical.
    const std::vector<AllFpResult> batch4_warm = engine.RunBatch(queries, 4);
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectBitIdentical(batch4[i], batch4_warm[i], i);
    }
  }
};

TEST_F(ParallelEngineTest, BatchMatchesSequentialInMemory) {
  const auto sn = gen::GenerateSuffolkNetwork(gen::SuffolkOptions::Small());
  const std::vector<ProfileQuery> queries =
      MakeWorkload(sn.network, kQueries);

  EngineOptions options;
  options.boundary_grid_dim = 8;
  auto engine = FastestPathEngine::Create(&sn.network, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  RunDeterminismChecks(**engine, queries);

  // The memo really was exercised.
  EXPECT_GT((*engine)->metrics()->Snapshot().counter("capefp.ttf_cache.hits"),
            0u);
}

TEST_F(ParallelEngineTest, BatchMatchesSequentialDiskBacked) {
  const auto sn = gen::GenerateSuffolkNetwork(gen::SuffolkOptions::Small());
  const std::vector<ProfileQuery> queries =
      MakeWorkload(sn.network, kQueries);

  EngineOptions options;
  options.boundary_grid_dim = 8;
  options.ccam_path = testing::UniqueTempPath("parallel_engine.ccam");
  // A pool far smaller than the file, so parallel queries contend on
  // faults and evictions, not just hits.
  options.ccam_buffer_pool_pages = 16;
  auto engine = FastestPathEngine::Create(&sn.network, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->disk_backed());
  RunDeterminismChecks(**engine, queries);

  const auto storage = (*engine)->storage_stats();
  ASSERT_TRUE(storage.has_value());
  EXPECT_GT(storage->pool.faults, 0u);
  std::remove(options.ccam_path.c_str());
}

TEST_F(ParallelEngineTest, BatchWithoutCacheMatchesSequential) {
  const auto sn = gen::GenerateSuffolkNetwork(gen::SuffolkOptions::Small());
  const std::vector<ProfileQuery> queries = MakeWorkload(sn.network, 6);

  EngineOptions options;
  options.boundary_grid_dim = 8;
  options.ttf_cache_entries = 0;  // Parallelism alone, no shared memo.
  auto engine = FastestPathEngine::Create(&sn.network, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  RunDeterminismChecks(**engine, queries);
  const obs::MetricsSnapshot snap = (*engine)->metrics()->Snapshot();
  EXPECT_EQ(snap.counters.count("capefp.ttf_cache.lookups"), 0u);
  EXPECT_EQ(snap.gauges.count("capefp.ttf_cache.entries"), 0u);
}

// A memo that fills within the first query: which 8 keys get published
// depends on thread timing, and every other edge is derived on demand —
// the answers must not depend on either.
TEST_F(ParallelEngineTest, TinyMemoFallbackKeepsDeterminism) {
  const auto sn = gen::GenerateSuffolkNetwork(gen::SuffolkOptions::Small());
  const std::vector<ProfileQuery> queries = MakeWorkload(sn.network, 6);

  EngineOptions options;
  options.boundary_grid_dim = 8;
  options.ttf_cache_entries = 8;
  auto engine = FastestPathEngine::Create(&sn.network, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  RunDeterminismChecks(**engine, queries);

  const obs::MetricsSnapshot snap = (*engine)->metrics()->Snapshot();
  EXPECT_EQ(snap.gauge("capefp.ttf_cache.entries"), 8.0);
  // Far more misses than entries: the full memo fell back to derivation.
  EXPECT_GT(snap.counter("capefp.ttf_cache.misses"), 100u);
}

TEST_F(ParallelEngineTest, PerQueryLatenciesReported) {
  const auto sn = gen::GenerateSuffolkNetwork(gen::SuffolkOptions::Small());
  const std::vector<ProfileQuery> queries = MakeWorkload(sn.network, 4);

  EngineOptions options;
  options.boundary_grid_dim = 8;
  auto engine = FastestPathEngine::Create(&sn.network, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  std::vector<double> millis;
  const auto results = (*engine)->RunBatch(queries, 2, &millis);
  ASSERT_EQ(results.size(), queries.size());
  ASSERT_EQ(millis.size(), queries.size());
  for (double ms : millis) EXPECT_GT(ms, 0.0);
}

TEST_F(ParallelEngineTest, EmptyBatch) {
  const auto sn = gen::GenerateSuffolkNetwork(gen::SuffolkOptions::Small());
  EngineOptions options;
  options.estimator = EngineOptions::EstimatorKind::kNaive;
  auto engine = FastestPathEngine::Create(&sn.network, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->RunBatch({}, 4).empty());
}

}  // namespace
}  // namespace capefp::core
