// End-to-end observability: a disk-backed FastestPathEngine answering
// traced queries must produce (a) a span tree with the documented shape and
// (b) trace attributes that reconcile exactly with the metric-registry
// deltas — the edge_ttf leaf count equals the TTF-cache lookups the query
// caused, hits + misses equals lookups, and engine counters advance by the
// work actually done.
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/engine.h"
#include "src/gen/suffolk_generator.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/tdf/speed_pattern.h"
#include "tests/testing/temp_path.h"

namespace capefp::core {
namespace {

using network::NodeId;
using tdf::HhMm;

// The unique span with this name, or nullptr.
const obs::Trace::SpanData* FindSpan(const obs::Trace& trace,
                                     const std::string& name) {
  const obs::Trace::SpanData* found = nullptr;
  for (const obs::Trace::SpanData& span : trace.spans()) {
    if (span.name == name) {
      EXPECT_EQ(found, nullptr) << "duplicate span " << name;
      found = &span;
    }
  }
  return found;
}

double Attr(const obs::Trace::SpanData& span, const std::string& key) {
  for (const auto& [k, v] : span.attrs) {
    if (k == key) return v;
  }
  ADD_FAILURE() << "missing attr " << key << " on span " << span.name;
  return -1.0;
}

class ObservabilityIntegrationTest : public ::testing::Test {
 protected:
  ObservabilityIntegrationTest()
      : sn_(gen::GenerateSuffolkNetwork(gen::SuffolkOptions::Small())),
        path_(capefp::testing::UniqueTempPath("obs_integration.ccam")) {
    EngineOptions options;
    options.ccam_path = path_;
    options.ccam_buffer_pool_pages = 8;  // Small pool: queries must fault.
    auto engine = FastestPathEngine::Create(&sn_.network, options);
    CAPEFP_CHECK(engine.ok()) << engine.status().ToString();
    engine_ = std::move(*engine);
  }
  ~ObservabilityIntegrationTest() override { std::remove(path_.c_str()); }

  ProfileQuery FarQuery() const {
    const auto t = static_cast<NodeId>(sn_.network.num_nodes() - 1);
    return {0, t, HhMm(7, 0), HhMm(9, 0)};
  }

  gen::SuffolkNetwork sn_;
  std::string path_;
  std::unique_ptr<FastestPathEngine> engine_;
};

TEST_F(ObservabilityIntegrationTest, TracedAllFpReconcilesWithRegistry) {
  const obs::MetricsSnapshot before = engine_->metrics()->Snapshot();
  obs::Trace trace;
  const AllFpResult result = engine_->AllFastestPaths(FarQuery(), &trace);
  ASSERT_TRUE(result.found);
  const obs::MetricsSnapshot delta =
      engine_->metrics()->Snapshot().DeltaSince(before);

  // Span tree shape: query.all_fp -> {estimator, search -> edge_ttf}.
  const obs::Trace::SpanData* root = FindSpan(trace, "query.all_fp");
  const obs::Trace::SpanData* estimator = FindSpan(trace, "estimator");
  const obs::Trace::SpanData* search = FindSpan(trace, "search");
  const obs::Trace::SpanData* edge_ttf = FindSpan(trace, "edge_ttf");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(estimator, nullptr);
  ASSERT_NE(search, nullptr);
  ASSERT_NE(edge_ttf, nullptr);
  EXPECT_EQ(root->parent, -1);
  EXPECT_EQ(Attr(*root, "source"), 0.0);
  EXPECT_FALSE(root->open);
  EXPECT_GE(root->duration_ms,
            estimator->duration_ms + search->duration_ms - 1e-6);

  // The aggregated edge_ttf leaf counts one invocation per EdgeTtf call,
  // i.e. per memo lookup; the search span's hit/miss attrs, the query's
  // own SearchStats and the registry's memo counters must all tell the
  // same story.
  const double hits = Attr(*search, "ttf_cache_hits");
  const double misses = Attr(*search, "ttf_cache_misses");
  EXPECT_EQ(static_cast<double>(edge_ttf->count), hits + misses);
  EXPECT_EQ(delta.counter("capefp.ttf_cache.hits"),
            static_cast<uint64_t>(hits));
  EXPECT_EQ(delta.counter("capefp.ttf_cache.misses"),
            static_cast<uint64_t>(misses));
  EXPECT_EQ(hits, static_cast<double>(result.stats.ttf_hits));
  EXPECT_EQ(misses, static_cast<double>(result.stats.ttf_misses));

  // Buffer-pool attribution: a fresh 8-page pool cannot serve the far
  // query without faulting, and every fault is a pager read recorded by
  // the storage_io leaf.
  const double faults = Attr(*search, "pages_faulted");
  EXPECT_GT(faults, 0.0);
  const obs::Trace::SpanData* storage_io = FindSpan(trace, "storage_io");
  ASSERT_NE(storage_io, nullptr);
  EXPECT_EQ(static_cast<double>(storage_io->count), faults);
  EXPECT_EQ(delta.counter("capefp.storage.pager.page_reads"),
            static_cast<uint64_t>(faults));

  // Engine counters advanced by exactly this query's work.
  EXPECT_EQ(delta.counter("capefp.engine.queries"), 1u);
  EXPECT_EQ(delta.counter("capefp.search.expansions"),
            static_cast<uint64_t>(result.stats.expansions));
  EXPECT_EQ(
      delta.histograms.at("capefp.engine.query_latency_ms").count, 1u);
  EXPECT_EQ(Attr(*search, "expansions"),
            static_cast<double>(result.stats.expansions));

  // The rendered tree mentions every span (smoke for ToText/ToJson).
  const std::string text = trace.ToText();
  for (const char* name :
       {"query.all_fp", "estimator", "search", "edge_ttf", "storage_io"}) {
    EXPECT_NE(text.find(name), std::string::npos) << name;
    EXPECT_NE(trace.ToJson().find(name), std::string::npos) << name;
  }
}

TEST_F(ObservabilityIntegrationTest, RegistryCacheCountersReconcile) {
  for (int i = 0; i < 3; ++i) {
    engine_->AllFastestPaths(FarQuery());
  }
  const obs::MetricsSnapshot snap = engine_->metrics()->Snapshot();
  const uint64_t hits = snap.counter("capefp.ttf_cache.hits");
  const uint64_t misses = snap.counter("capefp.ttf_cache.misses");
  const uint64_t lookups = snap.counter("capefp.ttf_cache.lookups");
  EXPECT_GT(lookups, 0u);
  EXPECT_EQ(hits + misses, lookups);
  EXPECT_NEAR(snap.gauge("capefp.ttf_cache.hit_rate"),
              static_cast<double>(hits) / static_cast<double>(lookups),
              1e-12);

  const uint64_t pool_hits = snap.counter("capefp.storage.pool.hits");
  const uint64_t pool_faults = snap.counter("capefp.storage.pool.faults");
  ASSERT_GT(pool_hits + pool_faults, 0u);
  EXPECT_NEAR(snap.gauge("capefp.storage.pool.hit_rate"),
              static_cast<double>(pool_hits) /
                  static_cast<double>(pool_hits + pool_faults),
              1e-12);
}

TEST_F(ObservabilityIntegrationTest, SingleFpAndFixedDepartureAreTraced) {
  obs::Trace single_trace;
  const SingleFpResult single =
      engine_->SingleFastestPath(FarQuery(), &single_trace);
  ASSERT_TRUE(single.found);
  EXPECT_NE(FindSpan(single_trace, "query.single_fp"), nullptr);
  EXPECT_NE(FindSpan(single_trace, "search"), nullptr);

  const obs::MetricsSnapshot before = engine_->metrics()->Snapshot();
  obs::Trace td_trace;
  const TdAStarResult at = engine_->FastestPathAt(
      FarQuery().source, FarQuery().target, HhMm(7, 30), &td_trace);
  ASSERT_TRUE(at.found);
  const obs::Trace::SpanData* td = FindSpan(td_trace, "td_astar");
  ASSERT_NE(td, nullptr);
  EXPECT_EQ(Attr(*td, "expanded_nodes"),
            static_cast<double>(at.expanded_nodes));
  const obs::MetricsSnapshot delta =
      engine_->metrics()->Snapshot().DeltaSince(before);
  EXPECT_EQ(delta.counter("capefp.engine.td_queries"), 1u);
  EXPECT_EQ(delta.counter("capefp.td_astar.expanded_nodes"),
            static_cast<uint64_t>(at.expanded_nodes));
}

TEST_F(ObservabilityIntegrationTest, RunBatchWithMetricsPayload) {
  std::vector<ProfileQuery> queries;
  const size_t n = sn_.network.num_nodes();
  for (size_t i = 0; i < 6; ++i) {
    queries.push_back({static_cast<NodeId>(i),
                       static_cast<NodeId>(n - 1 - i), HhMm(7, 0),
                       HhMm(8, 0)});
  }
  const obs::MetricsSnapshot before = engine_->metrics()->Snapshot();
  std::vector<obs::Trace> traces;
  const BatchResult batch =
      engine_->RunBatchWithMetrics(queries, /*threads=*/2, &traces);

  ASSERT_EQ(batch.results.size(), queries.size());
  ASSERT_EQ(batch.per_query_millis.size(), queries.size());
  EXPECT_EQ(batch.latency_ms.count, queries.size());
  ASSERT_EQ(traces.size(), queries.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    const obs::Trace::SpanData* root = FindSpan(traces[i], "query.all_fp");
    ASSERT_NE(root, nullptr) << "query " << i;
    EXPECT_EQ(Attr(*root, "source"),
              static_cast<double>(queries[i].source));
  }
  const obs::MetricsSnapshot delta = batch.metrics.DeltaSince(before);
  EXPECT_EQ(delta.counter("capefp.engine.queries"), queries.size());
  EXPECT_EQ(delta.counter("capefp.engine.batches"), 1u);
  EXPECT_EQ(delta.histograms.at("capefp.engine.query_latency_ms").count,
            queries.size());

  // The batch answers must match untraced sequential answers bit-for-bit
  // (tracing must not perturb results).
  const std::vector<AllFpResult> reference = engine_->RunBatch(queries, 1);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(batch.results[i].found, reference[i].found);
    if (!reference[i].found) continue;
    EXPECT_TRUE(tdf::PwlFunction::ApproxEqual(*batch.results[i].border,
                                              *reference[i].border, 1e-12));
  }
}

// Memo accounting is exact inside a concurrent batch: every query counts
// its own lookups, so the per-query counts, the traces' edge_ttf leaves
// and the registry's movement agree to the unit at 4 threads.
TEST_F(ObservabilityIntegrationTest, ConcurrentBatchMemoAccountingIsExact) {
  std::vector<ProfileQuery> queries;
  const size_t n = sn_.network.num_nodes();
  for (size_t i = 0; i < 12; ++i) {
    queries.push_back({static_cast<NodeId>(3 * i),
                       static_cast<NodeId>(n - 1 - 5 * i), HhMm(7, 0),
                       HhMm(9, 0)});
  }
  const obs::MetricsSnapshot before = engine_->metrics()->Snapshot();
  std::vector<obs::Trace> traces;
  const BatchResult batch =
      engine_->RunBatchWithMetrics(queries, /*threads=*/4, &traces);
  const obs::MetricsSnapshot delta = batch.metrics.DeltaSince(before);

  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bypasses = 0;
  uint64_t leaf_calls = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const SearchStats& stats = batch.results[i].stats;
    hits += static_cast<uint64_t>(stats.ttf_hits);
    misses += static_cast<uint64_t>(stats.ttf_misses);
    bypasses += static_cast<uint64_t>(stats.ttf_bypasses);
    const obs::Trace::SpanData* leaf = FindSpan(traces[i], "edge_ttf");
    ASSERT_NE(leaf, nullptr) << "query " << i;
    // ε = 0: no refinement reads, so the leaf sees every memo read.
    EXPECT_EQ(leaf->count, static_cast<uint64_t>(stats.ttf_hits +
                                                 stats.ttf_misses))
        << "query " << i;
    const obs::Trace::SpanData* search = FindSpan(traces[i], "search");
    ASSERT_NE(search, nullptr);
    EXPECT_EQ(Attr(*search, "ttf_cache_hits"),
              static_cast<double>(stats.ttf_hits));
    leaf_calls += leaf->count;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(bypasses, 0u);  // 07:00-09:00 never reaches midnight.
  EXPECT_EQ(hits + misses, leaf_calls);
  EXPECT_EQ(delta.counter("capefp.ttf_cache.lookups"), hits + misses);
  EXPECT_EQ(delta.counter("capefp.ttf_cache.hits"), hits);
  EXPECT_EQ(delta.counter("capefp.ttf_cache.misses"), misses);
  EXPECT_EQ(delta.counter("capefp.ttf_cache.bypasses"), 0u);

  // The flight recorder's kCacheDelta events carry the same per-query
  // counts (the rings are far from wrapping at 12 queries).
  uint64_t event_hits = 0;
  uint64_t event_misses = 0;
  size_t cache_events = 0;
  for (const obs::FlightEvent& event :
       engine_->flight_recorder()->Snapshot().events) {
    if (event.type != obs::FlightEventType::kCacheDelta) continue;
    event_hits += event.a;
    event_misses += event.b;
    ++cache_events;
  }
  EXPECT_EQ(cache_events, queries.size());
  EXPECT_EQ(event_hits, hits);
  EXPECT_EQ(event_misses, misses);
}

TEST_F(ObservabilityIntegrationTest, PrometheusExportListsTheMetricTree) {
  engine_->AllFastestPaths(FarQuery());
  const std::string text =
      engine_->metrics()->Snapshot().ToPrometheusText();
  for (const char* family :
       {"capefp_engine_queries", "capefp_engine_query_latency_ms_bucket",
        "capefp_search_expansions", "capefp_ttf_cache_hits",
        "capefp_storage_pool_hit_rate", "capefp_storage_pager_page_reads"}) {
    EXPECT_NE(text.find(family), std::string::npos) << family;
  }
}

}  // namespace
}  // namespace capefp::core
