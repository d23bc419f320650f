#include "src/core/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "src/storage/ccam_builder.h"
#include "src/util/check.h"

namespace capefp::core {

FastestPathEngine::FastestPathEngine(const network::RoadNetwork* network,
                                     const EngineOptions& options)
    : network_(network), options_(options) {
  memory_accessor_.emplace(network);
}

util::StatusOr<std::unique_ptr<FastestPathEngine>> FastestPathEngine::Create(
    const network::RoadNetwork* network, const EngineOptions& options) {
  CAPEFP_CHECK(network != nullptr);
  if (!std::isfinite(options.simplify_eps) || options.simplify_eps < 0.0) {
    return util::Status::InvalidArgument(
        "simplify_eps must be a finite number of seconds >= 0, got " +
        std::to_string(options.simplify_eps));
  }
  auto engine = std::unique_ptr<FastestPathEngine>(
      new FastestPathEngine(network, options));
  // The engine knob is user-facing seconds; the search layer runs on the
  // internal minute scale. Converted once here so every query path (flat,
  // two-phase refine, reverse) sees the same ε.
  engine->options_.search.simplify_eps = options.simplify_eps / 60.0;

  if (options.estimator != EngineOptions::EstimatorKind::kNaive) {
    BoundaryIndexOptions index_options;
    index_options.grid_dim = options.boundary_grid_dim;
    index_options.mode =
        options.estimator == EngineOptions::EstimatorKind::kBoundaryDistance
            ? BoundaryIndexOptions::Mode::kDistance
            : BoundaryIndexOptions::Mode::kTravelTime;
    engine->boundary_index_.emplace(*network, index_options);
  }

  if (!options.ccam_path.empty()) {
    storage::CcamBuildOptions build;
    build.page_size = options.ccam_page_size;
    auto report =
        storage::BuildCcamFile(*network, options.ccam_path, build);
    if (!report.ok()) return report.status();
    storage::CcamOpenOptions open;
    open.buffer_pool_pages = options.ccam_buffer_pool_pages;
    auto store = storage::CcamStore::Open(options.ccam_path, open);
    if (!store.ok()) return store.status();
    engine->store_ = std::move(*store);
    engine->disk_accessor_.emplace(engine->store_.get());
  }

  if (options.ttf_cache_entries > 0) {
    engine->ttf_cache_ =
        std::make_unique<network::EdgeTtfCache>(options.ttf_cache_entries);
    engine->memory_accessor_->set_ttf_cache(engine->ttf_cache_.get());
    if (engine->disk_accessor_.has_value()) {
      engine->disk_accessor_->set_ttf_cache(engine->ttf_cache_.get());
    }
  }

  if (options.query_mode == EngineOptions::QueryMode::kHierarchicalTwoPhase) {
    if (!options.hierarchical_index_path.empty()) {
      auto loaded =
          HierarchicalIndex::Load(network, options.hierarchical_index_path);
      if (!loaded.ok()) return loaded.status();
      engine->hier_index_ = std::move(*loaded);
    } else {
      engine->hier_index_ =
          std::make_unique<HierarchicalIndex>(network, options.hierarchical);
    }
  }
  if (options.flight_recorder) {
    engine->flight_recorder_ =
        std::make_unique<obs::FlightRecorder>(options.flight);
  }
  engine->InitMetrics();
  return engine;
}

void FastestPathEngine::InitMetrics() {
  queries_total_ = metrics_.GetCounter("capefp.engine.queries");
  batches_total_ = metrics_.GetCounter("capefp.engine.batches");
  td_queries_total_ = metrics_.GetCounter("capefp.engine.td_queries");
  query_latency_ms_ = metrics_.GetHistogram("capefp.engine.query_latency_ms");
  if (flight_recorder_ != nullptr) {
    // Latency buckets link to concrete query ids ("# {query_id=...}" in
    // the Prometheus text), which flightrec explain expands into span
    // trees. Enabled before any query runs (EnableExemplars is not
    // thread-safe against concurrent Record).
    query_latency_ms_->EnableExemplars();
    slow_tracker_ = std::make_unique<obs::SlowQueryTracker>(
        query_latency_ms_, options_.slowlog);
    // Slow-query capture health. The callbacks read only the recorder's
    // own mutex / the tracker's atomics (registry → component lock order,
    // same as the storage callbacks).
    metrics_.AddCallbackCounter("capefp.slowlog.captured", [this] {
      return flight_recorder_->stats().slow_captured;
    });
    metrics_.AddCallbackCounter("capefp.slowlog.dropped", [this] {
      return flight_recorder_->stats().slow_dropped;
    });
    metrics_.AddCallbackGauge("capefp.slowlog.retained", [this] {
      return static_cast<double>(flight_recorder_->stats().slow_retained);
    });
    metrics_.AddCallbackGauge("capefp.slowlog.threshold_ms", [this] {
      const double t = slow_tracker_->threshold_ms();
      return std::isfinite(t) ? t : 0.0;  // +inf = still warming up.
    });
  }
  search_expansions_ = metrics_.GetCounter("capefp.search.expansions");
  search_pushes_ = metrics_.GetCounter("capefp.search.pushes");
  search_pruned_dominated_ =
      metrics_.GetCounter("capefp.search.pruned_dominated");
  search_pruned_bound_ = metrics_.GetCounter("capefp.search.pruned_bound");
  search_pruned_filtered_ =
      metrics_.GetCounter("capefp.search.pruned_filtered");
  td_expanded_nodes_ = metrics_.GetCounter("capefp.td_astar.expanded_nodes");
  // Bounded-error compression (DESIGN.md §12). Registered unconditionally
  // so dashboards see stable zeros when the knob is off; the in/out pair
  // gives the achieved compression ratio, refined_paths/refine_edges and
  // the histogram give the exact-refinement cost.
  simplify_breakpoints_in_ =
      metrics_.GetCounter("capefp.tdf.simplify.breakpoints_in");
  simplify_breakpoints_out_ =
      metrics_.GetCounter("capefp.tdf.simplify.breakpoints_out");
  simplify_refined_paths_ =
      metrics_.GetCounter("capefp.tdf.simplify.refined_paths");
  simplify_refine_edges_ =
      metrics_.GetCounter("capefp.tdf.simplify.refine_edges");
  simplify_refine_ms_ = metrics_.GetHistogram("capefp.tdf.simplify.refine_ms");
  if (hier_index_ != nullptr) {
    hier_queries_ = metrics_.GetCounter("capefp.hier.queries");
    hier_fallbacks_ = metrics_.GetCounter("capefp.hier.fallbacks");
    hier_corridor_expansions_ =
        metrics_.GetCounter("capefp.hier.corridor_expansions");
    hier_corridor_fragments_ =
        metrics_.GetCounter("capefp.hier.corridor_fragments");
    hier_corridor_nodes_ = metrics_.GetCounter("capefp.hier.corridor_nodes");
    hier_corridor_ms_ = metrics_.GetHistogram("capefp.hier.corridor_ms");
    hier_refine_ms_ = metrics_.GetHistogram("capefp.hier.refine_ms");
  }
  // Per-worker PWL-arena aggregates (see AccumulateArenaStats). Callbacks
  // read engine atomics only — never the arenas themselves — so they are
  // safe under the registry mutex and touch no per-worker state.
  metrics_.AddCallbackCounter("capefp.tdf.arena.spills",
                              [this] { return arena_spills_.load(); });
  metrics_.AddCallbackCounter("capefp.tdf.arena.block_reuses",
                              [this] { return arena_block_reuses_.load(); });
  metrics_.AddCallbackGauge("capefp.tdf.arena.bytes", [this] {
    return static_cast<double>(arena_bytes_.load());
  });
  metrics_.AddCallbackGauge("capefp.tdf.arena.high_water_bytes", [this] {
    return static_cast<double>(arena_high_water_bytes_.load());
  });
  if (ttf_cache_ != nullptr) {
    // Folded once per query from the query's own SearchStats (no shared
    // counter on the per-edge hit path), so per-query, per-batch and
    // registry totals agree exactly even under concurrency.
    ttf_hits_ = metrics_.GetCounter("capefp.ttf_cache.hits");
    ttf_misses_ = metrics_.GetCounter("capefp.ttf_cache.misses");
    ttf_bypasses_ = metrics_.GetCounter("capefp.ttf_cache.bypasses");
    metrics_.AddCallbackCounter("capefp.ttf_cache.lookups", [this] {
      return ttf_hits_->Value() + ttf_misses_->Value();
    });
    metrics_.AddCallbackGauge("capefp.ttf_cache.hit_rate", [this] {
      const uint64_t hits = ttf_hits_->Value();
      const uint64_t lookups = hits + ttf_misses_->Value();
      return lookups == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(lookups);
    });
    metrics_.AddCallbackGauge("capefp.ttf_cache.entries", [this] {
      return static_cast<double>(ttf_cache_->size());
    });
  }
  if (store_ != nullptr) {
    store_->RegisterMetrics(&metrics_, "capefp.storage");
  }
}

std::unique_ptr<TravelTimeEstimator> FastestPathEngine::MakeEstimator(
    network::NodeId anchor, BoundaryNodeEstimator::Direction direction,
    EstimatorScratch* scratch) {
  if (boundary_index_.has_value()) {
    return std::make_unique<BoundaryNodeEstimator>(&*boundary_index_,
                                                   accessor(), anchor,
                                                   direction, scratch);
  }
  return std::make_unique<EuclideanEstimator>(accessor(), anchor, scratch);
}

void FastestPathEngine::AccumulateArenaStats(
    const tdf::PwlArena::Stats& before, const tdf::PwlArena::Stats& after) {
  arena_spills_.fetch_add(after.spills - before.spills,
                          std::memory_order_relaxed);
  arena_block_reuses_.fetch_add(after.block_reuses - before.block_reuses,
                                std::memory_order_relaxed);
  // Footprint/high-water are per-arena gauges; publish the engine-wide
  // maximum seen across workers.
  auto raise_to = [](std::atomic<uint64_t>& slot, uint64_t value) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (cur < value &&
           !slot.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
    }
  };
  raise_to(arena_bytes_, after.footprint_bytes);
  raise_to(arena_high_water_bytes_, after.high_water_bytes);
}

namespace {

// Latency stamps read FlightClock, the engine's single sanctioned time
// source (DESIGN.md §10): histogram latencies and flight-journal ticks
// stay on one clock and comparable tick-for-tick.
double MillisSince(uint64_t start_nanos) {
  return static_cast<double>(obs::FlightClock::NowNanos() - start_nanos) *
         1e-6;
}

uint64_t AsU64(int64_t v) { return v < 0 ? 0 : static_cast<uint64_t>(v); }

}  // namespace

void FastestPathEngine::FoldSearchStats(const SearchStats& stats) {
  search_expansions_->Add(AsU64(stats.expansions));
  search_pushes_->Add(AsU64(stats.pushes));
  search_pruned_dominated_->Add(AsU64(stats.pruned_dominated));
  search_pruned_bound_->Add(AsU64(stats.pruned_bound));
  search_pruned_filtered_->Add(AsU64(stats.pruned_filtered));
  if (ttf_cache_ != nullptr) {
    ttf_hits_->Add(AsU64(stats.ttf_hits));
    ttf_misses_->Add(AsU64(stats.ttf_misses));
    ttf_bypasses_->Add(AsU64(stats.ttf_bypasses));
  }
  if (options_.search.simplify_eps > 0.0) {
    simplify_breakpoints_in_->Add(AsU64(stats.simplify_breakpoints_in));
    simplify_breakpoints_out_->Add(AsU64(stats.simplify_breakpoints_out));
    simplify_refined_paths_->Add(AsU64(stats.refined_paths));
    simplify_refine_edges_->Add(AsU64(stats.refine_edges));
    simplify_refine_ms_->Record(
        obs::FlightClock::NanosToMs(stats.refine_nanos));
  }
}

AllFpResult FastestPathEngine::RunOneAllFp(const ProfileQuery& query,
                                           QueryScratch* scratch,
                                           obs::Trace* trace,
                                           double* elapsed_ms) {
  const uint64_t start = obs::FlightClock::NowNanos();
  const bool tracing = trace != nullptr;
  // One-shot callers get a local scratch so the estimator memo and arena
  // metrics behave identically to the batch path (cold arena, so the first
  // allocations count as spills — warm reuse is what RunBatch measures).
  QueryScratch local_scratch;
  QueryScratch* q = scratch != nullptr ? scratch : &local_scratch;
  ProfileSearch::Scratch* s = &q->search;
  const tdf::PwlArena::Stats arena_before = s->arena.stats();

  // Flight recorder (always on unless the engine disabled it): batch
  // workers carry a writer in their scratch; one-shot callers borrow one
  // for the duration of this call.
  obs::FlightWriter* flight = q->flight;
  const bool own_writer = flight == nullptr && flight_recorder_ != nullptr;
  if (own_writer) flight = flight_recorder_->AcquireWriter();
  const uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  if (flight != nullptr) {
    // One stamp for the whole begin burst (and the estimator span start
    // below): adjacent events carrying identity, not durations. Each
    // saved NowNanos() matters for the <=2% always-on contract.
    const uint64_t begin_ticks = obs::FlightClock::NowNanos();
    flight->set_query_id(query_id);
    flight->EmitAt(begin_ticks, obs::FlightEventType::kQueryBegin, 0,
                   static_cast<uint32_t>(query.source),
                   static_cast<uint64_t>(query.target));
    flight->EmitAt(begin_ticks, obs::FlightEventType::kSpanBegin,
                   static_cast<uint16_t>(obs::FlightSpan::kQueryAllFp));
  }

  // Storage movement is attributed by before/after deltas of the store's
  // own counters (exact when queries run sequentially; see the
  // RunBatchWithMetrics comment for the concurrent caveat). The flight
  // recorder needs the deltas unconditionally — two stats snapshots per
  // query against multi-millisecond searches. Edge-TTF memo use comes
  // exactly from the query's own SearchStats instead.
  const bool attributing = tracing || flight != nullptr;
  std::optional<storage::CcamStats> storage_before;
  obs::Trace::Span root;
  if (attributing) storage_before = storage_stats();
  if (tracing) {
    root = trace->StartSpan("query.all_fp");
    root.AddAttr("source", static_cast<double>(query.source));
    root.AddAttr("target", static_cast<double>(query.target));
  }

  std::unique_ptr<TravelTimeEstimator> estimator;
  {
    obs::Trace::Span est_span =
        tracing ? trace->StartSpan("estimator") : obs::Trace::Span();
    if (flight != nullptr) flight->EmitSpanBegin(obs::FlightSpan::kEstimator);
    estimator = MakeEstimator(query.target,
                              BoundaryNodeEstimator::Direction::kToAnchor,
                              &s->estimator);
    if (flight != nullptr) flight->EmitSpanEnd(obs::FlightSpan::kEstimator);
  }

  // Corridor phase (two-phase mode): restrict the exact search below to the
  // fragments the approximate overlay search proves can carry an optimal
  // departure. Identical answers either way — on any corridor failure the
  // filter stays inactive and the query runs flat.
  s->filter.Reset();
  double corridor_upper_bound = std::numeric_limits<double>::infinity();
  if (hier_index_ != nullptr) {
    const uint64_t corridor_start = obs::FlightClock::NowNanos();
    obs::Trace::Span corridor_span =
        tracing ? trace->StartSpan("hier.corridor") : obs::Trace::Span();
    if (flight != nullptr) flight->EmitSpanBegin(obs::FlightSpan::kCorridor);
    auto corridor = hier_index_->ExtractCorridor(query, estimator.get(),
                                                 q->corridor, &s->filter,
                                                 flight);
    hier_queries_->Add(1);
    if (corridor.ok()) {
      corridor_upper_bound = corridor->upper_bound_max;
      if (flight != nullptr) {
        flight->EmitSpanEnd(
            obs::FlightSpan::kCorridor,
            static_cast<uint32_t>(corridor->fragments_marked),
            static_cast<uint64_t>(corridor->corridor_nodes));
      }
      hier_corridor_expansions_->Add(AsU64(corridor->stats.expansions));
      hier_corridor_fragments_->Add(
          AsU64(static_cast<int64_t>(corridor->fragments_marked)));
      hier_corridor_nodes_->Add(corridor->corridor_nodes);
      if (corridor_span.active()) {
        corridor_span.AddAttr(
            "fragments", static_cast<double>(corridor->fragments_marked));
        corridor_span.AddAttr(
            "corridor_nodes",
            static_cast<double>(corridor->corridor_nodes));
        corridor_span.AddAttr(
            "expansions", static_cast<double>(corridor->stats.expansions));
      }
    } else {
      // E.g. the query interval or an approximate arrival left the build
      // window: fall back to the flat search for this query.
      s->filter.Reset();
      hier_fallbacks_->Add(1);
      if (flight != nullptr) {
        flight->EmitSpanEnd(obs::FlightSpan::kCorridor, 0, 0);
      }
      if (corridor_span.active()) corridor_span.AddAttr("fallback", 1.0);
    }
    hier_corridor_ms_->Record(MillisSince(corridor_start));
  }

  AllFpResult result;
  const uint64_t refine_start = obs::FlightClock::NowNanos();
  {
    obs::Trace::Span search_span =
        tracing ? trace->StartSpan("search") : obs::Trace::Span();
    if (flight != nullptr) flight->EmitSpanBegin(obs::FlightSpan::kSearch);
    // The corridor's upper-bound border max is achievable over the whole
    // leave interval; seeding it activates the refine search's bound
    // pruning before the first target pop (no-op in flat mode: +inf).
    ProfileSearchOptions search_options = options_.search;
    search_options.initial_upper_bound = corridor_upper_bound;
    ProfileSearch search(accessor(), estimator.get(), search_options, s,
                         trace, flight);
    result = search.RunAllFp(query);
    // The search-end stamp is shared with the cache/page delta events
    // below — they describe the search that just ended.
    const uint64_t search_end_ticks =
        flight != nullptr ? obs::FlightClock::NowNanos() : 0;
    if (flight != nullptr) {
      flight->EmitAt(search_end_ticks, obs::FlightEventType::kSpanEnd,
                     static_cast<uint16_t>(obs::FlightSpan::kSearch),
                     static_cast<uint32_t>(result.stats.expansions),
                     AsU64(result.stats.pushes));
    }
    if (ttf_cache_ != nullptr) {
      const int64_t hits = result.stats.ttf_hits;
      const int64_t misses = result.stats.ttf_misses;
      if (tracing) {
        search_span.AddAttr("ttf_cache_hits", static_cast<double>(hits));
        search_span.AddAttr("ttf_cache_misses", static_cast<double>(misses));
      }
      if (flight != nullptr) {
        flight->EmitAt(search_end_ticks, obs::FlightEventType::kCacheDelta,
                       0, static_cast<uint32_t>(AsU64(hits)), AsU64(misses));
      }
    }
    if (attributing && storage_before.has_value()) {
      const storage::CcamStats after = *storage_stats();
      const storage::BufferPoolStats pool_delta =
          after.pool.DeltaSince(storage_before->pool);
      if (tracing) {
        const uint64_t reads =
            after.pager.page_reads - storage_before->pager.page_reads;
        const uint64_t writes =
            after.pager.page_writes - storage_before->pager.page_writes;
        const double io_ms =
            after.pager.io_millis() - storage_before->pager.io_millis();
        if (reads + writes > 0) {
          trace->AddLeaf("storage_io", io_ms, reads + writes);
        }
        search_span.AddAttr("pages_hit",
                            static_cast<double>(pool_delta.hits));
        search_span.AddAttr("pages_faulted",
                            static_cast<double>(pool_delta.faults));
      }
      if (flight != nullptr) {
        flight->EmitAt(search_end_ticks, obs::FlightEventType::kPageDelta,
                       0, static_cast<uint32_t>(pool_delta.hits),
                       pool_delta.faults);
      }
    }
  }

  if (hier_index_ != nullptr) {
    hier_refine_ms_->Record(MillisSince(refine_start));
    // The filter is per-query state; never leak it into a later query that
    // might run without a corridor.
    s->filter.Reset();
  }
  AccumulateArenaStats(arena_before, s->arena.stats());
  const double ms = MillisSince(start);
  if (elapsed_ms != nullptr) *elapsed_ms = ms;
  queries_total_->Add(1);
  query_latency_ms_->RecordWithExemplar(ms, query_id);
  FoldSearchStats(result.stats);
  if (flight != nullptr) {
    // The trailing burst shares one clock read: these four events carry
    // counters, not durations, so a common stamp loses nothing and saves
    // three NowNanos() calls inside the always-on overhead budget.
    const uint64_t end_ticks = obs::FlightClock::NowNanos();
    const tdf::PwlArena::Stats arena_after = s->arena.stats();
    flight->EmitAt(end_ticks, obs::FlightEventType::kArenaDelta, 0,
                   static_cast<uint32_t>(
                       arena_after.spills >= arena_before.spills
                           ? arena_after.spills - arena_before.spills
                           : 0),
                   static_cast<uint64_t>(arena_after.high_water_bytes));
    flight->EmitAt(end_ticks, obs::FlightEventType::kSearchCounts, 0,
                   static_cast<uint32_t>(AsU64(result.stats.pushes)),
                   AsU64(result.stats.expansions));
    const double us = ms * 1000.0;
    const uint32_t latency_us =
        us >= 4294967295.0 ? 4294967295u
                           : static_cast<uint32_t>(us < 0.0 ? 0.0 : us);
    flight->EmitAt(end_ticks, obs::FlightEventType::kSpanEnd,
                   static_cast<uint16_t>(obs::FlightSpan::kQueryAllFp));
    flight->EmitAt(end_ticks, obs::FlightEventType::kQueryEnd, 0, latency_us,
                   AsU64(result.stats.expansions));
    if (slow_tracker_ != nullptr && slow_tracker_->ShouldCapture(ms)) {
      obs::SlowQueryRecord record;
      record.query_id = query_id;
      record.source = static_cast<int32_t>(query.source);
      record.target = static_cast<int32_t>(query.target);
      record.leave_lo = query.leave_lo;
      record.leave_hi = query.leave_hi;
      record.latency_ms = ms;
      record.threshold_ms = slow_tracker_->threshold_ms();
      record.events = flight->ExtractQuery(query_id, &record.truncated);
      flight_recorder_->RetainSlowQuery(std::move(record));
    }
    if (own_writer) flight_recorder_->ReleaseWriter(flight);
  }
  return result;
}

AllFpResult FastestPathEngine::AllFastestPaths(const ProfileQuery& query,
                                               obs::Trace* trace) {
  return RunOneAllFp(query, /*scratch=*/nullptr, trace,
                     /*elapsed_ms=*/nullptr);
}

SingleFpResult FastestPathEngine::SingleFastestPath(const ProfileQuery& query,
                                                    obs::Trace* trace) {
  const uint64_t start = obs::FlightClock::NowNanos();
  const bool tracing = trace != nullptr;
  obs::Trace::Span root =
      tracing ? trace->StartSpan("query.single_fp") : obs::Trace::Span();
  std::unique_ptr<TravelTimeEstimator> estimator;
  {
    obs::Trace::Span est_span =
        tracing ? trace->StartSpan("estimator") : obs::Trace::Span();
    estimator = MakeEstimator(query.target,
                              BoundaryNodeEstimator::Direction::kToAnchor);
  }
  SingleFpResult result;
  {
    obs::Trace::Span search_span =
        tracing ? trace->StartSpan("search") : obs::Trace::Span();
    ProfileSearch search(accessor(), estimator.get(), options_.search,
                         /*scratch=*/nullptr, trace);
    result = search.RunSingleFp(query);
  }
  queries_total_->Add(1);
  query_latency_ms_->Record(MillisSince(start));
  FoldSearchStats(result.stats);
  return result;
}

void FastestPathEngine::RunBatchImpl(std::span<const ProfileQuery> queries,
                                     int threads,
                                     std::vector<AllFpResult>* results,
                                     std::vector<double>* per_query_millis,
                                     std::vector<obs::Trace>* traces,
                                     obs::Histogram* batch_latency) {
  std::atomic<size_t> next{0};
  // Queries are handed out one at a time, so stragglers cannot leave a
  // whole stripe on one worker. Each worker reuses one Scratch across its
  // queries; everything shared (network, boundary index, TTF cache, buffer
  // pool) is immutable or internally synchronized, and a query's trace is
  // touched only by the worker that claimed it.
  auto worker = [&]() {
    QueryScratch scratch;
    // One flight-recorder ring per worker for the whole batch: each query's
    // events land in its claimer's ring, and the writer handoff is the only
    // per-batch (not per-query) recorder interaction.
    scratch.flight = flight_recorder_ != nullptr
                         ? flight_recorder_->AcquireWriter()
                         : nullptr;
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed);
         i < queries.size();
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      double ms = 0.0;
      obs::Trace* trace = traces != nullptr ? &(*traces)[i] : nullptr;
      (*results)[i] = RunOneAllFp(queries[i], &scratch, trace, &ms);
      if (per_query_millis != nullptr) (*per_query_millis)[i] = ms;
      if (batch_latency != nullptr) batch_latency->Record(ms);
    }
    if (scratch.flight != nullptr) {
      flight_recorder_->ReleaseWriter(scratch.flight);
    }
  };

  const int num_workers = std::max(
      1, std::min(threads, static_cast<int>(queries.size())));
  if (num_workers == 1) {
    worker();
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(num_workers));
  for (int t = 0; t < num_workers; ++t) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
}

std::vector<AllFpResult> FastestPathEngine::RunBatch(
    std::span<const ProfileQuery> queries, int threads,
    std::vector<double>* per_query_millis) {
  std::vector<AllFpResult> results(queries.size());
  if (per_query_millis != nullptr) {
    per_query_millis->assign(queries.size(), 0.0);
  }
  if (queries.empty()) return results;
  batches_total_->Add(1);
  RunBatchImpl(queries, threads, &results, per_query_millis,
               /*traces=*/nullptr, /*batch_latency=*/nullptr);
  return results;
}

BatchResult FastestPathEngine::RunBatchWithMetrics(
    std::span<const ProfileQuery> queries, int threads,
    std::vector<obs::Trace>* traces) {
  BatchResult batch;
  batch.results.resize(queries.size());
  batch.per_query_millis.assign(queries.size(), 0.0);
  if (traces != nullptr) {
    traces->clear();
    traces->resize(queries.size());
  }
  obs::Histogram latency;
  if (!queries.empty()) {
    batches_total_->Add(1);
    RunBatchImpl(queries, threads, &batch.results, &batch.per_query_millis,
                 traces, &latency);
  }
  batch.latency_ms = latency.Snapshot();
  batch.metrics = metrics_.Snapshot();
  return batch;
}

ReverseAllFpResult FastestPathEngine::ArrivalAllFastestPaths(
    const ReverseProfileQuery& query) {
  ReverseProfileSearch::Scratch scratch;
  auto estimator =
      MakeEstimator(query.source,
                    BoundaryNodeEstimator::Direction::kFromAnchor,
                    &scratch.estimator);
  ReverseProfileSearch search(network_, estimator.get(), options_.search,
                              &scratch);
  const tdf::PwlArena::Stats before = scratch.arena.stats();
  ReverseAllFpResult result = search.RunAllFp(query);
  AccumulateArenaStats(before, scratch.arena.stats());
  return result;
}

ReverseSingleFpResult FastestPathEngine::ArrivalSingleFastestPath(
    const ReverseProfileQuery& query) {
  ReverseProfileSearch::Scratch scratch;
  auto estimator =
      MakeEstimator(query.source,
                    BoundaryNodeEstimator::Direction::kFromAnchor,
                    &scratch.estimator);
  ReverseProfileSearch search(network_, estimator.get(), options_.search,
                              &scratch);
  const tdf::PwlArena::Stats before = scratch.arena.stats();
  ReverseSingleFpResult result = search.RunSingleFp(query);
  AccumulateArenaStats(before, scratch.arena.stats());
  return result;
}

TdAStarResult FastestPathEngine::FastestPathAt(network::NodeId source,
                                               network::NodeId target,
                                               double leave_time,
                                               obs::Trace* trace) {
  const bool tracing = trace != nullptr;
  obs::Trace::Span root =
      tracing ? trace->StartSpan("query.fixed_departure") : obs::Trace::Span();
  std::unique_ptr<TravelTimeEstimator> estimator;
  {
    obs::Trace::Span est_span =
        tracing ? trace->StartSpan("estimator") : obs::Trace::Span();
    estimator = MakeEstimator(target,
                              BoundaryNodeEstimator::Direction::kToAnchor);
  }
  obs::FlightWriter* flight = flight_recorder_ != nullptr
                                  ? flight_recorder_->AcquireWriter()
                                  : nullptr;
  if (flight != nullptr) {
    flight->set_query_id(next_query_id_.fetch_add(1,
                                                  std::memory_order_relaxed));
    flight->Emit(obs::FlightEventType::kQueryBegin, 0,
                 static_cast<uint32_t>(source),
                 static_cast<uint64_t>(target));
  }
  TdAStarResult result = TdAStar(accessor(), source, target, leave_time,
                                 estimator.get(), trace, /*scratch=*/nullptr,
                                 flight);
  if (flight != nullptr) {
    flight->Emit(obs::FlightEventType::kQueryEnd, 0, 0,
                 AsU64(result.expanded_nodes));
    flight_recorder_->ReleaseWriter(flight);
  }
  td_queries_total_->Add(1);
  td_expanded_nodes_->Add(AsU64(result.expanded_nodes));
  return result;
}

std::optional<storage::CcamStats> FastestPathEngine::storage_stats() const {
  if (store_ == nullptr) return std::nullopt;
  return store_->stats();
}

void FastestPathEngine::ResetStorageStats() {
  if (store_ != nullptr) store_->ResetStats();
}

}  // namespace capefp::core
