// FastestPathEngine — the batteries-included entry point.
//
// Bundles the pieces a downstream application needs for the paper's
// queries: estimator precomputation, the profile searches (forward and
// arrival-anchored), fixed-departure A*, and optionally a CCAM page file so
// queries run disk-backed with I/O accounting. Lower-level control remains
// available through the individual headers; the engine only composes them.
//
//   auto engine = core::FastestPathEngine::Create(&network, {});
//   auto all = (*engine)->AllFastestPaths({s, t, HhMm(7,0), HhMm(9,0)});
#ifndef CAPEFP_CORE_ENGINE_H_
#define CAPEFP_CORE_ENGINE_H_

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/boundary_estimator.h"
#include "src/core/hierarchical.h"
#include "src/core/profile_search.h"
#include "src/core/reverse_profile_search.h"
#include "src/core/td_astar.h"
#include "src/network/accessor.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/storage/ccam_accessor.h"
#include "src/storage/ccam_store.h"
#include "src/util/status.h"

namespace capefp::core {

struct EngineOptions {
  enum class EstimatorKind {
    kNaive,                // Euclidean / v_max (§4).
    kBoundaryDistance,     // §5, distance weights.
    kBoundaryTravelTime,   // §5, per-edge min-travel-time weights (default).
  };
  EstimatorKind estimator = EstimatorKind::kBoundaryTravelTime;
  int boundary_grid_dim = 32;

  // How interval (allFP) queries execute.
  enum class QueryMode {
    // IntAllFastestPaths over the full road graph (the paper's §4).
    kFlat,
    // Two-phase (DESIGN.md §9): a corridor phase over the hierarchical
    // index's simplified transit bounds marks the fragments that can carry
    // an optimal departure, then the flat search runs restricted to them
    // via a NodeFilter. Results are identical to kFlat; the index is built
    // (or loaded from hierarchical_index_path) eagerly in Create.
    kHierarchicalTwoPhase,
  };
  QueryMode query_mode = QueryMode::kFlat;
  // Index parameters for kHierarchicalTwoPhase (ignored otherwise).
  HierarchicalOptions hierarchical;
  // When non-empty and query_mode is kHierarchicalTwoPhase, the index is
  // loaded from this file (see HierarchicalIndex::Save) instead of built.
  std::string hierarchical_index_path;

  ProfileSearchOptions search;

  // Engine-wide bounded-error PWL compression knob, in SECONDS (the
  // user-facing unit: CLI --eps, bench --eps). 0 disables — every query
  // path is bit-identical to an engine without the knob. > 0 runs the
  // profile searches in ε-banded mode (ProfileSearchOptions::simplify_eps,
  // which this is converted into, in minutes): edge functions are served
  // ε-simplified from the edge-TTF memo under (ε, side)-tagged keys,
  // labels are re-simplified after every composition, and each path that
  // reaches the target is re-expanded exactly before it is returned — so
  // results stay value-exact while the search carries far fewer
  // breakpoints. Metrics appear under capefp.tdf.simplify.*. See DESIGN.md
  // §12. Create rejects a negative, NaN or infinite value with
  // InvalidArgument.
  double simplify_eps = 0.0;

  // When non-empty, a CCAM page file is built at this path (overwriting)
  // and forward queries run through it; page-fault statistics become
  // available via storage_stats().
  std::string ccam_path;
  uint32_t ccam_page_size = 2048;
  size_t ccam_buffer_pool_pages = 256;

  // Capacity (entries) of the shared, insert-only edge travel-time-function
  // memo that holds per-(pattern, edge length, day) derived functions for
  // the forward profile searches (network::EdgeTtfCache). Entries live as
  // long as the engine; once full, further functions are derived on
  // demand. 0 disables the memo entirely.
  size_t ttf_cache_entries = 1 << 16;

  // Always-on flight recorder + tail-latency slow-query capture
  // (DESIGN.md §10): every allFP query unconditionally journals a handful
  // of binary events into a per-worker ring, queries slower than the
  // rolling p99×factor threshold are promoted into retained
  // SlowQueryRecords, and the latency histogram carries per-bucket
  // query-id exemplars. Disable only to measure the recorder's own
  // overhead (the obs contract test does).
  bool flight_recorder = true;
  obs::FlightRecorder::Options flight;
  obs::SlowQueryTracker::Options slowlog;
};

// A RunBatchWithMetrics answer: the per-query results plus the batch's
// observability payload, ready to embed in a bench JSON or print.
struct BatchResult {
  std::vector<AllFpResult> results;
  // Wall-clock latency per query, in order.
  std::vector<double> per_query_millis;
  // Batch-local latency histogram (counts exactly this batch's queries).
  obs::HistogramSnapshot latency_ms;
  // Engine registry snapshot taken after the batch (cumulative; diff two
  // snapshots with DeltaSince for per-batch counters).
  obs::MetricsSnapshot metrics;
};

class FastestPathEngine {
 public:
  // Per-worker state for the full two-phase query path: the flat search
  // scratch plus the corridor-phase scratch. Strictly per-worker, like its
  // members.
  struct QueryScratch {
    ProfileSearch::Scratch search;
    HierarchicalIndex::CorridorScratch corridor;
    // Flight-recorder producer handle, borrowed from the engine's recorder
    // (AcquireWriter/ReleaseWriter) by the worker that owns this scratch.
    // Null when the recorder is disabled — or when the caller lets
    // RunOneAllFp acquire one per call (the one-shot path).
    obs::FlightWriter* flight = nullptr;
  };

  // `network` must outlive the engine. Builds the estimator index (and the
  // CCAM file and hierarchical index if requested) eagerly. Returns
  // InvalidArgument for a negative, NaN or infinite simplify_eps.
  static util::StatusOr<std::unique_ptr<FastestPathEngine>> Create(
      const network::RoadNetwork* network, const EngineOptions& options = {});

  // Time-interval queries (§4). Leaving times in minutes from midnight of
  // day 0 of the network calendar. `trace`, when non-null, receives the
  // query's span tree (root "query.all_fp" / "query.single_fp" with
  // "estimator" and "search" children; see DESIGN.md §7).
  AllFpResult AllFastestPaths(const ProfileQuery& query,
                              obs::Trace* trace = nullptr);
  SingleFpResult SingleFastestPath(const ProfileQuery& query,
                                   obs::Trace* trace = nullptr);

  // Answers `queries` as AllFastestPaths would, one result per query in
  // order, using up to `threads` worker threads. Workers share the network,
  // boundary index, edge-TTF memo, and (when disk-backed) the buffer pool, and
  // keep private search state, so results are bit-identical to running the
  // queries sequentially through this engine. If `per_query_millis` is
  // non-null it receives one wall-clock latency per query.
  std::vector<AllFpResult> RunBatch(
      std::span<const ProfileQuery> queries, int threads,
      std::vector<double>* per_query_millis = nullptr);

  // RunBatch plus the batch's observability payload: per-query latencies, a
  // batch-local latency histogram, and a registry snapshot taken after the
  // batch. `traces`, when non-null, is resized to queries.size() and trace
  // i records query i's spans (each query is traced by exactly one worker,
  // so the traces need no locking). Edge-TTF memo use is counted in each
  // query's own SearchStats, so per-query cache attribution (trace attrs,
  // kCacheDelta flight events) is exact inside a concurrent batch;
  // per-query storage deltas still attribute shared buffer-pool movement
  // approximately.
  BatchResult RunBatchWithMetrics(std::span<const ProfileQuery> queries,
                                  int threads,
                                  std::vector<obs::Trace>* traces = nullptr);

  // Arrival-interval variants (§2.1). Always in-memory (the CCAM store has
  // no predecessor lists).
  ReverseAllFpResult ArrivalAllFastestPaths(const ReverseProfileQuery& query);
  ReverseSingleFpResult ArrivalSingleFastestPath(
      const ReverseProfileQuery& query);

  // Fixed-departure fastest path (the degenerate single-instant case).
  TdAStarResult FastestPathAt(network::NodeId source, network::NodeId target,
                              double leave_time,
                              obs::Trace* trace = nullptr);

  // The engine's metric tree ("capefp.*"): engine counters and latency
  // histograms, the edge-TTF memo's counters, and callback metrics for
  // the CCAM storage stack. Valid for the engine's lifetime.
  obs::MetricsRegistry* metrics() { return &metrics_; }

  // The always-on flight recorder; null when the engine was created with
  // flight_recorder == false. Valid for the engine's lifetime.
  obs::FlightRecorder* flight_recorder() { return flight_recorder_.get(); }
  // The slow-query threshold tracker; null iff flight_recorder() is null.
  const obs::SlowQueryTracker* slow_query_tracker() const {
    return slow_tracker_.get();
  }

  // Storage statistics; nullopt when running purely in memory.
  std::optional<storage::CcamStats> storage_stats() const;
  void ResetStorageStats();

  bool disk_backed() const { return store_ != nullptr; }
  const network::RoadNetwork& road_network() const { return *network_; }

  // The hierarchical index; null unless query_mode is
  // kHierarchicalTwoPhase.
  const HierarchicalIndex* hierarchical_index() const {
    return hier_index_.get();
  }

 private:
  FastestPathEngine(const network::RoadNetwork* network,
                    const EngineOptions& options);

  // Registers the engine counters/histograms and the component callback
  // metrics (called once from Create, after store_/ttf_cache_ exist).
  void InitMetrics();

  // The one traced+metered allFP path, shared by AllFastestPaths and the
  // batch workers. `scratch` and `trace` may be null; `elapsed_ms`, if
  // non-null, receives the query wall-clock time.
  AllFpResult RunOneAllFp(const ProfileQuery& query, QueryScratch* scratch,
                          obs::Trace* trace, double* elapsed_ms);

  // Adds one query's search work (and its edge-TTF memo use) to the
  // engine counters.
  void FoldSearchStats(const SearchStats& stats);

  // Shared worker-pool body of RunBatch / RunBatchWithMetrics. `traces`
  // (pre-sized) and `batch_latency` may be null.
  void RunBatchImpl(std::span<const ProfileQuery> queries, int threads,
                    std::vector<AllFpResult>* results,
                    std::vector<double>* per_query_millis,
                    std::vector<obs::Trace>* traces,
                    obs::Histogram* batch_latency);

  // Builds the per-query estimator anchored at `anchor`. `scratch`, when
  // non-null, backs the estimator's per-node memo with dense epoch-stamped
  // storage reused across queries.
  std::unique_ptr<TravelTimeEstimator> MakeEstimator(
      network::NodeId anchor, BoundaryNodeEstimator::Direction direction,
      EstimatorScratch* scratch = nullptr);

  // Folds one query's arena-stat movement into the engine-wide atomics
  // published under capefp.tdf.arena.* (called on the worker thread that
  // owns `scratch`; the metric callbacks read only the atomics).
  void AccumulateArenaStats(const tdf::PwlArena::Stats& before,
                            const tdf::PwlArena::Stats& after);

  network::NetworkAccessor* accessor() {
    return store_ != nullptr
               ? static_cast<network::NetworkAccessor*>(&*disk_accessor_)
               : &*memory_accessor_;
  }

  const network::RoadNetwork* network_;
  EngineOptions options_;
  std::optional<network::InMemoryAccessor> memory_accessor_;
  std::optional<BoundaryNodeIndex> boundary_index_;
  std::unique_ptr<storage::CcamStore> store_;
  std::optional<storage::CcamAccessor> disk_accessor_;
  std::unique_ptr<network::EdgeTtfCache> ttf_cache_;
  std::unique_ptr<HierarchicalIndex> hier_index_;

  // Flight recorder + slow-query capture (see DESIGN.md §10). The query-id
  // sequence starts at 1 so id 0 can mean "no query" in events/exemplars.
  std::unique_ptr<obs::FlightRecorder> flight_recorder_;
  std::unique_ptr<obs::SlowQueryTracker> slow_tracker_;
  std::atomic<uint64_t> next_query_id_{1};

  obs::MetricsRegistry metrics_;
  // Handles cached at InitMetrics time so the per-query cost is a few
  // striped atomic adds (no registry lock on the hot path).
  obs::Counter* queries_total_ = nullptr;
  obs::Counter* batches_total_ = nullptr;
  obs::Counter* td_queries_total_ = nullptr;
  obs::Histogram* query_latency_ms_ = nullptr;
  obs::Counter* search_expansions_ = nullptr;
  obs::Counter* search_pushes_ = nullptr;
  obs::Counter* search_pruned_dominated_ = nullptr;
  obs::Counter* search_pruned_bound_ = nullptr;
  obs::Counter* search_pruned_filtered_ = nullptr;
  obs::Counter* td_expanded_nodes_ = nullptr;
  // capefp.ttf_cache.*; registered only when ttf_cache_ exists.
  obs::Counter* ttf_hits_ = nullptr;
  obs::Counter* ttf_misses_ = nullptr;
  obs::Counter* ttf_bypasses_ = nullptr;
  // Two-phase counters/histograms; registered only when hier_index_ exists.
  obs::Counter* hier_queries_ = nullptr;
  obs::Counter* hier_fallbacks_ = nullptr;
  obs::Counter* hier_corridor_expansions_ = nullptr;
  obs::Counter* hier_corridor_fragments_ = nullptr;
  obs::Counter* hier_corridor_nodes_ = nullptr;
  obs::Histogram* hier_corridor_ms_ = nullptr;
  obs::Histogram* hier_refine_ms_ = nullptr;
  // Bounded-error compression counters (capefp.tdf.simplify.*); registered
  // unconditionally, all zero unless EngineOptions::simplify_eps > 0.
  obs::Counter* simplify_breakpoints_in_ = nullptr;
  obs::Counter* simplify_breakpoints_out_ = nullptr;
  obs::Counter* simplify_refined_paths_ = nullptr;
  obs::Counter* simplify_refine_edges_ = nullptr;
  obs::Histogram* simplify_refine_ms_ = nullptr;

  // Engine-wide aggregates of the per-worker PWL arenas, maintained by
  // AccumulateArenaStats and exported as capefp.tdf.arena.* callback
  // metrics. Atomics only: the metric callbacks never touch an arena (the
  // arenas are strictly per-worker and die with their Scratch).
  std::atomic<uint64_t> arena_spills_{0};
  std::atomic<uint64_t> arena_block_reuses_{0};
  std::atomic<uint64_t> arena_bytes_{0};
  std::atomic<uint64_t> arena_high_water_bytes_{0};
};

}  // namespace capefp::core

#endif  // CAPEFP_CORE_ENGINE_H_
