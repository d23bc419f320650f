#include "src/core/profile_search.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/obs/flight_recorder.h"
#include "src/obs/trace.h"
#include "src/tdf/pwl_simplify.h"
#include "src/tdf/travel_time.h"
#include "src/util/check.h"

namespace capefp::core {

namespace {

using network::NeighborEdge;
using network::NodeId;
using tdf::PwlFunction;

// First-query capacity for the scratch heap/label vectors; past queries
// leave larger capacities in place, so this only shapes the cold start.
constexpr size_t kSearchReserve = 256;

// All in-search timing goes through the recorder's clock shim (the lint
// rule `clock` bans direct steady_clock reads in hot-loop files).
double MillisSinceNanos(uint64_t start_nanos) {
  return obs::FlightClock::NanosToMs(obs::FlightClock::NowNanos() -
                                     start_nanos);
}

// Compositions at most this many breakpoints skip the in-search
// re-simplification: there is nothing worth compressing, and the debt
// budget is better saved for the fat compositions deeper in the path.
constexpr size_t kMinSimplifyPoints = 8;

// Fraction of ε charged for the cached ε-lower edge read on source hops,
// and the smallest remaining-room fraction still worth spending (below it
// the allowed δ compresses too little to pay for the simplification pass).
constexpr double kSourceHopEpsFraction = 0.25;
constexpr double kMinRoomFraction = 0.125;

// Per-query edge-TTF accounting: plain increments on the worker's own
// stats, so the memo's hit path never writes a shared cache line.
void CountTtf(network::TtfSource source, SearchStats* stats) {
  switch (source) {
    case network::TtfSource::kHit:
      ++stats->ttf_hits;
      break;
    case network::TtfSource::kMiss:
      ++stats->ttf_misses;
      break;
    case network::TtfSource::kBypass:
      ++stats->ttf_bypasses;
      break;
    case network::TtfSource::kUncached:
      break;
  }
}

}  // namespace

ProfileSearch::ProfileSearch(network::NetworkAccessor* accessor,
                             TravelTimeEstimator* estimator,
                             const ProfileSearchOptions& options,
                             Scratch* scratch, obs::Trace* trace,
                             obs::FlightWriter* flight)
    : accessor_(accessor),
      estimator_(estimator),
      options_(options),
      scratch_(scratch),
      trace_(trace),
      flight_(flight) {
  CAPEFP_CHECK(accessor != nullptr);
  CAPEFP_CHECK(estimator != nullptr);
}

std::vector<NodeId> ProfileSearch::ReconstructPath(
    const std::vector<Label>& labels, int64_t label_index) const {
  std::vector<NodeId> path;
  size_t depth = 0;
  for (int64_t at = label_index; at >= 0;
       at = labels[static_cast<size_t>(at)].parent) {
    ++depth;
  }
  path.reserve(depth);
  for (int64_t at = label_index; at >= 0; at = labels[static_cast<size_t>(at)].parent) {
    path.push_back(labels[static_cast<size_t>(at)].node);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

LowerBorder ProfileSearch::Run(const ProfileQuery& query,
                               bool stop_at_first_target, Scratch& s,
                               SearchStats* stats,
                               int64_t* first_target_label) {
  CAPEFP_CHECK_LE(query.leave_lo, query.leave_hi);
  CAPEFP_CHECK_GE(query.source, 0);
  CAPEFP_CHECK_GE(query.target, 0);
  *first_target_label = -1;

  LowerBorder border(query.leave_lo, query.leave_hi, &s.arena);
  std::vector<Label>& labels = s.labels;
  std::vector<HeapEntry>& heap = s.heap;
  heap.clear();
  // Cold-start reserve only: scratch reuse carries the capacity across
  // queries, so steady-state pushes never touch the allocator (the
  // warm-arena contract in arena_steady_state_test).
  if (heap.capacity() < kSearchReserve) heap.reserve(kSearchReserve);
  if (labels.capacity() < kSearchReserve) labels.reserve(kSearchReserve);
  const size_t num_nodes = accessor_->num_nodes();
  // Lower envelope of expanded (popped) functions per node, for dominance.
  s.envelope.BeginQuery(num_nodes);
  s.seen.BeginQuery(num_nodes);

  // ε-banded mode (see ProfileSearchOptions::simplify_eps): each label's
  // function is a LOWER bound g on its exact path function f, and `s.debts`
  // (parallel to `labels`) carries a scalar d with f <= g + d pointwise.
  // The ε budget is split in half: one half bounds the compression debt d
  // (function simplification), the other is spent as dominance slack —
  // pruning a candidate that cannot beat the envelope of kept lower
  // functions by more than the slack. Keys and bound pruning read g, so
  // they stay conservative; target pops are re-expanded exactly, so every
  // returned value is the true travel time of its returned path and the
  // border sits within ~ε of the exact optimum.
  const double eps = options_.simplify_eps;
  const bool banded = eps > 0.0;
  // The ε budget is split so one dominance substitution (dom_slack + band)
  // plus one bound/termination truncation (bound_slack) stays within ε.
  const double band = 0.1 * eps;          // Compression debt budget.
  const double dom_slack = 0.55 * eps;    // Dominance pruning slack.
  const double bound_slack = 0.35 * eps;  // Bound/termination prune slack.
  std::vector<double>& debts = s.debts;
  debts.clear();
  if (banded && debts.capacity() < kSearchReserve) {
    debts.reserve(kSearchReserve);
  }
  // singleFP under the band: the first target pop carries a lower-bound
  // key, so it need not be globally optimal; keep refining target pops and
  // stop once no remaining key can beat the best exact minimum seen.
  double best_target_min = std::numeric_limits<double>::infinity();
  int64_t best_target_label = -1;

  labels.push_back({PwlFunction::Constant(query.leave_lo, query.leave_hi,
                                          0.0),
                    query.source, -1});
  if (banded) debts.push_back(0.0);  // The source label is exact.
  heap.push_back({estimator_->Estimate(query.source), 0});
  std::push_heap(heap.begin(), heap.end(), std::greater<>());
  ++stats->pushes;

  // Per-edge derivations are far too frequent for a span each; accumulate
  // locally and flush one aggregated leaf when the search ends.
  const bool tracing = trace_ != nullptr;
  double edge_ttf_ms = 0.0;
  uint64_t edge_ttf_calls = 0;
  while (!heap.empty()) {
    const HeapEntry top = heap.front();
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    heap.pop_back();
    // Termination (§4.6 step 5): the cheapest remaining path cannot improve
    // the border anywhere. The externally proven bound uses a strict
    // margin, so it never cuts a label the border-based rule would keep
    // alive into the final border (see ProfileSearchOptions).
    if (!border.empty() &&
        top.key >= border.MaxValue() - tdf::kTimeEps - bound_slack) {
      break;
    }
    if (top.key > options_.initial_upper_bound + tdf::kTimeEps) {
      break;
    }
    if (banded && stop_at_first_target && best_target_label >= 0 &&
        top.key >= best_target_min - tdf::kTimeEps) {
      // No remaining lower-bound key can beat the best refined exact
      // minimum: the banded singleFP answer is final (and exact).
      break;
    }
    const Label& label = labels[static_cast<size_t>(top.label)];
    const NodeId node = label.node;

    if (node == query.target) {
      // An identified end-node path: merge into the border (§4.6). Under
      // the band the label function is first re-expanded exactly, so only
      // exact functions ever reach the border.
      if (banded) RefineExactPath(query, top.label, s, stats);
      border.Merge(label.travel_time, top.label);
      if (banded && stop_at_first_target) {
        const double m = label.travel_time.MinValue();
        if (m < best_target_min) {
          best_target_min = m;
          best_target_label = top.label;
        }
        continue;
      }
      if (*first_target_label < 0) *first_target_label = top.label;
      if (stop_at_first_target) break;
      continue;  // End-node paths are not expanded further (FIFO).
    }

    // Dominance pruning against already-expanded paths at this node: the
    // lower envelope of popped functions. Banded runs apply the same rule
    // to the lower functions g with the ε dominance slack folded into the
    // tolerance: a pruned candidate could beat the envelope nowhere by
    // more than the slack, and the substituted kept label's exact function
    // is within its own debt (<= ε/2) of its g — so each substitution
    // costs at most ~ε of final-border optimality while near-tie labels
    // (the bulk of a profile search's work on dense networks) prune
    // aggressively. Returned values themselves are exact per-path after
    // refinement; DESIGN.md §12 states the contract.
    if (options_.dominance_pruning) {
      PwlFunction* env = s.envelope.Find(node);
      if (env != nullptr) {
        if (PwlFunction::DominatesOrEqual(label.travel_time, *env,
                                          tdf::kTimeEps + dom_slack,
                                          &s.arena)) {
          ++stats->pruned_dominated;
          continue;
        }
        PwlFunction::LowerEnvelopeInto(*env, label.travel_time,
                                       &s.envelope_tmp);
        *env = std::move(s.envelope_tmp);
      } else {
        *s.envelope.Insert(node, &s.arena) = label.travel_time;
      }
    }

    ++stats->expansions;
    if (flight_ != nullptr &&
        stats->expansions % kProgressEveryExpansions == 0) {
      flight_->Emit(obs::FlightEventType::kSearchProgress, 0,
                    static_cast<uint32_t>(heap.size()),
                    static_cast<uint64_t>(stats->expansions));
    }
    if (s.seen.Insert(node)) ++stats->distinct_nodes;
    if (options_.max_expansions > 0 &&
        stats->expansions >= options_.max_expansions) {
      stats->hit_expansion_cap = true;
      break;
    }

    accessor_->GetSuccessors(node, &s.neighbors);
    const double parent_debt =
        banded ? debts[static_cast<size_t>(top.label)] : 0.0;
    // Children of the source label take their lower function straight from
    // the cached ε/2-lower edge function (the source function is exactly 0,
    // so the debt charged is exactly the edge's simplification error).
    const bool source_hop = banded && label.parent < 0;
    for (const NeighborEdge& edge : s.neighbors) {
      // Corridor restriction (two-phase hierarchical mode): an edge leaving
      // the corridor is skipped before any function work.
      if (!s.filter.Allows(edge.to)) {
        ++stats->pruned_filtered;
        continue;
      }
      // NOTE: label may dangle after labels.push_back below; re-read.
      const PwlFunction& path_tt =
          labels[static_cast<size_t>(top.label)].travel_time;
      // §4.4 expansion, routed through the accessor so the edge function
      // over the arrival interval can come from the shared edge-TTF memo.
      const double arrive_lo =
          path_tt.domain_lo() + path_tt.Value(path_tt.domain_lo());
      const double arrive_hi =
          path_tt.domain_hi() + path_tt.Value(path_tt.domain_hi());
      uint64_t ttf_start = 0;
      if (tracing) ttf_start = obs::FlightClock::NowNanos();
      if (source_hop) {
        CountTtf(accessor_->EdgeTtfSimplifiedInto(
                     edge.pattern, edge.distance_miles, arrive_lo, arrive_hi,
                     kSourceHopEpsFraction * band, tdf::SimplifySide::kLower,
                     &s.edge_tmp, &s.edge_fn),
                 stats);
      } else {
        // Deeper hops compose with the EXACT edge function; the band comes
        // from re-simplifying the composition below.
        CountTtf(accessor_->EdgeTtfInto(edge.pattern, edge.distance_miles,
                                        arrive_lo, arrive_hi, &s.edge_fn),
                 stats);
      }
      if (tracing) {
        edge_ttf_ms += MillisSinceNanos(ttf_start);
        ++edge_ttf_calls;
      }
      double child_debt = 0.0;
      if (banded) {
        // Debt accounting: the sum of simplification tolerances spent along
        // the label's lineage (the source hop's cached edge read plus every
        // δ spent below). FIFO (slope >= -1) guarantees each composition of
        // a lower function through an exact edge stays a lower bound; the
        // second-order feed-through of the arrival-time displacement into
        // the edge's slopes is not charged here — the eps_search property
        // suite and bench_pwl_eps's validity pass enforce the end-to-end
        // within-ε contract directly.
        child_debt = source_hop ? kSourceHopEpsFraction * band : parent_debt;
        tdf::ComposePathWithEdgeInto(path_tt, s.edge_fn, &s.band_tmp);
        const size_t in_points = s.band_tmp.breakpoints().size();
        stats->simplify_breakpoints_in += static_cast<int64_t>(in_points);
        // Budgeted re-simplification: allow half the remaining room ε − d
        // on this composition when it is fat enough to be worth a pass,
        // then charge only the error ACTUALLY introduced (usually far
        // below the allowance — a pass that removes nothing costs no
        // budget at all), so the spend concentrates where labels are
        // largest and deep labels keep compressing for the whole path.
        const double room = band - child_debt;
        if (room > kMinRoomFraction * band && in_points > kMinSimplifyPoints) {
          const double delta = 0.5 * room;
          tdf::SimplifyInto(s.band_tmp, delta, tdf::SimplifySide::kLower,
                            &s.combined);
          if (s.combined.breakpoints().size() < in_points) {
            child_debt += tdf::MaxAbsDifference(s.band_tmp, s.combined);
          }
        } else {
          std::swap(s.combined, s.band_tmp);
        }
        stats->simplify_breakpoints_out +=
            static_cast<int64_t>(s.combined.breakpoints().size());
      } else {
        tdf::ComposePathWithEdgeInto(path_tt, s.edge_fn, &s.combined);
      }
      const double estimate = estimator_->Estimate(edge.to);
      const double key = s.combined.MinValue() + estimate;
      if (!border.empty() &&
          key >= border.MaxValue() - tdf::kTimeEps - bound_slack) {
        ++stats->pruned_bound;
        continue;
      }
      if (key > options_.initial_upper_bound + tdf::kTimeEps) {
        ++stats->pruned_bound;
        continue;
      }
      // Pointwise bound pruning: always on under the band (labels whose
      // optimistic total cannot beat the border anywhere by more than the
      // slack are useless within the contract), opt-in for exact runs.
      if ((options_.pointwise_bound_pruning || banded) && !border.empty()) {
        s.combined.ShiftedInto(estimate, &s.shifted);
        if (PwlFunction::DominatesOrEqual(s.shifted, border.function(),
                                          tdf::kTimeEps + bound_slack,
                                          &s.arena)) {
          ++stats->pruned_bound;
          continue;
        }
      }
      if (banded) debts.push_back(child_debt);
      labels.push_back({std::move(s.combined), edge.to, top.label,
                        edge.pattern, edge.distance_miles});
      heap.push_back({key, static_cast<int64_t>(labels.size()) - 1});
      std::push_heap(heap.begin(), heap.end(), std::greater<>());
      ++stats->pushes;
    }
  }
  if (banded && stop_at_first_target) {
    *first_target_label = best_target_label;
  }
  if (tracing) {
    if (edge_ttf_calls > 0) {
      trace_->AddLeaf("edge_ttf", edge_ttf_ms, edge_ttf_calls);
    }
    trace_->AddAttr("expansions", static_cast<double>(stats->expansions));
    trace_->AddAttr("distinct_nodes",
                    static_cast<double>(stats->distinct_nodes));
    trace_->AddAttr("pushes", static_cast<double>(stats->pushes));
    trace_->AddAttr("pruned_dominated",
                    static_cast<double>(stats->pruned_dominated));
    trace_->AddAttr("pruned_bound",
                    static_cast<double>(stats->pruned_bound));
  }
  return border;
}

void ProfileSearch::RefineExactPath(const ProfileQuery& query,
                                    int64_t label_index, Scratch& s,
                                    SearchStats* stats) {
  const uint64_t start_nanos = obs::FlightClock::NowNanos();
  // Collect the path's edge records root..label (the parent walk yields
  // them label-first).
  auto& chain = s.refine_chain;
  chain.clear();
  for (int64_t at = label_index; at >= 0;) {
    const Label& lab = s.labels[static_cast<size_t>(at)];
    if (lab.parent < 0) break;
    chain.emplace_back(lab.pattern, lab.distance_miles);
    at = lab.parent;
  }
  std::reverse(chain.begin(), chain.end());
  // Re-expand exactly, mirroring the ε=0 search composition step for step:
  // EdgeTtfInto serves uncompressed functions (the memo's (0, kExact)
  // entries), so the refined function equals what the exact search would
  // have produced for this path, bit for bit.
  PwlFunction& path = s.refine_path;
  path.StartRebuild(/*reserve_hint=*/2);
  path.AppendBreakpoint(query.leave_lo, 0.0);
  if (query.leave_hi > query.leave_lo) {
    path.AppendBreakpoint(query.leave_hi, 0.0);
  }
  path.FinishRebuild();
  for (const auto& [pattern, distance_miles] : chain) {
    const double arrive_lo = path.domain_lo() + path.Value(path.domain_lo());
    const double arrive_hi = path.domain_hi() + path.Value(path.domain_hi());
    CountTtf(accessor_->EdgeTtfInto(pattern, distance_miles, arrive_lo,
                                    arrive_hi, &s.refine_edge),
             stats);
    tdf::ComposePathWithEdgeInto(path, s.refine_edge, &s.refine_tmp);
    std::swap(path, s.refine_tmp);
    ++stats->refine_edges;
  }
  s.labels[static_cast<size_t>(label_index)].travel_time = std::move(path);
  ++stats->refined_paths;
  stats->refine_nanos += obs::FlightClock::NowNanos() - start_nanos;
}

SingleFpResult ProfileSearch::RunSingleFp(const ProfileQuery& query) {
  SingleFpResult result;
  Scratch local_scratch;
  Scratch& s = scratch_ != nullptr ? *scratch_ : local_scratch;
  s.labels.clear();
  int64_t first_target = -1;
  (void)Run(query, /*stop_at_first_target=*/true, s, &result.stats,
            &first_target);
  if (first_target < 0) return result;
  result.found = true;
  const Label& label = s.labels[static_cast<size_t>(first_target)];
  result.path = ReconstructPath(s.labels, first_target);
  result.travel_time = label.travel_time;
  result.best_leave_time = label.travel_time.ArgMin();
  result.best_travel_minutes = label.travel_time.MinValue();
  return result;
}

AllFpResult ProfileSearch::RunAllFp(const ProfileQuery& query) {
  AllFpResult result;
  Scratch local_scratch;
  Scratch& s = scratch_ != nullptr ? *scratch_ : local_scratch;
  s.labels.clear();
  int64_t first_target = -1;
  {
    const LowerBorder border = Run(query, /*stop_at_first_target=*/false, s,
                                   &result.stats, &first_target);
    if (border.empty()) return result;
    result.found = true;
    result.border = border.function();
    for (const LowerBorder::Piece& piece : border.pieces()) {
      result.pieces.push_back(
          {piece.lo, piece.hi, ReconstructPath(s.labels, piece.tag)});
    }
  }
  // Merge adjacent pieces whose *paths* coincide (distinct labels can
  // describe the same node sequence only via different parents, so this is
  // rare but keeps Definition 4's "adjacent sub-intervals have different
  // fastest paths" exact).
  std::vector<AllFpPiece> merged;
  merged.reserve(result.pieces.size());
  for (AllFpPiece& piece : result.pieces) {
    if (!merged.empty() && merged.back().path == piece.path) {
      merged.back().leave_hi = piece.leave_hi;
    } else {
      merged.push_back(std::move(piece));
    }
  }
  result.pieces = std::move(merged);
  return result;
}

}  // namespace capefp::core
