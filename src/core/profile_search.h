// IntAllFastestPaths (§4): the paper's primary contribution.
//
// An A*-style best-first search whose priority-queue entries are *paths*
// carrying piecewise-linear travel-time functions of the leaving time
// l ∈ I, ordered by min_l [ T(l, s⇒n) + T_est(n⇒e) ]. Expanding a path
// composes its function with the edge travel-time function over the arrival
// interval (§4.4). Paths reaching the end node feed the lower border
// (§4.6); the search stops when the next path's key cannot beat the
// border's maximum. The first end-node path popped answers the singleFP
// query (§4.5); the final border partition answers allFP.
//
// Beyond the paper, an optional per-node dominance rule prunes a popped
// path whose function is pointwise >= the lower envelope of functions
// already expanded at that node. Under FIFO any extension of a dominated
// path stays dominated, so pruning preserves both query answers; it also
// suppresses cyclic paths. It is on by default and benchmarked by
// bench_ablation_pruning.
#ifndef CAPEFP_CORE_PROFILE_SEARCH_H_
#define CAPEFP_CORE_PROFILE_SEARCH_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "src/core/estimator.h"
#include "src/core/lower_border.h"
#include "src/core/node_filter.h"
#include "src/network/accessor.h"
#include "src/tdf/pwl_arena.h"
#include "src/tdf/pwl_function.h"

namespace capefp::obs {
class Trace;
class FlightWriter;
}  // namespace capefp::obs

namespace capefp::core {

// Dense epoch-stamped node set, reused across queries without O(num_nodes)
// clearing: membership is valid only when the stamp equals the current
// epoch (same scheme as EstimatorScratch).
struct NodeEpochSet {
  std::vector<uint64_t> stamp;
  uint64_t epoch = 0;

  void BeginQuery(size_t num_nodes) {
    if (stamp.size() < num_nodes) stamp.resize(num_nodes, 0);
    ++epoch;
  }

  // True the first time `node` is inserted this query.
  bool Insert(network::NodeId node) {
    uint64_t& s = stamp[static_cast<size_t>(node)];
    if (s == epoch) return false;
    s = epoch;
    return true;
  }
};

// Dense epoch-stamped node → PwlFunction map (the per-node lower envelope
// of expanded paths used by dominance pruning). Functions live in a packed
// vector, arena-bound, torn down at BeginQuery so their breakpoint blocks
// recycle through the arena.
struct NodeFunctionMap {
  std::vector<uint64_t> stamp;
  std::vector<uint32_t> slot;
  std::vector<tdf::PwlFunction> fns;
  uint64_t epoch = 0;

  void BeginQuery(size_t num_nodes) {
    if (stamp.size() < num_nodes) {
      stamp.resize(num_nodes, 0);
      slot.resize(num_nodes, 0);
    }
    ++epoch;
    fns.clear();
  }

  // Null if `node` has no function this query. The pointer is invalidated
  // by the next Insert.
  tdf::PwlFunction* Find(network::NodeId node) {
    const auto i = static_cast<size_t>(node);
    return stamp[i] == epoch ? &fns[slot[i]] : nullptr;
  }

  // Registers an empty arena-bound function for `node` (must not already
  // be present this query) and returns it for assignment.
  tdf::PwlFunction* Insert(network::NodeId node, tdf::PwlArena* arena) {
    const auto i = static_cast<size_t>(node);
    stamp[i] = epoch;
    slot[i] = static_cast<uint32_t>(fns.size());
    // capefp-semlint: allow(hot-alloc): arena-backed element; the vector's
    // capacity persists in scratch, warm steady state never reallocates
    fns.emplace_back(arena);
    return &fns.back();
  }
};

// Priority-queue entry of the profile searches; kept in a plain vector
// driven by push_heap/pop_heap (replicating std::priority_queue exactly)
// so the heap storage survives across queries in a Scratch.
struct HeapEntry {
  double key = 0.0;  // min over I of (travel time + estimate).
  int64_t label = -1;
  bool operator>(const HeapEntry& o) const { return key > o.key; }
};

struct ProfileQuery {
  network::NodeId source = network::kInvalidNode;
  network::NodeId target = network::kInvalidNode;
  // Leaving-time interval I = [leave_lo, leave_hi], minutes from the
  // reference midnight.
  double leave_lo = 0.0;
  double leave_hi = 0.0;
};

struct ProfileSearchOptions {
  // Per-node dominance pruning (see file comment).
  bool dominance_pruning = true;
  // Extension beyond the paper: discard a candidate label whose function
  // T(l) + T_est is >= the lower border *pointwise* (it can improve the
  // answer nowhere), instead of only comparing min(T + T_est) against
  // max(border) as the paper does. Off by default so the headline
  // experiments use the paper's rule; bench_ablation_pruning measures it.
  bool pointwise_bound_pruning = false;
  // Hard cap on path expansions; guards against pathological inputs when
  // pruning is disabled. <= 0 means unlimited.
  int64_t max_expansions = 0;
  // An externally proven achievable travel-time bound over the whole leave
  // interval (e.g. the corridor phase's upper-bound border max). Activates
  // bound pruning before the first target pop. Labels are discarded only
  // STRICTLY above bound + kTimeEps: such a label exceeds the final border
  // everywhere by more than the merge tolerance, so the returned border is
  // bit-identical to an unbounded run. +inf disables.
  double initial_upper_bound = std::numeric_limits<double>::infinity();
  // Bounded-error ε band (minutes; engine option simplify_eps is in
  // seconds). 0 runs the exact search, bit-identical to previous behaviour
  // (all banded code is behind eps > 0 checks). > 0 switches label
  // maintenance to a debt-tracked band: every label carries a lower
  // function g (never above the exact path function f) plus one scalar
  // debt d with the invariant f <= g + d pointwise. The ε budget is split
  // so one dominance substitution plus one bound truncation stays within
  // ε: 0.1ε caps the compression debt d (source hops read the cached
  // lower-simplified edge function; deeper hops compose g with the EXACT
  // edge function and re-simplify downward only when the composition is
  // fat enough, charging the *measured* max error); 0.55ε widens the
  // dominance tolerance, letting the envelope's lower functions absorb
  // the near-tie label proliferation the exact rule must keep; 0.35ε
  // widens bound pruning — the termination break, the max-value candidate
  // prune, and the pointwise candidate prune (always on under the band;
  // see pointwise_bound_pruning above), which discards labels that cannot
  // improve the border anywhere by more than the slack. Every label that
  // pops at the target is re-expanded exactly over uncompressed edge
  // functions before it touches the border, so each returned value is the
  // true travel time of its returned path; the border as a whole sits
  // within ε of the exact optimum (ε=0 golden tests, the eps_search
  // property suite and bench_pwl_eps's per-run validity pass enforce both
  // halves of that contract). See DESIGN.md §12.
  double simplify_eps = 0.0;
};

struct SearchStats {
  // Paths popped and expanded (the paper's "expanded nodes" measure).
  int64_t expansions = 0;
  // Distinct nodes among the expansions.
  int64_t distinct_nodes = 0;
  // Labels pushed into the queue.
  int64_t pushes = 0;
  // Labels discarded by dominance pruning.
  int64_t pruned_dominated = 0;
  // Labels discarded because they could not beat the border.
  int64_t pruned_bound = 0;
  // Edges skipped because their head fell outside the active NodeFilter
  // corridor (always 0 for flat searches).
  int64_t pruned_filtered = 0;
  bool hit_expansion_cap = false;
  // simplify_eps > 0 only (all zero otherwise): label breakpoints entering
  // and leaving banded label maintenance (out == in on hops that kept the
  // exact composition, out < in where the debt schedule bought
  // compression), target pops re-expanded exactly, exact edge compositions
  // spent doing so, and time spent in that refinement.
  int64_t simplify_breakpoints_in = 0;
  int64_t simplify_breakpoints_out = 0;
  int64_t refined_paths = 0;
  int64_t refine_edges = 0;
  uint64_t refine_nanos = 0;
  // Edge-TTF reads by how the accessor served them (network::TtfSource),
  // refinement reads included: cut from a memoized function, derived on a
  // memo miss, or derived because the interval spans midnight. All zero
  // without a memo. Plain per-query counts: the engine folds them into
  // capefp.ttf_cache.* once per query.
  int64_t ttf_hits = 0;
  int64_t ttf_misses = 0;
  int64_t ttf_bypasses = 0;
};

struct SingleFpResult {
  bool found = false;
  // Node sequence source..target.
  std::vector<network::NodeId> path;
  // Travel time as a function of leaving time for that path.
  std::optional<tdf::PwlFunction> travel_time;
  // Optimal leaving instant (leftmost if a whole stretch is optimal) and
  // its travel time.
  double best_leave_time = 0.0;
  double best_travel_minutes = 0.0;
  SearchStats stats;
};

struct AllFpPiece {
  // Sub-interval of I on which `path` is the fastest.
  double leave_lo = 0.0;
  double leave_hi = 0.0;
  std::vector<network::NodeId> path;
};

struct AllFpResult {
  bool found = false;
  // The partition I_1..I_k in order; adjacent pieces have distinct paths.
  std::vector<AllFpPiece> pieces;
  // The lower border: fastest achievable travel time per leaving instant.
  std::optional<tdf::PwlFunction> border;
  SearchStats stats;
};

// Runs IntAllFastestPaths. `estimator` must be anchored at query.target.
// Both calls are independent (no shared state between invocations).
class ProfileSearch {
 public:
  struct Label {
    tdf::PwlFunction travel_time;
    network::NodeId node;
    int64_t parent;  // Label index, -1 for the source label.
    // The edge that produced this label (zero for the root label). Node
    // sequences are ambiguous under parallel edges, so the ε>0 exact
    // final-path refinement re-expands from this per-label record instead.
    network::PatternId pattern = 0;
    double distance_miles = 0.0;
  };

  // Reusable per-search state. A worker thread running many queries passes
  // one Scratch to every ProfileSearch (or ReverseProfileSearch) it
  // constructs: the PWL arena, label vector, heap, dense per-node state and
  // function buffers all keep their storage across queries, so a warm
  // search loop reaches zero heap allocations per expansion (the arena's
  // spill counter measures this; the engine publishes it under
  // capefp.tdf.arena.*). Never share a Scratch between concurrently
  // running searches — it is strictly per-worker state.
  //
  // Declaration order matters: `arena` comes first so every arena-bound
  // member below it is destroyed while the arena is still alive.
  struct Scratch {
    tdf::PwlArena arena;
    std::vector<Label> labels;
    std::vector<network::NeighborEdge> neighbors;
    std::vector<HeapEntry> heap;
    NodeFunctionMap envelope;
    NodeEpochSet seen;
    EstimatorScratch estimator;
    // Optional corridor restriction (see NodeFilter). Inactive by default;
    // the hierarchical two-phase engine mode populates it per query.
    NodeFilter filter;
    // Reusable arena-bound destinations for the inner-loop Into operations.
    tdf::PwlFunction edge_fn{&arena};
    tdf::PwlFunction combined{&arena};
    tdf::PwlFunction envelope_tmp{&arena};
    tdf::PwlFunction shifted{&arena};
    // simplify_eps > 0 only; empty and untouched in exact runs. `debts`
    // holds each label's scalar error debt d (exact <= lower + d pointwise),
    // parallel to `labels`.
    std::vector<double> debts;
    std::vector<std::pair<network::PatternId, double>> refine_chain;
    tdf::PwlFunction edge_tmp{&arena};
    tdf::PwlFunction band_tmp{&arena};
    tdf::PwlFunction refine_path{&arena};
    tdf::PwlFunction refine_edge{&arena};
    tdf::PwlFunction refine_tmp{&arena};
  };

  // `trace`, when non-null, receives an aggregated "edge_ttf" leaf (total
  // derivation time and call count) plus the final SearchStats counters as
  // attributes on the innermost open span. Tracing a search adds two clock
  // reads per expanded edge; a null trace costs one branch.
  //
  // `flight`, when non-null, receives periodic kSearchProgress events (one
  // per kProgressEveryExpansions expansions, so the flight recorder's
  // always-on cost stays O(1) per query, not O(expansions)).
  ProfileSearch(network::NetworkAccessor* accessor,
                TravelTimeEstimator* estimator,
                const ProfileSearchOptions& options = {},
                Scratch* scratch = nullptr, obs::Trace* trace = nullptr,
                obs::FlightWriter* flight = nullptr);

  // Cadence of the flight recorder's in-search progress events.
  static constexpr int64_t kProgressEveryExpansions = 1024;

  // Stops at the first end-node path (§4.5).
  SingleFpResult RunSingleFp(const ProfileQuery& query);

  // Full run: lower border + partition (§4.6).
  AllFpResult RunAllFp(const ProfileQuery& query);

 private:
  // Shared engine; `stop_at_first_target` selects singleFP behaviour.
  // Returns the final border (empty if the target was never reached); the
  // label arena for path reconstruction lives in `scratch`.
  LowerBorder Run(const ProfileQuery& query, bool stop_at_first_target,
                  Scratch& scratch, SearchStats* stats,
                  int64_t* first_target_label);

  // ε>0 only: replaces labels[label_index].travel_time with the exact
  // travel-time function of its path, re-expanding the per-label edge
  // records over uncompressed edge TTFs. Runs once per target pop; the
  // semlint rule `eps-exact-path` pins this function (and everything it
  // calls) to exact EdgeTtfInto reads.
  void RefineExactPath(const ProfileQuery& query, int64_t label_index,
                       Scratch& scratch, SearchStats* stats);

  std::vector<network::NodeId> ReconstructPath(
      const std::vector<Label>& labels, int64_t label_index) const;

  network::NetworkAccessor* accessor_;
  TravelTimeEstimator* estimator_;
  ProfileSearchOptions options_;
  Scratch* scratch_;  // Not owned; may be null.
  obs::Trace* trace_;  // Not owned; may be null.
  obs::FlightWriter* flight_;  // Not owned; may be null.
};

}  // namespace capefp::core

#endif  // CAPEFP_CORE_PROFILE_SEARCH_H_
