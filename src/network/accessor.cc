#include "src/network/accessor.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "src/util/check.h"

namespace capefp::network {

namespace {

// Finds the day whose full-day function covers [lo, hi]; false when the
// interval spans a midnight.
bool WithinOneDay(double lo, double hi, int64_t* day, double* day_lo) {
  const double day_f = std::floor(lo / tdf::kMinutesPerDay);
  *day = static_cast<int64_t>(day_f);
  *day_lo = day_f * tdf::kMinutesPerDay;
  return lo >= *day_lo - tdf::kTimeEps &&
         hi <= *day_lo + tdf::kMinutesPerDay + tdf::kTimeEps;
}

// Lower-side simplification may undercut the exact function by up to eps,
// which for a short edge could produce negative travel times; the search
// layer's lower-bound keys and termination rule assume edge times >= 0.
// Clamping eps to the exact minimum keeps the bracket guarantee (it is
// simply a tighter eps for short edges) and the result non-negative.
double EffectiveEps(double eps, tdf::SimplifySide side,
                    const tdf::PwlFunction& exact) {
  if (side != tdf::SimplifySide::kLower) return eps;
  return std::min(eps, std::max(0.0, exact.MinValue()));
}

}  // namespace

TtfSource NetworkAccessor::EdgeTtfInto(PatternId pattern,
                                       double distance_miles, double lo,
                                       double hi, tdf::PwlFunction* out) {
  int64_t day = 0;
  double day_lo = 0.0;
  if (ttf_cache_ == nullptr || !WithinOneDay(lo, hi, &day, &day_lo)) {
    tdf::EdgeTravelTimeFunctionInto(SpeedView(pattern), distance_miles, lo,
                                    hi, out);
    return ttf_cache_ == nullptr ? TtfSource::kUncached : TtfSource::kBypass;
  }
  const double day_hi = day_lo + tdf::kMinutesPerDay;
  bool hit = false;
  const tdf::PwlFunction* full_day =
      EdgeTtfFullDayShared(pattern, distance_miles, day, &hit);
  std::optional<tdf::PwlFunction> derived;
  if (full_day == nullptr) {
    // Memo full: derive the same full-day function without publishing it,
    // so the answer stays bit-identical to a memoized one.
    derived.emplace(out->arena());
    tdf::EdgeTravelTimeFunctionInto(SpeedView(pattern), distance_miles,
                                    day_lo, day_hi, &*derived);
    full_day = &*derived;
  }
  full_day->RestrictedInto(std::max(lo, day_lo), std::min(hi, day_hi), out);
  return hit ? TtfSource::kHit : TtfSource::kMiss;
}

tdf::PwlFunction NetworkAccessor::EdgeTtf(PatternId pattern,
                                          double distance_miles, double lo,
                                          double hi) {
  tdf::PwlFunction out;
  EdgeTtfInto(pattern, distance_miles, lo, hi, &out);
  return out;
}

TtfSource NetworkAccessor::EdgeTtfSimplifiedInto(
    PatternId pattern, double distance_miles, double lo, double hi,
    double eps, tdf::SimplifySide side, tdf::PwlFunction* tmp,
    tdf::PwlFunction* out) {
  if (eps <= 0.0) return EdgeTtfInto(pattern, distance_miles, lo, hi, out);
  CAPEFP_CHECK(tmp != out);
  int64_t day = 0;
  double day_lo = 0.0;
  if (ttf_cache_ == nullptr || !WithinOneDay(lo, hi, &day, &day_lo)) {
    tdf::EdgeTravelTimeFunctionInto(SpeedView(pattern), distance_miles, lo,
                                    hi, tmp);
    tdf::SimplifyInto(*tmp, EffectiveEps(eps, side, *tmp), side, out);
    return ttf_cache_ == nullptr ? TtfSource::kUncached : TtfSource::kBypass;
  }
  const double day_hi = day_lo + tdf::kMinutesPerDay;
  bool hit = false;
  // Restriction of a one-sided ε bracket is still a one-sided ε bracket
  // (the bound is pointwise), so cutting the simplified full-day entry
  // preserves every guarantee.
  const tdf::PwlFunction* full_day = EdgeTtfFullDaySimplifiedShared(
      pattern, distance_miles, day, eps, side, &hit);
  std::optional<tdf::PwlFunction> derived;
  if (full_day == nullptr) {
    // Memo full: the entry's derivation, on demand and unpublished.
    tdf::EdgeTravelTimeFunctionInto(SpeedView(pattern), distance_miles,
                                    day_lo, day_hi, tmp);
    derived.emplace(out->arena());
    tdf::SimplifyInto(*tmp, EffectiveEps(eps, side, *tmp), side, &*derived);
    full_day = &*derived;
  }
  full_day->RestrictedInto(std::max(lo, day_lo), std::min(hi, day_hi), out);
  return hit ? TtfSource::kHit : TtfSource::kMiss;
}

const tdf::PwlFunction* NetworkAccessor::EdgeTtfFullDaySimplifiedShared(
    PatternId pattern, double distance_miles, int64_t day, double eps,
    tdf::SimplifySide side, bool* hit) {
  CAPEFP_CHECK(ttf_cache_ != nullptr);
  CAPEFP_CHECK_GT(eps, 0.0);
  const double day_lo = static_cast<double>(day) * tdf::kMinutesPerDay;
  const double day_hi = day_lo + tdf::kMinutesPerDay;
  const TtfVariant variant = side == tdf::SimplifySide::kLower
                                 ? TtfVariant::kLower
                                 : TtfVariant::kUpper;
  return ttf_cache_->GetOrDerive(
      pattern, distance_miles, day, eps, variant,
      [&]() {
        // Deterministic: the exact full-day function is a pure function of
        // (pattern, distance, day), and EffectiveEps depends only on it and
        // the key's (eps, side) — so the entry is a pure function of its
        // key, preserving the memo's bit-identical-replay contract.
        // capefp-semlint: allow(hot-alloc): memo-miss path; the allocation
        // IS the memo entry the hot path then reads
        const tdf::PwlFunction exact = tdf::EdgeTravelTimeFunction(
            SpeedView(pattern), distance_miles, day_lo, day_hi);
        return tdf::Simplify(exact, EffectiveEps(eps, side, exact), side);
      },
      hit);
}

const tdf::PwlFunction* NetworkAccessor::EdgeTtfFullDayShared(
    PatternId pattern, double distance_miles, int64_t day, bool* hit) {
  CAPEFP_CHECK(ttf_cache_ != nullptr);
  const double day_lo = static_cast<double>(day) * tdf::kMinutesPerDay;
  const double day_hi = day_lo + tdf::kMinutesPerDay;
  return ttf_cache_->GetOrDerive(
      pattern, distance_miles, day, /*eps=*/0.0, TtfVariant::kExact,
      [&]() {
        // capefp-semlint: allow(hot-alloc): memo-miss path; the allocation
        // IS the memo entry the hot path then reads allocation-free
        return tdf::EdgeTravelTimeFunction(SpeedView(pattern), distance_miles,
                                           day_lo, day_hi);
      },
      hit);
}

InMemoryAccessor::InMemoryAccessor(const RoadNetwork* network)
    : network_(network), max_speed_(network->max_speed()) {
  CAPEFP_CHECK(network != nullptr);
}

size_t InMemoryAccessor::num_nodes() const { return network_->num_nodes(); }

geo::Point InMemoryAccessor::Location(NodeId node) {
  return network_->location(node);
}

void InMemoryAccessor::GetSuccessors(NodeId node,
                                     std::vector<NeighborEdge>* out) {
  out->clear();
  const auto& edges = network_->OutEdges(node);
  out->reserve(edges.size());
  for (EdgeId edge_id : edges) {
    const Edge& e = network_->edge(edge_id);
    out->push_back({e.to, e.distance_miles, e.pattern, e.road_class});
  }
}

const tdf::CapeCodPattern& InMemoryAccessor::Pattern(PatternId id) const {
  return network_->pattern(id);
}

const tdf::Calendar& InMemoryAccessor::calendar() const {
  return network_->calendar();
}

double InMemoryAccessor::max_speed() const { return max_speed_; }

}  // namespace capefp::network
