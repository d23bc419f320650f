// Network access interface used by all query algorithms.
//
// The paper stores the network on disk via CCAM (§2.2) and its algorithms
// touch it only through FindNode / GetSuccessor operations. We mirror that:
// search code consumes this interface, so the same algorithm runs against
// the in-memory RoadNetwork or the disk-backed CCAM store, and the CCAM
// implementation can count page faults per query.
//
// Pattern bodies and the calendar are part of the network schema and are
// always memory-resident; disk records carry pattern *ids*.
#ifndef CAPEFP_NETWORK_ACCESSOR_H_
#define CAPEFP_NETWORK_ACCESSOR_H_

#include <cstdint>
#include <vector>

#include "src/geo/point.h"
#include "src/network/road_network.h"
#include "src/network/ttf_cache.h"
#include "src/tdf/pwl_simplify.h"
#include "src/tdf/speed_pattern.h"
#include "src/tdf/travel_time.h"

namespace capefp::network {

// One outgoing road segment as seen through an accessor.
struct NeighborEdge {
  NodeId to = kInvalidNode;
  double distance_miles = 0.0;
  PatternId pattern = 0;
  RoadClass road_class = RoadClass::kLocalOutsideCity;
};

// Abstract node-centric view of a CapeCod network.
class NetworkAccessor {
 public:
  virtual ~NetworkAccessor() = default;

  virtual size_t num_nodes() const = 0;

  // Location of `node` (the paper's FindNode). May perform page I/O.
  virtual geo::Point Location(NodeId node) = 0;

  // Appends `node`'s outgoing edges to `out` (cleared first); the paper's
  // GetSuccessor. May perform page I/O.
  virtual void GetSuccessors(NodeId node, std::vector<NeighborEdge>* out) = 0;

  // Schema access (always memory-resident).
  virtual const tdf::CapeCodPattern& Pattern(PatternId id) const = 0;
  virtual const tdf::Calendar& calendar() const = 0;
  virtual double max_speed() const = 0;

  // Speed view for an edge with pattern `id`. The view borrows schema
  // storage owned by the accessor's network.
  tdf::EdgeSpeedView SpeedView(PatternId id) const {
    return tdf::EdgeSpeedView(&Pattern(id), &calendar());
  }

  // The edge travel-time function τ(l) for leaving times l in [lo, hi],
  // equivalent to tdf::EdgeTravelTimeFunction over the same interval. With
  // a memo attached and [lo, hi] inside one day, the function is cut from
  // the memoized full-day derivation; multi-day intervals bypass the memo.
  // Thread-safe (the memo is lock-free, and the derivation itself only
  // reads the immutable schema).
  //
  // EdgeTtfInto is the implementation; it rebuilds the caller-owned `out`
  // in place (reusing its storage and arena binding) with a result exactly
  // equal to EdgeTtf's, so memo hits cut the shared full-day function
  // directly into a reusable buffer instead of copying it. It returns how
  // the request was served, which the search counts per query.
  tdf::PwlFunction EdgeTtf(PatternId pattern, double distance_miles,
                           double lo, double hi);
  TtfSource EdgeTtfInto(PatternId pattern, double distance_miles, double lo,
                        double hi, tdf::PwlFunction* out);

  // The memoized full-day function for `day` (no copy), for callers that
  // want the whole-day view rather than a restriction; valid for the
  // memo's lifetime. Requires an attached memo. Null when the memo is full
  // and holds no entry for the key. `*hit` tells whether it held one.
  const tdf::PwlFunction* EdgeTtfFullDayShared(PatternId pattern,
                                               double distance_miles,
                                               int64_t day, bool* hit);

  // ε-simplified counterpart of EdgeTtfInto: the result brackets the exact
  // edge function on the chosen side (side kLower: never above exact,
  // within ε below; side kUpper: never below exact, within ε above) and
  // keeps the forward-FIFO invariant. For the lower side the effective ε is
  // additionally clamped to the edge's exact minimum travel time, so a
  // simplified travel time can never go negative (the profile search's key
  // and termination reasoning assumes non-negative edge times). eps <= 0
  // degenerates to EdgeTtfInto exactly. With a memo attached and [lo, hi]
  // inside one day, the function is cut from the memoized ε-simplified
  // full-day derivation (keyed by (ε, side) — see EdgeTtfCache); otherwise
  // the exact function is derived into `*tmp` and simplified into `*out`.
  // `tmp` and `out` must be distinct.
  TtfSource EdgeTtfSimplifiedInto(PatternId pattern, double distance_miles,
                                  double lo, double hi, double eps,
                                  tdf::SimplifySide side,
                                  tdf::PwlFunction* tmp,
                                  tdf::PwlFunction* out);

  // The memoized ε-simplified full-day function (the derivation behind
  // EdgeTtfSimplifiedInto's memo path), as EdgeTtfFullDayShared. Requires
  // an attached memo and eps > 0.
  const tdf::PwlFunction* EdgeTtfFullDaySimplifiedShared(
      PatternId pattern, double distance_miles, int64_t day, double eps,
      tdf::SimplifySide side, bool* hit);

  // Attaches a shared derived-function memo (not owned; null detaches).
  // The memo may be shared by several accessors over networks with the
  // same schema — e.g. the memory and disk accessors of one engine — since
  // keys depend only on pattern id, edge length, and day.
  void set_ttf_cache(EdgeTtfCache* cache) { ttf_cache_ = cache; }
  EdgeTtfCache* ttf_cache() const { return ttf_cache_; }

 private:
  EdgeTtfCache* ttf_cache_ = nullptr;
};

// Accessor over an in-memory RoadNetwork (no I/O, no counters). The network
// must outlive the accessor.
class InMemoryAccessor : public NetworkAccessor {
 public:
  explicit InMemoryAccessor(const RoadNetwork* network);

  size_t num_nodes() const override;
  geo::Point Location(NodeId node) override;
  void GetSuccessors(NodeId node, std::vector<NeighborEdge>* out) override;
  const tdf::CapeCodPattern& Pattern(PatternId id) const override;
  const tdf::Calendar& calendar() const override;
  double max_speed() const override;

 private:
  const RoadNetwork* network_;
  double max_speed_;
};

}  // namespace capefp::network

#endif  // CAPEFP_NETWORK_ACCESSOR_H_
