#include "e2e_bench/oracle.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <sstream>

#include "src/tdf/travel_time.h"
#include "src/util/random.h"

namespace capefp::e2e {

using network::NodeId;

Oracle::Oracle(const network::RoadNetwork* network)
    : network_(network),
      arrival_(network->num_nodes()),
      done_(network->num_nodes()) {}

double Oracle::FastestTime(NodeId s, NodeId t, double leave) {
  std::fill(arrival_.begin(), arrival_.end(),
            std::numeric_limits<double>::infinity());
  std::fill(done_.begin(), done_.end(), 0);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  arrival_[static_cast<size_t>(s)] = leave;
  heap.push({leave, s});
  while (!heap.empty()) {
    const auto [at, n] = heap.top();
    heap.pop();
    if (done_[static_cast<size_t>(n)]) continue;
    done_[static_cast<size_t>(n)] = 1;
    if (n == t) return at - leave;
    for (const network::EdgeId e : network_->OutEdges(n)) {
      const network::Edge& edge = network_->edge(e);
      const double arrive =
          at + tdf::TravelTime(network_->SpeedView(e), edge.distance_miles, at);
      double& best = arrival_[static_cast<size_t>(edge.to)];
      if (arrive < best) {
        best = arrive;
        heap.push({arrive, edge.to});
      }
    }
  }
  return std::numeric_limits<double>::infinity();
}

double Oracle::PathTime(const std::vector<NodeId>& path, double leave) const {
  if (path.empty()) return -1.0;
  double t = leave;
  for (size_t i = 0; i + 1 < path.size(); ++i) {
    if (path[i] < 0 || static_cast<size_t>(path[i]) >= network_->num_nodes()) {
      return -1.0;
    }
    double best = std::numeric_limits<double>::infinity();
    for (const network::EdgeId e : network_->OutEdges(path[i])) {
      const network::Edge& edge = network_->edge(e);
      if (edge.to != path[i + 1]) continue;
      best = std::min(best, tdf::TravelTime(network_->SpeedView(e),
                                            edge.distance_miles, t));
    }
    if (!std::isfinite(best)) return -1.0;
    t += best;
  }
  return t - leave;
}

namespace {

bool Near(double a, double b) { return std::abs(a - b) <= kTolMinutes; }

std::string Fail(const Query& q, const std::string& what) {
  std::ostringstream os;
  os.precision(12);
  os << KindName(q.kind) << " " << q.source << "->" << q.target << " ["
     << q.lo << ", " << q.hi << "]: " << what;
  return os.str();
}

std::string Num(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

bool Endpoints(const Query& q, const std::vector<NodeId>& path) {
  return !path.empty() && path.front() == q.source && path.back() == q.target;
}

// Pieces given as (lo, hi, path) triples must tile [q.lo, q.hi] and each
// be an s->t path.
template <typename Piece, typename Lo, typename Hi>
std::string CheckTiling(const Query& q, const std::vector<Piece>& pieces,
                        Lo lo_of, Hi hi_of) {
  if (pieces.empty()) return Fail(q, "no pieces");
  if (!Near(lo_of(pieces.front()), q.lo) || !Near(hi_of(pieces.back()), q.hi)) {
    return Fail(q, "pieces do not span the window");
  }
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (!Endpoints(q, pieces[i].path)) {
      return Fail(q, "piece " + std::to_string(i) + " is not an s->t path");
    }
    if (i + 1 < pieces.size() &&
        !Near(hi_of(pieces[i]), lo_of(pieces[i + 1]))) {
      return Fail(q, "gap or overlap after piece " + std::to_string(i));
    }
  }
  return "";
}

template <typename Piece, typename Lo, typename Hi>
const Piece* PieceAt(const std::vector<Piece>& pieces, double x, Lo lo_of,
                     Hi hi_of) {
  for (const Piece& p : pieces) {
    if (x >= lo_of(p) - kTolMinutes && x <= hi_of(p) + kTolMinutes) return &p;
  }
  return nullptr;
}

std::string CheckAllFp(Oracle* oracle, const Query& q,
                       const core::AllFpResult& r, double eps,
                       const std::vector<double>& samples, BandTally* band) {
  if (!r.found || !r.border.has_value()) return Fail(q, "not found");
  auto lo_of = [](const core::AllFpPiece& p) { return p.leave_lo; };
  auto hi_of = [](const core::AllFpPiece& p) { return p.leave_hi; };
  if (std::string e = CheckTiling(q, r.pieces, lo_of, hi_of); !e.empty()) {
    return e;
  }
  // Each piece's path, evaluated by the oracle, meets the border inside
  // the piece.
  std::vector<double> points = samples;
  for (const core::AllFpPiece& p : r.pieces) {
    points.push_back(0.5 * (p.leave_lo + p.leave_hi));
  }
  for (size_t i = 0; i < points.size(); ++i) {
    const double l = points[i];
    const double b = r.border->Value(l);
    if (i < samples.size()) {
      const double opt = oracle->FastestTime(q.source, q.target, l);
      const double excess = b - (opt + eps);
      const bool tallied = band != nullptr && eps > 0.0;
      if (tallied) {
        ++band->samples;
        if (excess > kTolMinutes) {
          ++band->above;
          band->max_excess_minutes = std::max(band->max_excess_minutes, excess);
        }
      }
      if (tallied && excess > kBandCapFactor * eps + kTolMinutes) {
        return Fail(q, "border " + Num(b) + " at " + Num(l) + " is " +
                           Num(excess) + " min above optimum + eps = " +
                           Num(opt + eps) + ", more than the cap");
      }
      if (b < opt - kTolMinutes || (!tallied && excess > kTolMinutes)) {
        return Fail(q, "border " + Num(b) + " at " + Num(l) +
                           " outside [optimum, optimum + eps] = [" + Num(opt) +
                           ", " + Num(opt + eps) + "]");
      }
    }
    const core::AllFpPiece* piece = PieceAt(r.pieces, l, lo_of, hi_of);
    const double path_time = oracle->PathTime(piece->path, l);
    if (path_time < 0.0 || !Near(path_time, b)) {
      return Fail(q, "piece path takes " + Num(path_time) + " at " + Num(l) +
                         ", border says " + Num(b));
    }
  }
  return "";
}

std::string CheckSingleFp(Oracle* oracle, const Query& q,
                          const core::SingleFpResult& r,
                          const std::vector<double>& samples) {
  if (!r.found) return Fail(q, "not found");
  if (!Endpoints(q, r.path)) return Fail(q, "path is not an s->t path");
  const double l = r.best_leave_time;
  if (l < q.lo - kTolMinutes || l > q.hi + kTolMinutes) {
    return Fail(q, "best leave time outside the window");
  }
  const double best = r.best_travel_minutes;
  if (!Near(oracle->PathTime(r.path, l), best) ||
      !Near(oracle->FastestTime(q.source, q.target, l), best)) {
    return Fail(q, "best travel " + Num(best) + " at " + Num(l) +
                       " is not the optimum there");
  }
  for (const double s : samples) {
    if (best > oracle->FastestTime(q.source, q.target, s) + kTolMinutes) {
      return Fail(q, "best travel " + Num(best) + " beaten at " + Num(s));
    }
  }
  return "";
}

std::string CheckAt(Oracle* oracle, const Query& q,
                    const core::TdAStarResult& r) {
  if (!r.found) return Fail(q, "not found");
  if (!Endpoints(q, r.path)) return Fail(q, "path is not an s->t path");
  const double opt = oracle->FastestTime(q.source, q.target, q.lo);
  if (!Near(r.travel_time_minutes, opt) ||
      !Near(oracle->PathTime(r.path, q.lo), opt)) {
    return Fail(q, "TD-A* " + Num(r.travel_time_minutes) + ", optimum " +
                       Num(opt));
  }
  return "";
}

std::string CheckArriveAllFp(Oracle* oracle, const Query& q,
                             const core::ReverseAllFpResult& r,
                             const std::vector<double>& samples) {
  if (!r.found || !r.border.has_value()) return Fail(q, "not found");
  auto lo_of = [](const core::ReverseAllFpPiece& p) { return p.arrive_lo; };
  auto hi_of = [](const core::ReverseAllFpPiece& p) { return p.arrive_hi; };
  if (std::string e = CheckTiling(q, r.pieces, lo_of, hi_of); !e.empty()) {
    return e;
  }
  std::vector<double> points = samples;
  for (const core::ReverseAllFpPiece& p : r.pieces) {
    points.push_back(0.5 * (p.arrive_lo + p.arrive_hi));
  }
  for (size_t i = 0; i < points.size(); ++i) {
    const double a = points[i];
    const double tt = r.border->Value(a);
    const core::ReverseAllFpPiece* piece = PieceAt(r.pieces, a, lo_of, hi_of);
    const double path_time = oracle->PathTime(piece->path, a - tt);
    if (path_time < 0.0 || !Near(path_time, tt)) {
      return Fail(q, "piece path leaving at " + Num(a - tt) + " takes " +
                         Num(path_time) + ", border says " + Num(tt));
    }
    if (i >= samples.size()) continue;
    const double opt = oracle->FastestTime(q.source, q.target, a - tt);
    if (!Near(opt, tt)) {
      return Fail(q, "leaving at " + Num(a - tt) + " the optimum is " +
                         Num(opt) + ", border says " + Num(tt));
    }
  }
  return "";
}

std::string CheckArriveSingleFp(Oracle* oracle, const Query& q,
                                const core::ReverseSingleFpResult& r) {
  if (!r.found) return Fail(q, "not found");
  if (!Endpoints(q, r.path)) return Fail(q, "path is not an s->t path");
  const double a = r.best_arrive_time;
  const double tt = r.best_travel_minutes;
  if (a < q.lo - kTolMinutes || a > q.hi + kTolMinutes ||
      !Near(r.best_leave_time, a - tt)) {
    return Fail(q, "best arrival/leave times inconsistent");
  }
  if (!Near(oracle->PathTime(r.path, a - tt), tt) ||
      !Near(oracle->FastestTime(q.source, q.target, a - tt), tt)) {
    return Fail(q, "leaving at " + Num(a - tt) + " does not take " + Num(tt));
  }
  return "";
}

}  // namespace

std::string CheckAnswer(Oracle* oracle, const Query& query,
                        const Answer& answer, double eps_minutes,
                        const std::vector<double>& samples, BandTally* band) {
  switch (query.kind) {
    case Kind::kAllFp:
      return CheckAllFp(oracle, query, answer.all, eps_minutes, samples, band);
    case Kind::kSingleFp:
      return CheckSingleFp(oracle, query, answer.single, samples);
    case Kind::kAt:
      return CheckAt(oracle, query, answer.at);
    case Kind::kArriveAllFp:
      return CheckArriveAllFp(oracle, query, answer.arrive_all, samples);
    case Kind::kArriveSingleFp:
      return CheckArriveSingleFp(oracle, query, answer.arrive_single);
  }
  return "unknown kind";
}

std::string BandVerdict(const BandTally& band) {
  if (band.above <= kBandMaxShare * static_cast<double>(band.samples)) {
    return "";
  }
  return std::to_string(band.above) + " of " + std::to_string(band.samples) +
         " sampled borders above optimum + eps, more than the " +
         Num(kBandMaxShare) + " share allowed";
}

namespace {

bool SameBorder(const std::optional<tdf::PwlFunction>& a,
                const std::optional<tdf::PwlFunction>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  const auto& pa = a->breakpoints();
  const auto& pb = b->breakpoints();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (pa[i].x != pb[i].x || pa[i].y != pb[i].y) return false;
  }
  return true;
}

template <typename Piece>
bool SamePieces(const std::vector<Piece>& a, const std::vector<Piece>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].path != b[i].path) return false;
  }
  return true;
}

}  // namespace

bool Found(const Query& query, const Answer& answer) {
  switch (query.kind) {
    case Kind::kAllFp:
      return answer.all.found && answer.all.border.has_value();
    case Kind::kSingleFp:
      return answer.single.found;
    case Kind::kAt:
      return answer.at.found;
    case Kind::kArriveAllFp:
      return answer.arrive_all.found && answer.arrive_all.border.has_value();
    case Kind::kArriveSingleFp:
      return answer.arrive_single.found;
  }
  return false;
}

bool SameAnswer(const Query& query, const Answer& a, const Answer& b) {
  switch (query.kind) {
    case Kind::kAllFp:
      return a.all.found == b.all.found &&
             SamePieces(a.all.pieces, b.all.pieces) &&
             SameBorder(a.all.border, b.all.border);
    case Kind::kSingleFp:
      return a.single.found == b.single.found &&
             a.single.path == b.single.path &&
             a.single.best_travel_minutes == b.single.best_travel_minutes;
    case Kind::kAt:
      return a.at.found == b.at.found && a.at.path == b.at.path &&
             a.at.travel_time_minutes == b.at.travel_time_minutes;
    case Kind::kArriveAllFp:
      return a.arrive_all.found == b.arrive_all.found &&
             SamePieces(a.arrive_all.pieces, b.arrive_all.pieces) &&
             SameBorder(a.arrive_all.border, b.arrive_all.border);
    case Kind::kArriveSingleFp:
      return a.arrive_single.found == b.arrive_single.found &&
             a.arrive_single.path == b.arrive_single.path &&
             a.arrive_single.best_travel_minutes ==
                 b.arrive_single.best_travel_minutes;
  }
  return false;
}

std::vector<double> SampleInstants(const Query& query, uint64_t seed,
                                   int count) {
  if (query.kind == Kind::kAt) return {query.lo};
  util::Rng rng(seed);
  std::vector<double> out = {query.lo};
  for (int i = 0; i < count; ++i) {
    out.push_back(rng.NextDouble(query.lo, query.hi));
  }
  return out;
}

}  // namespace capefp::e2e
