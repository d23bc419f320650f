#include "src/network/ttf_cache.h"

#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "src/network/accessor.h"
#include "src/network/road_network.h"
#include "src/tdf/speed_pattern.h"
#include "src/tdf/travel_time.h"

namespace capefp::network {
namespace {

using tdf::HhMm;
using tdf::kMinutesPerDay;
using tdf::MphToMpm;
using tdf::PwlFunction;

// A two-category network: one node pair joined by an edge whose pattern is
// slow in the workday morning rush and constant on non-workdays.
RoadNetwork MakeTwoCategoryNetwork() {
  std::vector<tdf::DailySpeedPattern> per_category;
  per_category.push_back(tdf::DailySpeedPattern(
      {{0.0, MphToMpm(45.0)},
       {HhMm(7, 0), MphToMpm(20.0)},
       {HhMm(10, 0), MphToMpm(45.0)}}));
  per_category.push_back(tdf::DailySpeedPattern::Constant(MphToMpm(45.0)));

  RoadNetwork net(tdf::Calendar::StandardWeek(0, 1));
  net.AddPattern(tdf::CapeCodPattern(std::move(per_category)));
  net.AddNode({0.0, 0.0});
  net.AddNode({1.0, 0.0});
  net.AddEdge(0, 1, 1.0, 0, RoadClass::kLocalOutsideCity);
  return net;
}

// Bit-for-bit equality of two functions' breakpoints.
void ExpectSameBits(const PwlFunction& a, const PwlFunction& b) {
  ASSERT_EQ(a.breakpoints().size(), b.breakpoints().size());
  for (size_t i = 0; i < a.breakpoints().size(); ++i) {
    EXPECT_EQ(a.breakpoints()[i].x, b.breakpoints()[i].x) << i;
    EXPECT_EQ(a.breakpoints()[i].y, b.breakpoints()[i].y) << i;
  }
}

// Memo lookup through the 0/kExact key the accessor uses for exact reads.
template <typename Fn>
const PwlFunction* Get(EdgeTtfCache& memo, PatternId pattern,
                       double distance, int64_t day, Fn&& derive,
                       bool* hit) {
  return memo.GetOrDerive(pattern, distance, day, /*eps=*/0.0,
                          TtfVariant::kExact, std::forward<Fn>(derive), hit);
}

TEST(EdgeTtfCacheTest, HitAndMissCounters) {
  EdgeTtfCache memo(/*capacity_entries=*/64);
  int derivations = 0;
  auto derive = [&]() {
    ++derivations;
    return PwlFunction::Constant(0.0, kMinutesPerDay, 5.0);
  };

  bool hit = true;
  const PwlFunction* first = Get(memo, /*pattern=*/0, /*distance=*/1.0,
                                 /*day=*/0, derive, &hit);
  EXPECT_FALSE(hit);
  const PwlFunction* second = Get(memo, 0, 1.0, 0, derive, &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(derivations, 1);
  EXPECT_EQ(first, second);  // Same published entry.
  EXPECT_EQ(memo.size(), 1u);

  // The accessor reports how each request was served; the search counts
  // these per query.
  const RoadNetwork net = MakeTwoCategoryNetwork();
  EdgeTtfCache accessor_memo(64);
  InMemoryAccessor accessor(&net);
  accessor.set_ttf_cache(&accessor_memo);
  PwlFunction out;
  EXPECT_EQ(accessor.EdgeTtfInto(0, 1.0, HhMm(7, 0), HhMm(8, 0), &out),
            TtfSource::kMiss);
  EXPECT_EQ(accessor.EdgeTtfInto(0, 1.0, HhMm(9, 0), HhMm(10, 0), &out),
            TtfSource::kHit);
  EXPECT_EQ(accessor.EdgeTtfInto(0, 1.0, HhMm(23, 0),
                                 kMinutesPerDay + HhMm(1, 0), &out),
            TtfSource::kBypass);
  EXPECT_EQ(accessor_memo.size(), 1u);
}

TEST(EdgeTtfCacheTest, DistinctKeysGetDistinctEntries) {
  EdgeTtfCache memo(64);
  auto derive_at = [](double value) {
    return [value]() {
      return PwlFunction::Constant(0.0, kMinutesPerDay, value);
    };
  };
  bool hit = true;
  // Different pattern, different length, different day: all distinct.
  (void)Get(memo, 0, 1.0, 0, derive_at(1.0), &hit);
  EXPECT_FALSE(hit);
  (void)Get(memo, 1, 1.0, 0, derive_at(2.0), &hit);
  EXPECT_FALSE(hit);
  (void)Get(memo, 0, 2.0, 0, derive_at(3.0), &hit);
  EXPECT_FALSE(hit);
  (void)Get(memo, 0, 1.0, 1, derive_at(4.0), &hit);
  EXPECT_FALSE(hit);
  EXPECT_EQ(memo.size(), 4u);

  // Each key returns its own memoized value.
  const PwlFunction* again = Get(memo, 0, 2.0, 0, derive_at(-1.0), &hit);
  EXPECT_TRUE(hit);
  EXPECT_DOUBLE_EQ(again->Value(0.0), 3.0);
}

// Once the entry budget is spent the memo declines new keys (without
// deriving), and the accessor serves them by on-demand derivation of the
// same full-day function — bit-identical to what a roomier memo returns,
// so answers never depend on which keys got in first.
TEST(EdgeTtfCacheTest, FullMemoServesFurtherKeysByDerivation) {
  EdgeTtfCache tiny(/*capacity_entries=*/1);
  int derivations = 0;
  auto derive = [&]() {
    ++derivations;
    return PwlFunction::Constant(0.0, kMinutesPerDay, 1.0);
  };
  bool hit = true;
  EXPECT_NE(Get(tiny, 0, 1.0, 0, derive, &hit), nullptr);
  EXPECT_EQ(Get(tiny, 1, 1.0, 0, derive, &hit), nullptr);
  EXPECT_FALSE(hit);
  EXPECT_EQ(derivations, 1);  // A declined key is never derived.
  EXPECT_EQ(tiny.size(), 1u);
  EXPECT_NE(Get(tiny, 0, 1.0, 0, derive, &hit), nullptr);  // Still held.
  EXPECT_TRUE(hit);

  const RoadNetwork net = MakeTwoCategoryNetwork();
  InMemoryAccessor full(&net);
  full.set_ttf_cache(&tiny);
  EdgeTtfCache roomy(64);
  InMemoryAccessor reference(&net);
  reference.set_ttf_cache(&roomy);
  tdf::PwlArena arena;
  const double eps = 5.0 / 60.0;
  // The tiny memo's one slot is spent on the key above, so every accessor
  // read below (a 2-mile edge) takes the on-demand path, on a workday
  // (day 0) and a weekend day (day 5), exact and ε-lower alike.
  for (const double day_lo : {0.0, 5 * kMinutesPerDay}) {
    const double lo = day_lo + HhMm(6, 45);
    const double hi = day_lo + HhMm(9, 15);
    for (int repeat = 0; repeat < 2; ++repeat) {
      PwlFunction got(&arena);
      PwlFunction want;
      EXPECT_EQ(full.EdgeTtfInto(0, 2.0, lo, hi, &got), TtfSource::kMiss);
      (void)reference.EdgeTtfInto(0, 2.0, lo, hi, &want);
      ExpectSameBits(got, want);

      PwlFunction tmp(&arena);
      PwlFunction got_lower(&arena);
      PwlFunction want_lower;
      EXPECT_EQ(full.EdgeTtfSimplifiedInto(0, 2.0, lo, hi, eps,
                                           tdf::SimplifySide::kLower, &tmp,
                                           &got_lower),
                TtfSource::kMiss);
      (void)reference.EdgeTtfSimplifiedInto(
          0, 2.0, lo, hi, eps, tdf::SimplifySide::kLower, &tmp, &want_lower);
      ExpectSameBits(got_lower, want_lower);
    }
  }
  EXPECT_EQ(tiny.size(), 1u);  // Nothing was published past the budget.
}

// Entries are never evicted, moved or replaced: a pointer handed out once
// is the pointer every later lookup of that key returns, for the memo's
// whole lifetime — including after the memo has filled up.
TEST(EdgeTtfCacheTest, ReturnedPointersStayStable) {
  constexpr int kKeys = 48;
  EdgeTtfCache memo(/*capacity_entries=*/kKeys);
  std::vector<const PwlFunction*> held;
  bool hit = true;
  for (int k = 0; k < kKeys; ++k) {
    held.push_back(Get(memo, static_cast<PatternId>(k), 1.0, 0, [k]() {
      return PwlFunction::Constant(0.0, kMinutesPerDay, 1.0 + k);
    }, &hit));
    ASSERT_NE(held.back(), nullptr);
  }
  // Full now: further keys are declined...
  EXPECT_EQ(Get(memo, kKeys, 1.0, 0, []() {
    return PwlFunction::Constant(0.0, kMinutesPerDay, -1.0);
  }, &hit), nullptr);
  // ...and every held key still resolves to its original entry.
  for (int k = 0; k < kKeys; ++k) {
    const PwlFunction* again =
        Get(memo, static_cast<PatternId>(k), 1.0, 0, []() {
          return PwlFunction::Constant(0.0, kMinutesPerDay, -1.0);
        }, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(again, held[static_cast<size_t>(k)]);
    EXPECT_DOUBLE_EQ(again->Value(100.0), 1.0 + k);
  }
  EXPECT_EQ(memo.size(), static_cast<size_t>(kKeys));
}

// The accessor-level contract the profile search relies on: cached lookups
// of the same edge on a workday vs a weekend day must produce the two
// different day-category functions, each matching direct derivation.
TEST(EdgeTtfAccessorTest, DayCategorySeparation) {
  const RoadNetwork net = MakeTwoCategoryNetwork();
  InMemoryAccessor accessor(&net);
  EdgeTtfCache cache(64);
  accessor.set_ttf_cache(&cache);

  // Day 0 is a Monday (category 0), day 5 a Saturday (category 1).
  const double monday_lo = HhMm(7, 30);
  const double monday_hi = HhMm(9, 30);
  const double saturday_lo = 5 * kMinutesPerDay + HhMm(7, 30);
  const double saturday_hi = 5 * kMinutesPerDay + HhMm(9, 30);

  const PwlFunction monday =
      accessor.EdgeTtf(0, 1.0, monday_lo, monday_hi);
  const PwlFunction saturday =
      accessor.EdgeTtf(0, 1.0, saturday_lo, saturday_hi);
  EXPECT_EQ(cache.size(), 2u);  // One full-day entry per day index.

  // Rush hour at 20 mph vs weekend 45 mph: clearly different functions.
  EXPECT_GT(monday.Value(HhMm(8, 0)), 2.5);
  EXPECT_LT(saturday.Value(5 * kMinutesPerDay + HhMm(8, 0)), 1.5);

  // Both match uncached derivation over the same interval.
  const PwlFunction monday_direct = tdf::EdgeTravelTimeFunction(
      accessor.SpeedView(0), 1.0, monday_lo, monday_hi);
  const PwlFunction saturday_direct = tdf::EdgeTravelTimeFunction(
      accessor.SpeedView(0), 1.0, saturday_lo, saturday_hi);
  EXPECT_TRUE(PwlFunction::ApproxEqual(monday, monday_direct, 1e-9));
  EXPECT_TRUE(PwlFunction::ApproxEqual(saturday, saturday_direct, 1e-9));

  // Served from the memo on repeat.
  PwlFunction again;
  EXPECT_EQ(accessor.EdgeTtfInto(0, 1.0, monday_lo, monday_hi, &again),
            TtfSource::kHit);
  EXPECT_EQ(accessor.EdgeTtfInto(0, 1.0, saturday_lo, saturday_hi, &again),
            TtfSource::kHit);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(EdgeTtfAccessorTest, MidnightSpanningIntervalBypassesCache) {
  const RoadNetwork net = MakeTwoCategoryNetwork();
  InMemoryAccessor accessor(&net);
  EdgeTtfCache cache(64);
  accessor.set_ttf_cache(&cache);

  const double lo = HhMm(23, 0);
  const double hi = kMinutesPerDay + HhMm(1, 0);  // Crosses midnight.
  PwlFunction crossing;
  EXPECT_EQ(accessor.EdgeTtfInto(0, 1.0, lo, hi, &crossing),
            TtfSource::kBypass);
  EXPECT_EQ(cache.size(), 0u);

  const PwlFunction direct = tdf::EdgeTravelTimeFunction(
      accessor.SpeedView(0), 1.0, lo, hi);
  EXPECT_TRUE(PwlFunction::ApproxEqual(crossing, direct, 1e-9));
}

// ε-keying regression: interleaved exact and ε-simplified queries against
// the same edge must never return each other's entries. Before ε (and the
// lower/upper variant) joined the key, an ε>0 worker could poison the
// memo for a concurrent ε=0 worker and silently break exactness.
TEST(EdgeTtfCacheTest, EpsAndVariantArePartOfTheKey) {
  EdgeTtfCache cache(/*capacity_entries=*/64);
  auto derive_at = [](double v) {
    return [v]() { return PwlFunction::Constant(0.0, kMinutesPerDay, v); };
  };

  // Same (pattern, distance, day); four distinct (eps, variant) bindings.
  bool hit = true;
  auto get = [&](double eps, TtfVariant variant, double v) {
    return cache.GetOrDerive(0, 1.0, 0, eps, variant, derive_at(v), &hit);
  };
  (void)get(/*eps=*/0.0, TtfVariant::kExact, 1.0);
  EXPECT_FALSE(hit);
  (void)get(/*eps=*/5.0, TtfVariant::kLower, 2.0);
  EXPECT_FALSE(hit);
  (void)get(/*eps=*/5.0, TtfVariant::kUpper, 3.0);
  EXPECT_FALSE(hit);
  (void)get(/*eps=*/30.0, TtfVariant::kLower, 4.0);
  EXPECT_FALSE(hit);
  EXPECT_EQ(cache.size(), 4u);

  // Interleaved re-reads hit their own entry, never a neighbor's.
  EXPECT_DOUBLE_EQ(get(5.0, TtfVariant::kLower, -1.0)->Value(0.0), 2.0);
  EXPECT_TRUE(hit);
  EXPECT_DOUBLE_EQ(get(0.0, TtfVariant::kExact, -1.0)->Value(0.0), 1.0);
  EXPECT_TRUE(hit);
  EXPECT_DOUBLE_EQ(get(30.0, TtfVariant::kLower, -1.0)->Value(0.0), 4.0);
  EXPECT_TRUE(hit);
  EXPECT_DOUBLE_EQ(get(5.0, TtfVariant::kUpper, -1.0)->Value(0.0), 3.0);
  EXPECT_TRUE(hit);
  EXPECT_EQ(cache.size(), 4u);
}

// The accessor-level version of the same contract: ε-simplified reads and
// exact reads of one edge coexist, each self-consistent, and the
// simplified function brackets the exact one from below within ε.
TEST(EdgeTtfAccessorTest, SimplifiedReadsDoNotContaminateExactReads) {
  const RoadNetwork net = MakeTwoCategoryNetwork();
  InMemoryAccessor accessor(&net);
  EdgeTtfCache cache(64);
  accessor.set_ttf_cache(&cache);

  const double lo = HhMm(6, 30);
  const double hi = HhMm(10, 30);
  const double eps = 5.0 / 60.0;  // 5 seconds, in minutes.

  const PwlFunction exact_before = accessor.EdgeTtf(0, 1.0, lo, hi);

  tdf::PwlFunction tmp;
  tdf::PwlFunction lower;
  accessor.EdgeTtfSimplifiedInto(0, 1.0, lo, hi, eps,
                                 tdf::SimplifySide::kLower, &tmp, &lower);
  tdf::PwlFunction upper;
  accessor.EdgeTtfSimplifiedInto(0, 1.0, lo, hi, eps,
                                 tdf::SimplifySide::kUpper, &tmp, &upper);

  // Exact read after the simplified ones must be bit-identical to the one
  // before them — the ε entries live under different keys.
  const PwlFunction exact_after = accessor.EdgeTtf(0, 1.0, lo, hi);
  EXPECT_TRUE(PwlFunction::ApproxEqual(exact_after, exact_before, 0.0));
  EXPECT_EQ(cache.size(), 3u);  // exact + (5s, lower) + (5s, upper).

  // One-sided brackets against the exact function on a dense grid.
  for (int i = 0; i <= 200; ++i) {
    const double x = lo + (hi - lo) * i / 200.0;
    const double fx = exact_before.Value(x);
    EXPECT_LE(lower.Value(x), fx + 1e-9) << "x=" << x;
    EXPECT_GE(lower.Value(x), fx - eps - 1e-9) << "x=" << x;
    EXPECT_GE(upper.Value(x), fx - 1e-9) << "x=" << x;
    EXPECT_LE(upper.Value(x), fx + eps + 1e-9) << "x=" << x;
  }
  EXPECT_LE(lower.breakpoints().size(), exact_before.breakpoints().size());
}

TEST(EdgeTtfAccessorTest, NoCacheAttachedDerivesDirectly) {
  const RoadNetwork net = MakeTwoCategoryNetwork();
  InMemoryAccessor accessor(&net);
  ASSERT_EQ(accessor.ttf_cache(), nullptr);

  PwlFunction f;
  EXPECT_EQ(accessor.EdgeTtfInto(0, 1.0, HhMm(8, 0), HhMm(9, 0), &f),
            TtfSource::kUncached);
  const PwlFunction direct = tdf::EdgeTravelTimeFunction(
      accessor.SpeedView(0), 1.0, HhMm(8, 0), HhMm(9, 0));
  EXPECT_TRUE(PwlFunction::ApproxEqual(f, direct, 1e-12));
}

}  // namespace
}  // namespace capefp::network
