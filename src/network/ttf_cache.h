// Insert-only, lock-free memo of derived edge travel-time functions.
//
// Every ProfileSearch expansion needs the edge's piecewise-linear
// travel-time function τ(l) over the arrival interval of the path being
// extended. Deriving τ from the edge's CapeCod speed pattern (§4.4 of the
// paper) walks the pattern's speed boundaries and is the single most
// repeated computation of a query batch: the same edge is re-derived by
// every label routed through it, in every query of the batch.
//
// The memo holds one *full-day* function per (pattern, distance, day)
// key — the accessor's EdgeTtf() answers any sub-interval of that day by
// restriction, so queries with different (but same-day) leaving intervals
// share entries. The day index pins the day category (and the category of
// the following day, which a traversal crossing midnight reads), so
// workday and non-workday lookups of the same edge are distinct entries and
// never alias. The derivation must be a pure function of the key, which
// makes results independent of memo state — a batch run and a sequential
// run produce bit-identical answers.
//
// Thread safety: lock-free. The table is open addressing over
// std::atomic<Entry*> slots, sized to at least twice the entry budget. A
// slot goes from null to an entry exactly once and never changes again,
// so a hit is one hash probe plus acquire loads: no lock, no refcount and
// no write to shared memory. A miss derives outside any lock and publishes
// with a compare-and-swap; when two threads race on one key both derive,
// the loser frees its copy and returns the winner's (the copies are
// bit-identical, so nothing observable depends on who won). Entries live
// until the memo dies, so returned pointers stay valid for its lifetime.
// Once the entry budget is spent the memo declines new keys and callers
// derive on demand. The memo keeps no hit/miss counters: the accessor
// reports how each request was served (TtfSource) and the search counts
// that in its own per-query stats, so the hit path touches no shared
// cache line.
#ifndef CAPEFP_NETWORK_TTF_CACHE_H_
#define CAPEFP_NETWORK_TTF_CACHE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "src/network/road_network.h"
#include "src/tdf/pwl_function.h"

namespace capefp::network {

// Which derived form of the full-day function an entry holds. kExact is
// the unsimplified derivation; kLower/kUpper are the one-sided ε
// simplifications (tdf::SimplifySide) used by the engine's simplify_eps
// mode. The variant — together with the ε value — is part of the memo
// key, so interleaved ε=0 and ε>0 queries (or different ε values) on the
// same edge can never observe each other's entries.
enum class TtfVariant : uint8_t {
  kExact = 0,
  kLower = 1,
  kUpper = 2,
};

// How one edge-TTF request was served (NetworkAccessor::EdgeTtf*Into).
enum class TtfSource : uint8_t {
  kUncached,  // No memo attached: derived over the requested interval.
  kHit,       // Cut from a memoized full-day function.
  kMiss,      // Full-day function derived (published unless memo full).
  kBypass,    // The interval spans midnight, so no day entry covers it.
};

class EdgeTtfCache {
 public:
  // At most `capacity_entries` (>= 1) functions are ever held.
  explicit EdgeTtfCache(size_t capacity_entries);
  ~EdgeTtfCache();

  EdgeTtfCache(const EdgeTtfCache&) = delete;
  EdgeTtfCache& operator=(const EdgeTtfCache&) = delete;

  // The memoized full-day function for the key, deriving and publishing
  // it with `derive` (returning a tdf::PwlFunction not bound to any arena)
  // on a miss. `derive` runs outside any lock, possibly on several threads
  // at once for one key, and MUST be a pure function of the key (same key
  // -> bit-identical function). Exact entries use (eps 0, kExact); any
  // future transform parameter must be folded into the key the same way.
  // `*hit` tells whether the key was already present. Returns null —
  // without calling `derive` — when the key is absent and the memo is
  // full; the caller then derives the same function on demand.
  template <typename Fn>
  const tdf::PwlFunction* GetOrDerive(PatternId pattern,
                                      double distance_miles, int64_t day,
                                      double eps, TtfVariant variant,
                                      Fn&& derive, bool* hit) {
    const Key key = MakeKey(pattern, distance_miles, day, eps, variant);
    size_t slot = SlotOf(key);
    for (;; slot = (slot + 1) & mask_) {
      const Entry* entry = slots_[slot].load(std::memory_order_acquire);
      if (entry == nullptr) break;
      if (entry->key == key) {
        *hit = true;
        return &entry->fn;
      }
    }
    *hit = false;
    // Reserve a place in the entry budget before deriving; the table has
    // more slots than the budget, so the probe below always finds a null.
    if (size_.fetch_add(1, std::memory_order_relaxed) >= capacity_) {
      size_.fetch_sub(1, std::memory_order_relaxed);
      return nullptr;
    }
    auto fresh = std::make_unique<Entry>(key, std::forward<Fn>(derive)());
    for (;; slot = (slot + 1) & mask_) {
      Entry* seen = nullptr;
      if (slots_[slot].compare_exchange_strong(seen, fresh.get(),
                                               std::memory_order_acq_rel,
                                               std::memory_order_acquire)) {
        return &fresh.release()->fn;
      }
      if (seen->key == key) {  // Lost the race: read the winner's copy.
        size_.fetch_sub(1, std::memory_order_relaxed);
        return &seen->fn;
      }
    }
  }

  // Entries held (plus any whose derivation is in flight).
  size_t size() const { return size_.load(std::memory_order_relaxed); }

 private:
  struct Key {
    PatternId pattern = 0;
    int64_t day = 0;
    // Bit representation of the edge length: exact keying without
    // tolerance games (equal edges have bit-equal stored distances).
    uint64_t distance_bits = 0;
    // Bit representation of the simplification ε (0.0 for exact entries)
    // plus the variant tag — transform parameters are key material, never
    // an out-of-band attribute, so mixed-ε workloads cannot alias.
    uint64_t eps_bits = 0;
    TtfVariant variant = TtfVariant::kExact;

    bool operator==(const Key& o) const {
      return pattern == o.pattern && day == o.day &&
             distance_bits == o.distance_bits && eps_bits == o.eps_bits &&
             variant == o.variant;
    }
  };

  struct Entry {
    Entry(const Key& k, tdf::PwlFunction f) : key(k), fn(std::move(f)) {}
    const Key key;
    const tdf::PwlFunction fn;
  };

  static Key MakeKey(PatternId pattern, double distance_miles, int64_t day,
                     double eps, TtfVariant variant) {
    Key key;
    key.pattern = pattern;
    key.day = day;
    std::memcpy(&key.distance_bits, &distance_miles,
                sizeof(key.distance_bits));
    std::memcpy(&key.eps_bits, &eps, sizeof(key.eps_bits));
    key.variant = variant;
    return key;
  }

  size_t SlotOf(const Key& key) const;

  const size_t capacity_;
  size_t mask_ = 0;  // Slot count − 1 (the slot count is a power of two).
  std::unique_ptr<std::atomic<Entry*>[]> slots_;
  std::atomic<size_t> size_{0};
};

}  // namespace capefp::network

#endif  // CAPEFP_NETWORK_TTF_CACHE_H_
