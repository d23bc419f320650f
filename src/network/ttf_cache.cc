#include "src/network/ttf_cache.h"

#include <bit>

#include "src/util/check.h"

namespace capefp::network {

EdgeTtfCache::EdgeTtfCache(size_t capacity_entries)
    : capacity_(capacity_entries) {
  CAPEFP_CHECK_GE(capacity_entries, 1u);
  // At least twice the budget keeps probes short and guarantees a null
  // slot on every probe sequence, so probing always terminates.
  const size_t slots = std::bit_ceil(2 * capacity_entries);
  mask_ = slots - 1;
  slots_ = std::make_unique<std::atomic<Entry*>[]>(slots);  // All null.
}

EdgeTtfCache::~EdgeTtfCache() {
  for (size_t i = 0; i <= mask_; ++i) {
    delete slots_[i].load(std::memory_order_relaxed);
  }
}

size_t EdgeTtfCache::SlotOf(const Key& k) const {
  uint64_t h = static_cast<uint64_t>(k.pattern) * 0x9e3779b97f4a7c15ull;
  h ^= static_cast<uint64_t>(k.day) + 0x9e3779b97f4a7c15ull + (h << 6) +
       (h >> 2);
  h ^= k.distance_bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= k.eps_bits + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  h ^= static_cast<uint64_t>(k.variant) + 0x9e3779b97f4a7c15ull + (h << 6) +
       (h >> 2);
  // Murmur3 finalizer: the slot index takes the low bits, which the
  // combine above leaves poorly mixed.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return static_cast<size_t>(h) & mask_;
}

}  // namespace capefp::network
