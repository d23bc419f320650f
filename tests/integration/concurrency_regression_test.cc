// Cross-component concurrency regression test (TSan tier).
//
// Exercises, at runtime, the shared-state interactions of a query batch:
//   * The lock-free EdgeTtfCache memo — worker threads race to insert the
//     same keys (publish by compare-and-swap, losers free their copy)
//     while a snapshotter thread reads the memo's size through a callback
//     metric.
//   * MetricsRegistry::Snapshot() invokes callback metrics while holding
//     the registry mutex; those callbacks take component stats locks
//     (pool, pager), pinning the registry -> component-stats order as
//     deadlock-free.
//   * BufferPool::Acquire() faults pages while holding the pool lock, the
//     one declared cross-component order (pool before pager).
//
// The test has no timing assertions; its value is running the real lock
// graph under ThreadSanitizer (tools/run_checks.sh tsan), where any data
// race or lock inversion the annotations failed to rule out reports.
#include <array>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/network/ttf_cache.h"
#include "src/obs/metrics.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/pager.h"
#include "src/tdf/pwl_function.h"
#include "src/tdf/speed_pattern.h"
#include "tests/testing/temp_path.h"

namespace capefp {
namespace {

constexpr int kWorkers = 4;
constexpr int kIterations = 400;

constexpr int kKeys = 64;

TEST(ConcurrencyRegressionTest, CacheMetricsAndPoolUnderContention) {
  // Room for every key: the race under test is publication, not the
  // entry budget (in-flight losing copies briefly count against it).
  network::EdgeTtfCache cache(/*capacity_entries=*/2 * kKeys);

  const std::string path =
      capefp::testing::UniqueTempPath("concurrency_regression.db");
  auto pager_or = storage::Pager::Create(path, 256);
  ASSERT_TRUE(pager_or.ok());
  std::unique_ptr<storage::Pager> pager = std::move(*pager_or);
  storage::BufferPool pool(pager.get(), /*capacity_frames=*/4);

  // Seed more pages than frames so concurrent Acquire()s fault and evict,
  // repeatedly taking the pool lock and then the pager lock underneath it.
  std::vector<storage::PageId> pages;
  for (int i = 0; i < 16; ++i) {
    auto handle_or = pool.AllocateAndAcquire();
    ASSERT_TRUE(handle_or.ok());
    handle_or->mutable_data()[0] = static_cast<char>('a' + i % 26);
    pages.push_back(handle_or->page_id());
  }

  obs::MetricsRegistry registry;
  registry.AddCallbackGauge("test.cache.entries", [&cache] {
    return static_cast<double>(cache.size());
  });
  pool.RegisterMetrics(&registry, "test.pool");
  pager->RegisterMetrics(&registry, "test.pager");

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> derivations{0};
  std::atomic<int> ready{0};
  // seen[w][k]: the entry worker w got for key k.
  std::vector<std::array<const tdf::PwlFunction*, kKeys>> seen(kWorkers);

  std::vector<std::thread> threads;
  // Memo workers: all walk the same keys in the same order from a common
  // start, so first lookups of a key race to derive and publish it.
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&cache, &derivations, &ready, &seen, w] {
      // Start together (and after the snapshotter's first poll).
      ready.fetch_add(1);
      while (ready.load() < kWorkers + 1) {
      }
      for (int i = 0; i < kIterations; ++i) {
        const int k = i % kKeys;
        bool hit = false;
        const tdf::PwlFunction* fn = cache.GetOrDerive(
            /*pattern=*/k % 16, /*distance_miles=*/1.0 + k / 16,
            /*day=*/0, /*eps=*/0.0, network::TtfVariant::kExact,
            [&derivations, k] {
              derivations.fetch_add(1);
              return tdf::PwlFunction::Constant(0.0, tdf::kMinutesPerDay,
                                                1.0 + k);
            },
            &hit);
        ASSERT_NE(fn, nullptr);
        ASSERT_EQ(fn->Value(0.0), 1.0 + k);
        if (i < kKeys) {
          seen[static_cast<size_t>(w)][static_cast<size_t>(k)] = fn;
        } else {
          // Entries are never replaced: a key keeps its first pointer.
          ASSERT_TRUE(hit);
          ASSERT_EQ(fn, seen[static_cast<size_t>(w)][static_cast<size_t>(k)]);
        }
      }
    });
  }
  // Pool workers: Acquire faults under the pool lock, which takes the
  // pager lock beneath it — the annotated pool -> pager order, exercised
  // concurrently with the snapshotter reading both components' stats.
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&pool, &pages, w] {
      for (int i = 0; i < kIterations; ++i) {
        auto handle_or = pool.Acquire(pages[(w * 7 + i) % pages.size()]);
        ASSERT_TRUE(handle_or.ok());
        ASSERT_GE(handle_or->data()[0], 'a');
      }
    });
  }
  // Snapshotter: polls every callback metric (memo size, pool stats, pager
  // stats) under the registry mutex until workers finish. The memo
  // workers wait for its first snapshot, so the polling overlaps them.
  threads.emplace_back([&registry, &stop, &ready] {
    uint64_t snapshots = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const obs::MetricsSnapshot snap = registry.Snapshot();
      if (snapshots++ == 0) ready.fetch_add(1);
      ASSERT_LE(snap.gauge("test.cache.entries"), 2.0 * kKeys);
      ASSERT_TRUE(snap.counters.count("test.pool.hits"));
    }
    ASSERT_GT(snapshots, 0u);
  });

  for (size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  stop.store(true, std::memory_order_release);
  threads.back().join();

  // Exactly one entry was published per key, every worker read that one
  // entry, and at least one derivation ran per key (racing losers derive
  // too, then free their copy).
  EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
  for (size_t k = 0; k < kKeys; ++k) {
    for (size_t w = 1; w < kWorkers; ++w) {
      EXPECT_EQ(seen[w][k], seen[0][k]) << "key " << k << " worker " << w;
    }
  }
  EXPECT_GE(derivations.load(), uint64_t{kKeys});

  const obs::MetricsSnapshot final_snap = registry.Snapshot();
  EXPECT_EQ(final_snap.gauge("test.cache.entries"), double{kKeys});
  // Every worker Acquire() is either a hit or a fault (the initial
  // AllocateAndAcquire seeds count as allocations, not lookups).
  EXPECT_EQ(final_snap.counters.at("test.pool.hits") +
                final_snap.counters.at("test.pool.faults"),
            uint64_t{2} * kIterations);

  ASSERT_TRUE(pool.FlushAll().ok());
  pager.reset();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace capefp
