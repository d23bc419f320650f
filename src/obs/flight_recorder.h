// Always-on flight recorder: per-thread lock-free event journals that can
// reconstruct the engine's last seconds of activity after the fact.
//
// The paper's evaluation (§6) is about where query time goes; a server
// answering millions of queries additionally needs to explain its p999
// *after it happened*, without re-running the query with tracing attached.
// The flight recorder is that substrate: every query unconditionally writes
// a handful of fixed-size binary events (query/span begin+end, cache and
// page-fault deltas, arena spills, corridor phase transitions, periodic
// heap push/pop progress) into a per-worker SPSC ring. Rings overwrite
// oldest; a snapshotter can merge them into a time-ordered journal at any
// moment, and a slow-query policy (FastestPathEngine) promotes the ring
// slice of a tail-latency outlier into a retained SlowQueryRecord before
// the ring rolls over it.
//
// Cost model (the ≤2% observability contract, DESIGN.md §7, must hold with
// the recorder always on):
//   * Emit() is wait-free: one coarse clock read, four release word-stores
//     into the caller's own ring, one release head store. No locks, no
//     allocation, no branches on shared state.
//   * Queries emit O(1) events (~a dozen), not O(expansions): inner-loop
//     work is summarized by periodic progress events and per-phase counter
//     deltas, never per-edge events.
//   * Snapshot/drain cost is paid by the reader, never the hot path.
//
// Ring memory model (see DESIGN.md §10 for the proof sketch): each slot is
// four atomic words. The producer stores the words with release order,
// then publishes head (release). A concurrent reader acquires head, copies
// slots with acquire loads, re-acquires head, and discards any event whose
// sequence could have been rewritten during the copy (seq + capacity <=
// head_after). Acquire loads on the words make "reader saw a new word"
// imply "reader sees the new head", so every surviving event is untorn.
#ifndef CAPEFP_OBS_FLIGHT_RECORDER_H_
#define CAPEFP_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace capefp::obs {

// The one sanctioned hot-path time source. Everything the recorder (and
// the src/core search loops — enforced by capefp_lint's `clock` rule)
// stamps goes through this shim, so a cheaper coarse clock (TSC,
// CLOCK_MONOTONIC_COARSE) can be swapped in at one place.
struct FlightClock {
  // Monotonic nanoseconds; comparable across threads of one process.
  static uint64_t NowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }
  static double NanosToMs(uint64_t nanos) {
    return static_cast<double>(nanos) * 1e-6;
  }
};

// Event kinds. The payload meaning of `code`/`a`/`b` per kind is the event
// schema (DESIGN.md §10); FormatFlightEvent renders it for humans.
enum class FlightEventType : uint16_t {
  kInvalid = 0,
  kQueryBegin = 1,      // a = source node, b = target node
  kQueryEnd = 2,        // a = latency in µs (saturated), b = expansions
  kSpanBegin = 3,       // code = FlightSpan
  kSpanEnd = 4,         // code = FlightSpan
  kCacheDelta = 5,      // a = edge-TTF memo hits, b = misses (this query)
  kPageDelta = 6,       // a = buffer-pool hits, b = page faults (this phase)
  kArenaDelta = 7,      // a = arena spills (this query), b = high-water bytes
  kCorridorPhase = 8,   // code = pass number 1..4, a = heap pops, b = marks
  kSearchProgress = 9,  // a = heap size now, b = expansions so far
  kSearchCounts = 10,   // a = pushes total, b = expansions (pops) total
};

// Span identities, fixed at compile time so events never carry strings.
enum class FlightSpan : uint16_t {
  kNone = 0,
  kQueryAllFp = 1,
  kEstimator = 2,
  kCorridor = 3,
  kSearch = 4,
  kTdAstar = 5,
};

const char* FlightEventTypeName(FlightEventType type);
const char* FlightSpanName(FlightSpan span);

// One 32-byte journal entry. Stored in rings as four atomic words; this is
// the plain decoded form used everywhere else.
struct FlightEvent {
  uint64_t ticks = 0;     // FlightClock::NowNanos() at emission.
  uint64_t query_id = 0;  // Engine-assigned, monotone from 1; 0 = none.
  FlightEventType type = FlightEventType::kInvalid;
  uint16_t code = 0;  // FlightSpan / corridor pass number.
  uint32_t a = 0;
  uint64_t b = 0;

  // Word packing for ring storage and the binary journal.
  static constexpr size_t kWords = 4;
  void Pack(uint64_t words[kWords]) const;
  static FlightEvent Unpack(const uint64_t words[kWords]);
};

// "ts=+12.345ms qid=7 span_begin search" — one line, no trailing newline.
// `epoch_ticks` is subtracted so timestamps read as offsets.
std::string FormatFlightEvent(const FlightEvent& event, uint64_t epoch_ticks);

// Single-producer single-consumer overwrite-oldest event journal.
// Append() must only ever be called by one thread at a time (the ring's
// owner — enforced by FlightRecorder's acquire/release discipline);
// Snapshot() is safe from any thread concurrently with Append().
class FlightRing {
 public:
  // `capacity` is rounded up to a power of two, minimum 64 events.
  explicit FlightRing(size_t capacity);

  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  size_t capacity() const { return capacity_; }
  // Total events ever appended (monotone; events below head - capacity
  // have been overwritten).
  uint64_t head() const { return head_.load(std::memory_order_acquire); }

  // Wait-free; overwrites the oldest event when full.
  void Append(const FlightEvent& event);

  // Appends every event still provably untorn to `out`, oldest first.
  // Returns the sequence number of the first event appended (== the head
  // value afterwards when the ring produced nothing). Never blocks the
  // producer; events overwritten mid-copy are silently dropped (their
  // replacements appear in the next snapshot).
  uint64_t Snapshot(std::vector<FlightEvent>* out) const;

 private:
  struct Slot {
    std::atomic<uint64_t> words[FlightEvent::kWords];
  };

  size_t capacity_;  // Power of two.
  uint64_t mask_;
  std::unique_ptr<Slot[]> slots_;
  // Next sequence number to write. Producer-owned; readers acquire it.
  std::atomic<uint64_t> head_{0};
};

// A producer handle on one ring: the only way to write events. Strictly
// single-threaded (hand one to each RunBatch worker); obtained from
// FlightRecorder::AcquireWriter and returned with ReleaseWriter so a later
// worker can reuse the ring without losing its history.
class FlightWriter {
 public:
  // The query id stamped on subsequent events (0 = unattributed).
  void set_query_id(uint64_t query_id) { query_id_ = query_id; }
  uint64_t query_id() const { return query_id_; }

  void Emit(FlightEventType type, uint16_t code = 0, uint32_t a = 0,
            uint64_t b = 0) {
    EmitAt(FlightClock::NowNanos(), type, code, a, b);
  }
  // Stamps a caller-supplied tick instead of reading the clock: the
  // end-of-query burst (arena delta, search counts, span end, query end)
  // shares one NowNanos() to stay inside the always-on overhead budget.
  void EmitAt(uint64_t ticks, FlightEventType type, uint16_t code = 0,
              uint32_t a = 0, uint64_t b = 0) {
    FlightEvent event;
    event.ticks = ticks;
    event.query_id = query_id_;
    event.type = type;
    event.code = code;
    event.a = a;
    event.b = b;
    ring_.Append(event);
  }
  void EmitSpanBegin(FlightSpan span) {
    Emit(FlightEventType::kSpanBegin, static_cast<uint16_t>(span));
  }
  void EmitSpanEnd(FlightSpan span, uint32_t a = 0, uint64_t b = 0) {
    Emit(FlightEventType::kSpanEnd, static_cast<uint16_t>(span), a, b);
  }

  // The ring slice belonging to `query_id`, oldest first (the producer
  // reading its own ring races with nobody). `truncated`, when non-null,
  // is set when the query's kQueryBegin has already been overwritten — the
  // query outlived its ring, so the slice is missing its head.
  std::vector<FlightEvent> ExtractQuery(uint64_t query_id,
                                        bool* truncated = nullptr) const;

  const FlightRing& ring() const { return ring_; }

 private:
  friend class FlightRecorder;
  explicit FlightWriter(size_t ring_capacity) : ring_(ring_capacity) {}

  FlightRing ring_;
  uint64_t query_id_ = 0;
  bool in_use_ = false;  // Guarded by the recorder's mutex.
};

// A tail-latency outlier promoted out of the ring before it rolls over:
// the query identity, the captured event slice, and attribution totals
// folded out of the delta events.
struct SlowQueryRecord {
  uint64_t query_id = 0;
  int32_t source = 0;
  int32_t target = 0;
  double leave_lo = 0.0;
  double leave_hi = 0.0;
  double latency_ms = 0.0;
  double threshold_ms = 0.0;  // The threshold it exceeded at capture time.
  bool truncated = false;     // Ring rolled over mid-query; slice is partial.
  std::vector<FlightEvent> events;

  // Attribution summed from the slice's delta events.
  struct Attribution {
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t page_hits = 0;
    uint64_t page_faults = 0;
    uint64_t arena_spills = 0;
    uint64_t pushes = 0;
    uint64_t expansions = 0;
  };
  Attribution Attribute() const;

  // Indented span tree reconstructed from the slice's span begin/end
  // events, with per-span durations and the attribution lines — the
  // after-the-fact equivalent of obs::Trace::ToText().
  std::string FormatSpanTree() const;
};

// Everything the recorder knew at one instant: the merged, time-ordered
// union of every ring plus the retained slow queries. Plain data; also the
// in-memory form of the binary journal (Save/Load below).
struct FlightJournal {
  // Min ticks across events at snapshot time (0 when empty); timestamps
  // render relative to this.
  uint64_t epoch_ticks = 0;
  std::vector<FlightEvent> events;  // Sorted by (ticks, query_id).
  std::vector<SlowQueryRecord> slow_queries;

  // Events of `query_id`, in order. Prefers the retained slow record's
  // slice (it survives ring wrap); falls back to filtering `events`.
  std::vector<FlightEvent> EventsFor(uint64_t query_id) const;
  const SlowQueryRecord* SlowRecordFor(uint64_t query_id) const;
};

// Rolling tail-latency threshold: slow means "worse than the latency
// histogram's p99 × factor" (clamped below by floor_ms), recomputed every
// refresh_every observations so the hot path pays one relaxed load + one
// compare. Quantiles are bucket-interpolated (HistogramSnapshot::
// Percentile), so the threshold inherits that estimator's bias: at most
// one bucket width of error, clamped to the last finite bound.
class SlowQueryTracker {
 public:
  struct Options {
    double factor = 4.0;          // threshold = max(floor, p99 * factor).
    double floor_ms = 1.0;        // Never capture below this.
    uint64_t min_queries = 64;    // Warmup before any capture.
    uint64_t refresh_every = 32;  // Threshold recompute cadence.
  };

  // `latency` must outlive the tracker and is read via Snapshot() on the
  // refresh cadence only.
  SlowQueryTracker(const Histogram* latency, const Options& options);

  // Records one observation and answers whether it should be captured.
  // Thread-safe; wait-free off the refresh cadence.
  bool ShouldCapture(double latency_ms);

  // Current threshold (+inf during warmup).
  double threshold_ms() const {
    return std::bit_cast<double>(
        threshold_bits_.load(std::memory_order_relaxed));
  }

 private:
  const Histogram* latency_;
  Options options_;
  std::atomic<uint64_t> observed_{0};
  std::atomic<uint64_t> threshold_bits_;
  // Serializes refreshes so concurrent workers don't all snapshot.
  util::Mutex refresh_mu_;
};

// Owns the rings, the retained slow queries, and the journal
// serialization. One per engine; always on unless the engine was created
// with the recorder disabled.
class FlightRecorder {
 public:
  struct Options {
    // Events per ring. At ~12 events/query a 4096-event ring holds the
    // last ~340 queries per worker.
    size_t ring_capacity = 4096;
    // Bounded retention of SlowQueryRecords (oldest evicted, counted as
    // dropped).
    size_t max_slow_queries = 32;
  };

  struct Stats {
    uint64_t slow_captured = 0;  // RetainSlowQuery calls.
    uint64_t slow_dropped = 0;   // Records evicted by the retention bound.
    uint64_t slow_retained = 0;  // Currently held.
    uint64_t rings = 0;          // Rings ever created.
  };

  FlightRecorder() : FlightRecorder(Options()) {}
  explicit FlightRecorder(const Options& options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Hands out an idle ring (creating one if none is free). The caller's
  // thread becomes the ring's single producer until ReleaseWriter. Rings
  // are never destroyed before the recorder, so snapshots keep seeing the
  // history of released writers.
  FlightWriter* AcquireWriter() CAPEFP_EXCLUDES(mu_);
  void ReleaseWriter(FlightWriter* writer) CAPEFP_EXCLUDES(mu_);

  // Merged time-ordered view of every ring plus the retained slow
  // queries. Safe concurrently with writers (lock-free per ring; the
  // recorder mutex only pins the ring registry and slow-query list).
  FlightJournal Snapshot() const CAPEFP_EXCLUDES(mu_);

  // Bounded slow-query retention.
  void RetainSlowQuery(SlowQueryRecord record) CAPEFP_EXCLUDES(mu_);
  std::vector<SlowQueryRecord> slow_queries() const CAPEFP_EXCLUDES(mu_);

  Stats stats() const CAPEFP_EXCLUDES(mu_);
  const Options& options() const { return options_; }

  // Binary journal ("CFJ1" | u32 version | u32 crc32c(payload) |
  // u64 payload_size | payload — the CFH1 idiom), so a live process's (or,
  // via a crash handler, a dead one's) last seconds are inspectable
  // offline with `capefp_cli flightrec`.
  util::Status SaveJournal(const std::string& path) const
      CAPEFP_EXCLUDES(mu_);
  static util::StatusOr<FlightJournal> LoadJournal(const std::string& path);
  static util::Status SaveJournalSnapshot(const FlightJournal& journal,
                                          const std::string& path);

 private:
  Options options_;
  mutable util::Mutex mu_;
  std::vector<std::unique_ptr<FlightWriter>> writers_ CAPEFP_GUARDED_BY(mu_);
  std::deque<SlowQueryRecord> slow_ CAPEFP_GUARDED_BY(mu_);
  uint64_t slow_captured_ CAPEFP_GUARDED_BY(mu_) = 0;
  uint64_t slow_dropped_ CAPEFP_GUARDED_BY(mu_) = 0;
};

}  // namespace capefp::obs

#endif  // CAPEFP_OBS_FLIGHT_RECORDER_H_
