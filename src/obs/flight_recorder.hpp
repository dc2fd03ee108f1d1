// Flight recorder: lock-free rings of fixed-size per-query records.
//
// The recorder answers "what were the last N queries doing?" the moment
// something goes wrong — a dump is available on demand (CLI `flight`
// command) and the serve layer writes one automatically on query errors.
// Unlike tracing (off by default, per-thread buffers that stop storing at
// a cap, needs quiescence to read) the flight recorder is bounded, keeps
// the newest records, and is readable while writers are appending. It
// has no switch of its own: each server decides whether its queries
// append (ServeOptions::flight_recorder, on by default).
//
// Rings: one per metrics stripe (obs::thread_stripe(), kStripes = 16),
// each with its own cache-line head and capacity() slots, allocated on
// the stripe's first append. An append writes only lines its stripe
// owns, so serving threads on distinct stripes share no written cache
// line; past kStripes threads, stripes (and rings) are shared, as the
// striped metrics are. Memory is bounded at kStripes rings.
//
// Write path: one relaxed fetch_add on the ring's head claims a slot,
// then a per-slot seqlock (version word + 7 relaxed-atomic payload words,
// one cache line total) publishes the record — ~10-20 ns on x86, no
// locks, no allocation once the stripe's ring exists. Readers (dump())
// validate each slot's version before and after copying the payload and
// skip slots that were mid-write; a torn read is retried once and then
// dropped, never blocked on. The only (accepted, documented) imprecision:
// a writer lapped by `capacity` appends to its ring while mid-write can
// interleave with the lapping writer and produce one corrupted record.
// That takes two threads on one stripe; the dump is diagnostic, the
// window is a full ring of appends, and the seqlock still bounds the
// damage to that single slot.
//
// This header is in the dependency-free obs layer: status codes are
// stored as raw bytes (the serve layer owns the enum), and kinds are the
// fixed serving query vocabulary.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace ht::obs {

/// The serving-layer query vocabulary; values are stable (they appear in
/// dumps and versioned JSON).
enum class QueryKind : std::uint8_t {
  kMinCut = 0,
  kSetCut = 1,
  kBisection = 2,
  kKway = 3,
};

/// Stable lowercase name ("min_cut", "set_cut", "bisection", "kway").
const char* query_kind_name(QueryKind kind);

/// One fixed-size per-query record (packed into one 64-byte ring slot).
struct FlightRecord {
  std::uint64_t seq = 0;         // assigned by append(); per ring, 0, 1, ...
  std::int64_t start_ns = 0;     // query admission, ns since recorder origin
  std::uint64_t latency_ns = 0;  // admission -> answer
  double cut_value = 0.0;        // answered cut/estimate; 0 on error
  std::int64_t deadline_ns = -1; // deadline headroom at admission; -1 = none
  std::uint32_t epoch = 0;       // serving epoch the query pinned
  std::uint16_t thread = 0;      // obs::thread_index(), wraps at 2^16
  QueryKind kind = QueryKind::kMinCut;
  std::uint8_t status_code = 0;  // ht::StatusCode numeric value
  bool prep_exact = false;       // no lossy prep stage touched the
                                 // served instance (Info::prep_exact)
};

class FlightRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;  // 256 KiB a ring

  /// Per-ring capacity, rounded up to a power of two (minimum 8).
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder the serving layer appends to.
  static FlightRecorder& global();

  /// Appends one record to the calling thread's stripe ring (seq is
  /// assigned internally; the caller's seq is ignored). Lock-free, ~tens
  /// of ns; allocates only on the stripe's first append.
  void append(const FlightRecord& record);

  /// Copies out every currently-readable record of every ring, oldest
  /// first: by completion time (start_ns + latency_ns), ties by thread
  /// then seq. Safe concurrently with appenders; mid-write slots are
  /// skipped after one retry.
  std::vector<FlightRecord> dump() const;

  /// One-line versioned JSON of dump(): {"version":2,"capacity":...,
  /// "recorded":...,"records":[...]}, capacity per ring.
  std::string dump_json() const;

  /// Total records ever appended, summed over the rings (a ring keeps its
  /// newest capacity() records).
  std::uint64_t recorded() const;
  /// Slots per ring.
  std::size_t capacity() const { return mask_ + 1; }

  /// Nanoseconds since the recorder's origin (its construction).
  std::int64_t now_ns() const;

 private:
  // Seqlock slot: ver == 0 never written; odd = write in progress;
  // ver == 2*seq + 2 = record `seq` of its ring published. Payload words
  // are relaxed atomics so concurrent read/write is defined behaviour,
  // with fences providing the seqlock ordering.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> ver{0};
    std::atomic<std::uint64_t> word[7] = {};
  };
  // One stripe's ring: the head and the slot pointer fill one cache line
  // that only the stripe's appends write.
  struct alignas(64) Ring {
    std::atomic<std::uint64_t> head{0};
    std::unique_ptr<Slot[]> slots;
  };

  Ring* install_ring(std::size_t stripe);
  bool read_slot(const Slot& slot, FlightRecord& out) const;

  std::atomic<Ring*> rings_[kStripes] = {};  // null until first append
  std::size_t mask_ = 0;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
};

}  // namespace ht::obs
