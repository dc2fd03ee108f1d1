#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace ht::obs {

const char* query_kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kMinCut:
      return "min_cut";
    case QueryKind::kSetCut:
      return "set_cut";
    case QueryKind::kBisection:
      return "bisection";
    case QueryKind::kKway:
      return "kway";
  }
  return "unknown";
}

namespace {

// Word layout of one published record (7 x 64-bit payload words).
//   w0  start_ns (int64)
//   w1  latency_ns
//   w2  cut_value (bit_cast double)
//   w3  deadline_ns (int64; -1 = no deadline)
//   w4  epoch | thread<<32 | kind<<48 | status_code<<56
//   w5  flags: bit 0 = prep_exact
//   w6  spare (zero)
constexpr int kStartNs = 0;
constexpr int kLatencyNs = 1;
constexpr int kCutValue = 2;
constexpr int kDeadlineNs = 3;
constexpr int kPacked = 4;
constexpr int kFlags = 5;

std::uint64_t pack_w4(const FlightRecord& r) {
  return static_cast<std::uint64_t>(r.epoch) |
         (static_cast<std::uint64_t>(r.thread) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(r.kind)) << 48) |
         (static_cast<std::uint64_t>(r.status_code) << 56);
}

// start_ns + latency_ns, the dump's merge key; wraps rather than
// overflowing on nonsense inputs.
std::int64_t completion_ns(const FlightRecord& r) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(r.start_ns) +
                                   r.latency_ns);
}

std::size_t round_up_pow2(std::size_t n) {
  if (n < 8) n = 8;
  return std::size_t{1} << std::bit_width(n - 1);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : mask_(round_up_pow2(capacity) - 1) {}

FlightRecorder::~FlightRecorder() {
  for (auto& ring : rings_) delete ring.load(std::memory_order_relaxed);
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked like Tracer
  return *recorder;
}

FlightRecorder::Ring* FlightRecorder::install_ring(std::size_t stripe) {
  // Threads sharing the stripe may race here; the loser frees its copy
  // and uses the winner's.
  auto fresh = std::make_unique<Ring>();
  fresh->slots = std::make_unique<Slot[]>(capacity());
  Ring* ring = nullptr;
  if (rings_[stripe].compare_exchange_strong(ring, fresh.get(),
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
    ring = fresh.release();
  }
  return ring;
}

std::int64_t FlightRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void FlightRecorder::append(const FlightRecord& record) {
  const std::size_t stripe = thread_stripe();
  Ring* ring = rings_[stripe].load(std::memory_order_acquire);
  if (ring == nullptr) ring = install_ring(stripe);  // stripe's first append
  const std::uint64_t seq = ring->head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring->slots[seq & mask_];
  // Seqlock write: odd version marks the slot mid-write, the final
  // release store of 2*seq+2 publishes the payload. Payload stores are
  // relaxed (the fences order them against the version word); concurrent
  // readers see either the old or the new version number and validate.
  slot.ver.store(2 * seq + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.word[kStartNs].store(static_cast<std::uint64_t>(record.start_ns),
                            std::memory_order_relaxed);
  slot.word[kLatencyNs].store(record.latency_ns, std::memory_order_relaxed);
  slot.word[kCutValue].store(std::bit_cast<std::uint64_t>(record.cut_value),
                             std::memory_order_relaxed);
  slot.word[kDeadlineNs].store(static_cast<std::uint64_t>(record.deadline_ns),
                               std::memory_order_relaxed);
  slot.word[kPacked].store(pack_w4(record), std::memory_order_relaxed);
  slot.word[kFlags].store(record.prep_exact ? 1u : 0u,
                          std::memory_order_relaxed);
  slot.ver.store(2 * seq + 2, std::memory_order_release);
}

std::uint64_t FlightRecorder::recorded() const {
  std::uint64_t total = 0;
  for (const auto& cell : rings_) {
    const Ring* ring = cell.load(std::memory_order_acquire);
    if (ring != nullptr) total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

bool FlightRecorder::read_slot(const Slot& slot, FlightRecord& out) const {
  for (int attempt = 0; attempt < 2; ++attempt) {
    const std::uint64_t v1 = slot.ver.load(std::memory_order_acquire);
    if (v1 == 0 || (v1 & 1) != 0) continue;  // never written / mid-write
    std::uint64_t w[7];
    for (int i = 0; i < 7; ++i)
      w[i] = slot.word[i].load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    const std::uint64_t v2 = slot.ver.load(std::memory_order_relaxed);
    if (v1 != v2) continue;  // overwritten while copying
    out.seq = v1 / 2 - 1;
    out.start_ns = static_cast<std::int64_t>(w[kStartNs]);
    out.latency_ns = w[kLatencyNs];
    out.cut_value = std::bit_cast<double>(w[kCutValue]);
    out.deadline_ns = static_cast<std::int64_t>(w[kDeadlineNs]);
    out.epoch = static_cast<std::uint32_t>(w[kPacked]);
    out.thread = static_cast<std::uint16_t>(w[kPacked] >> 32);
    out.kind = static_cast<QueryKind>(static_cast<std::uint8_t>(
        w[kPacked] >> 48));
    out.status_code = static_cast<std::uint8_t>(w[kPacked] >> 56);
    out.prep_exact = (w[kFlags] & 1) != 0;
    return true;
  }
  return false;
}

std::vector<FlightRecord> FlightRecorder::dump() const {
  std::vector<FlightRecord> records;
  const std::size_t cap = capacity();
  for (const auto& cell : rings_) {
    const Ring* ring = cell.load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    for (std::size_t i = 0; i < cap; ++i) {
      FlightRecord r;
      if (read_slot(ring->slots[i], r)) records.push_back(r);
    }
  }
  // Merge the rings by completion time. Stable, so records that tie on
  // every key (a caller-chosen thread shared across stripes) keep ring
  // order and the dump stays deterministic for a quiescent recorder.
  std::stable_sort(records.begin(), records.end(),
                   [](const FlightRecord& a, const FlightRecord& b) {
                     const std::int64_t end_a = completion_ns(a);
                     const std::int64_t end_b = completion_ns(b);
                     if (end_a != end_b) return end_a < end_b;
                     if (a.thread != b.thread) return a.thread < b.thread;
                     return a.seq < b.seq;
                   });
  return records;
}

std::string FlightRecorder::dump_json() const {
  const std::vector<FlightRecord> records = dump();
  std::string out;
  out.reserve(64 + records.size() * 160);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"version\":2,\"capacity\":%zu,\"recorded\":%llu,"
                "\"records\":[",
                capacity(),
                static_cast<unsigned long long>(recorded()));
  out += buf;
  bool first = true;
  for (const FlightRecord& r : records) {
    if (!first) out += ',';
    first = false;
    std::snprintf(
        buf, sizeof(buf),
        "{\"seq\":%llu,\"kind\":\"%s\",\"status\":%u,\"epoch\":%u,"
        "\"thread\":%u,\"start_ns\":%lld,\"latency_ns\":%llu,"
        "\"deadline_ns\":%lld,\"cut\":%.17g,\"prep_exact\":%s}",
        static_cast<unsigned long long>(r.seq), query_kind_name(r.kind),
        static_cast<unsigned>(r.status_code), r.epoch,
        static_cast<unsigned>(r.thread),
        static_cast<long long>(r.start_ns),
        static_cast<unsigned long long>(r.latency_ns),
        static_cast<long long>(r.deadline_ns), r.cut_value,
        r.prep_exact ? "true" : "false");
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace ht::obs
