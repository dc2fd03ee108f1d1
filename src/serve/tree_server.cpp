#include "serve/tree_server.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "cuttree/tree_bisection.hpp"
#include "cuttree/tree_edge_partition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prep/prep.hpp"
#include "serve/snapshot_writer.hpp"

namespace ht {

namespace serve {

namespace {

using snapshot::SectionKind;

/// Exactly one -1 (at the root), every other parent in range, and every
/// vertex's parent chain ending at the root — i.e. the arrays really
/// encode one rooted tree, not a cycle or a forest. O(n) with one state
/// byte per vertex and no per-vertex allocation.
Status validate_rooted_parent(std::span<const std::int32_t> parent,
                              std::int32_t root, const char* what) {
  const auto n = static_cast<std::int32_t>(parent.size());
  if (root < 0 || root >= n) {
    return Status::InvalidArgument(std::string(what) + ": root out of range");
  }
  for (std::int32_t v = 0; v < n; ++v) {
    const std::int32_t p = parent[static_cast<std::size_t>(v)];
    if (v == root) {
      if (p != -1) {
        return Status::InvalidArgument(std::string(what) +
                                       ": root has a parent");
      }
      continue;
    }
    if (p < 0 || p >= n) {
      return Status::InvalidArgument(std::string(what) +
                                     ": parent out of range");
    }
  }
  // Climb from each vertex until a vertex known to reach the root; a walk
  // that meets itself is on a cycle. Every vertex is marked on-walk once
  // and reaches-root once.
  enum : std::uint8_t { kUnseen, kOnWalk, kReachesRoot };
  std::vector<std::uint8_t> state(static_cast<std::size_t>(n), kUnseen);
  const auto at = [&](std::int32_t v) -> std::uint8_t& {
    return state[static_cast<std::size_t>(v)];
  };
  const auto up = [&](std::int32_t v) {
    return parent[static_cast<std::size_t>(v)];
  };
  at(root) = kReachesRoot;
  for (std::int32_t v = 0; v < n; ++v) {
    std::int32_t u = v;
    for (; at(u) == kUnseen; u = up(u)) at(u) = kOnWalk;
    if (at(u) == kOnWalk) {
      return Status::InvalidArgument(std::string(what) +
                                     ": parent pointers are not a tree");
    }
    for (u = v; at(u) == kOnWalk; u = up(u)) at(u) = kReachesRoot;
  }
  return Status::Ok();
}

StatusOr<cuttree::Tree> load_tree(const snapshot::Snapshot& snap,
                                  SectionKind parent_kind,
                                  SectionKind node_weight_kind,
                                  SectionKind edge_weight_kind,
                                  SectionKind vertex_node_kind,
                                  std::int32_t expected_nodes,
                                  std::int64_t expected_vertices,
                                  const char* what) {
  auto parent = snap.section<std::int32_t>(parent_kind);
  auto node_weight = snap.section<double>(node_weight_kind);
  auto edge_weight = snap.section<double>(edge_weight_kind);
  auto vertex_node = snap.section<std::int32_t>(vertex_node_kind);
  if (!parent.ok()) return parent.status();
  if (!node_weight.ok()) return node_weight.status();
  if (!edge_weight.ok()) return edge_weight.status();
  if (!vertex_node.ok()) return vertex_node.status();
  if (static_cast<std::int64_t>(parent->size()) != expected_nodes) {
    return Status::InvalidArgument(std::string(what) +
                                   ": node count disagrees with meta");
  }
  if (static_cast<std::int64_t>(vertex_node->size()) != expected_vertices) {
    return Status::InvalidArgument(std::string(what) +
                                   ": embedded vertex count disagrees with "
                                   "meta");
  }
  auto tree = cuttree::Tree::from_arrays(*parent, *node_weight, *edge_weight,
                                         *vertex_node);
  if (!tree.ok()) {
    return Status::InvalidArgument(std::string(what) + ": " +
                                   tree.status().message());
  }
  return tree;
}

}  // namespace

StatusOr<std::shared_ptr<const LoadedSnapshot>> LoadedSnapshot::load(
    snapshot::Snapshot snap) {
  auto out = std::make_shared<LoadedSnapshot>();
  out->meta = snap.meta();
  const snapshot::MetaBlock& meta = out->meta;
  const std::int32_t n = meta.num_vertices;
  const std::int32_t m = meta.num_edges;
  if (n < 2 || m < 0 || meta.num_pins < 0) {
    return Status::InvalidArgument("snapshot meta: bad instance counts");
  }

  // The snapshot must outlive the spans; move it in before slicing.
  out->snap = std::move(snap);
  const snapshot::Snapshot& s = out->snap;

  auto vertex_weights = s.section<double>(SectionKind::kVertexWeights);
  auto edge_weights = s.section<double>(SectionKind::kEdgeWeights);
  auto pin_offsets = s.section<std::int64_t>(SectionKind::kPinOffsets);
  auto pins = s.section<std::int32_t>(SectionKind::kPins);
  if (!vertex_weights.ok()) return vertex_weights.status();
  if (!edge_weights.ok()) return edge_weights.status();
  if (!pin_offsets.ok()) return pin_offsets.status();
  if (!pins.ok()) return pins.status();
  if (static_cast<std::int64_t>(vertex_weights->size()) != n ||
      static_cast<std::int64_t>(edge_weights->size()) != m ||
      static_cast<std::int64_t>(pin_offsets->size()) != m + 1 ||
      static_cast<std::int64_t>(pins->size()) != meta.num_pins) {
    return Status::InvalidArgument("snapshot CSR: array lengths disagree "
                                   "with meta");
  }
  if ((*pin_offsets)[0] != 0 ||
      (*pin_offsets)[static_cast<std::size_t>(m)] !=
          static_cast<std::int64_t>(pins->size())) {
    return Status::InvalidArgument("snapshot CSR: pin offsets do not span "
                                   "the pin array");
  }
  for (std::int32_t e = 0; e < m; ++e) {
    if ((*pin_offsets)[static_cast<std::size_t>(e)] >
        (*pin_offsets)[static_cast<std::size_t>(e) + 1]) {
      return Status::InvalidArgument("snapshot CSR: pin offsets decrease");
    }
  }
  for (std::int32_t pin : *pins) {
    if (pin < 0 || pin >= n) {
      return Status::InvalidArgument("snapshot CSR: pin out of range");
    }
  }
  out->vertex_weights = *vertex_weights;
  out->edge_weights = *edge_weights;
  out->pin_offsets = *pin_offsets;
  out->pins = *pins;

  if (s.has(SectionKind::kGhParent)) {
    auto gh_parent = s.section<std::int32_t>(SectionKind::kGhParent);
    auto gh_cut = s.section<double>(SectionKind::kGhParentCut);
    if (!gh_parent.ok()) return gh_parent.status();
    if (!gh_cut.ok()) return gh_cut.status();
    if (static_cast<std::int64_t>(gh_parent->size()) != n ||
        static_cast<std::int64_t>(gh_cut->size()) != n) {
      return Status::InvalidArgument("snapshot Gomory-Hu: array length is "
                                     "not the vertex count");
    }
    if (Status st =
            validate_rooted_parent(*gh_parent, meta.gh_root, "Gomory-Hu");
        !st.ok()) {
      return st;
    }
    flow::HypergraphGomoryHuTree gh;
    gh.parent.assign(gh_parent->begin(), gh_parent->end());
    gh.parent_cut.assign(gh_cut->begin(), gh_cut->end());
    gh.root = meta.gh_root;
    out->gomory_hu.emplace(std::move(gh));
  }

  if (s.has(SectionKind::kVctParent)) {
    auto tree = load_tree(s, SectionKind::kVctParent,
                          SectionKind::kVctNodeWeight,
                          SectionKind::kVctEdgeWeight,
                          SectionKind::kVctVertexNode, meta.vct_num_nodes,
                          static_cast<std::int64_t>(n) + m,
                          "vertex cut tree");
    if (!tree.ok()) return tree.status();
    if (tree->root() != meta.vct_root) {
      return Status::InvalidArgument("vertex cut tree: root disagrees with "
                                     "meta");
    }
    out->vertex_cut_tree.emplace(std::move(*tree));
  }

  if (s.has(SectionKind::kDecompParent)) {
    auto tree = load_tree(s, SectionKind::kDecompParent,
                          SectionKind::kDecompNodeWeight,
                          SectionKind::kDecompEdgeWeight,
                          SectionKind::kDecompVertexNode,
                          meta.decomp_num_nodes, n, "decomposition tree");
    if (!tree.ok()) return tree.status();
    if (tree->root() != meta.decomp_root) {
      return Status::InvalidArgument("decomposition tree: root disagrees "
                                     "with meta");
    }
    out->decomposition.emplace(std::move(*tree));
  }

  // Preprocessed snapshot: validate the original -> stored map and lift
  // the tree embeddings onto original ids, so every query below runs
  // directly in the id space callers know.
  if (s.has(SectionKind::kPrepMeta)) {
    auto prep_block = s.section<snapshot::PrepBlock>(SectionKind::kPrepMeta);
    if (!prep_block.ok()) return prep_block.status();
    if (prep_block->size() != 1) {
      return Status::InvalidArgument("snapshot prep: meta section is not "
                                     "one record");
    }
    out->prep = (*prep_block)[0];
    const std::int32_t orig_n = out->prep.orig_num_vertices;
    if (orig_n < n || out->prep.orig_num_edges < 0 ||
        out->prep.orig_num_pins < 0) {
      return Status::InvalidArgument("snapshot prep: original counts are "
                                     "smaller than the stored instance");
    }
    auto map = s.section<std::int32_t>(SectionKind::kPrepVertexMap);
    if (!map.ok()) return map.status();
    if (static_cast<std::int64_t>(map->size()) != orig_n) {
      return Status::InvalidArgument("snapshot prep: vertex map length is "
                                     "not the original vertex count");
    }
    std::vector<bool> hit(static_cast<std::size_t>(n), false);
    for (const std::int32_t stored_v : *map) {
      if (stored_v < 0 || stored_v >= n) {
        return Status::InvalidArgument("snapshot prep: vertex map entry "
                                       "out of range");
      }
      hit[static_cast<std::size_t>(stored_v)] = true;
    }
    for (std::int32_t v = 0; v < n; ++v) {
      if (!hit[static_cast<std::size_t>(v)]) {
        return Status::InvalidArgument("snapshot prep: vertex map does not "
                                       "cover every stored vertex");
      }
    }
    out->prep_map = *map;
    out->has_prep = true;
    if (out->vertex_cut_tree.has_value()) {
      out->vertex_cut_tree->lift_vertices(*map);
    }
    if (out->decomposition.has_value()) {
      out->decomposition->lift_vertices(*map);
    }
  }

  // Sharded-build provenance: validate that the declared vertex ranges
  // really partition [0, n) before any query trusts the dominating-tree
  // semantics they imply.
  if (s.has(SectionKind::kShardMeta)) {
    auto shard_block = s.section<snapshot::ShardBlock>(SectionKind::kShardMeta);
    if (!shard_block.ok()) return shard_block.status();
    if (shard_block->size() != 1) {
      return Status::InvalidArgument("snapshot shard: meta section is not "
                                     "one record");
    }
    out->shard = (*shard_block)[0];
    const std::int32_t k = out->shard.num_shards;
    if (k < 1 || out->shard.shards_completed < 0 ||
        out->shard.shards_completed > k || out->shard.boundary_edges < 0 ||
        out->shard.boundary_pins < 0) {
      return Status::InvalidArgument("snapshot shard: bad shard counts");
    }
    auto ranges = s.section<std::int64_t>(SectionKind::kShardRanges);
    if (!ranges.ok()) return ranges.status();
    if (static_cast<std::int64_t>(ranges->size()) != k + 1 ||
        (*ranges)[0] != 0 ||
        (*ranges)[static_cast<std::size_t>(k)] != n) {
      return Status::InvalidArgument("snapshot shard: ranges do not "
                                     "partition the vertex space");
    }
    for (std::int32_t i = 0; i < k; ++i) {
      if ((*ranges)[static_cast<std::size_t>(i)] >=
          (*ranges)[static_cast<std::size_t>(i) + 1]) {
        return Status::InvalidArgument("snapshot shard: ranges are not "
                                       "strictly increasing");
      }
    }
    out->shard_ranges = *ranges;
    out->has_shards = true;
  }

  return std::shared_ptr<const LoadedSnapshot>(std::move(out));
}

StatusOr<std::shared_ptr<const LoadedSnapshot>> LoadedSnapshot::load_file(
    const std::string& path) {
  auto snap = snapshot::open(path);
  if (!snap.ok()) return snap.status();
  return load(std::move(*snap));
}

double LoadedSnapshot::cut_weight(const std::vector<bool>& side) const {
  // Collapse the original-id side onto stored vertices as side-presence
  // bits: a stored vertex whose originals straddle the cut exposes both
  // sides to every incident hyperedge.
  const std::int32_t n = meta.num_vertices;
  std::vector<std::uint8_t> tag(static_cast<std::size_t>(n), 0);
  if (has_prep) {
    for (std::size_t v = 0; v < prep_map.size(); ++v) {
      tag[static_cast<std::size_t>(prep_map[v])] |= side[v] ? 2 : 1;
    }
  } else {
    for (std::int32_t v = 0; v < n; ++v) {
      tag[static_cast<std::size_t>(v)] =
          side[static_cast<std::size_t>(v)] ? 2 : 1;
    }
  }
  double cut = 0.0;
  const std::int32_t m = meta.num_edges;
  for (std::int32_t e = 0; e < m; ++e) {
    const auto begin = static_cast<std::size_t>(
        pin_offsets[static_cast<std::size_t>(e)]);
    const auto end = static_cast<std::size_t>(
        pin_offsets[static_cast<std::size_t>(e) + 1]);
    std::uint8_t seen = 0;
    for (std::size_t i = begin; i < end && seen != 3; ++i) {
      seen |= tag[static_cast<std::size_t>(pins[i])];
    }
    if (seen == 3) cut += edge_weights[static_cast<std::size_t>(e)];
  }
  return cut;
}

std::pair<double, double> LoadedSnapshot::kway_cost(
    const std::vector<std::int32_t>& part) const {
  const std::int32_t n = meta.num_vertices;
  // Part id per stored vertex; under preprocessing a cluster follows its
  // first original member (the edge-cut DP keeps clusters whole, so all
  // members agree — the rule only makes the mapping total).
  std::vector<std::int32_t> stored_part(static_cast<std::size_t>(n), -1);
  if (has_prep) {
    for (std::size_t v = 0; v < prep_map.size(); ++v) {
      std::int32_t& p = stored_part[static_cast<std::size_t>(prep_map[v])];
      if (p == -1) p = part[v];
    }
  } else {
    stored_part = part;
  }
  double cut = 0.0;
  double connectivity = 0.0;
  const std::int32_t m = meta.num_edges;
  std::vector<std::int32_t> seen;
  for (std::int32_t e = 0; e < m; ++e) {
    const auto begin = static_cast<std::size_t>(
        pin_offsets[static_cast<std::size_t>(e)]);
    const auto end = static_cast<std::size_t>(
        pin_offsets[static_cast<std::size_t>(e) + 1]);
    seen.clear();
    for (std::size_t i = begin; i < end; ++i) {
      const std::int32_t p = stored_part[static_cast<std::size_t>(pins[i])];
      if (std::find(seen.begin(), seen.end(), p) == seen.end()) {
        seen.push_back(p);
      }
    }
    if (seen.size() > 1) {
      const double w = edge_weights[static_cast<std::size_t>(e)];
      cut += w;
      connectivity += w * static_cast<double>(seen.size() - 1);
    }
  }
  return {cut, connectivity};
}

}  // namespace serve

namespace serve::detail {

/// One thread stripe of reader counts, indexed by epoch parity.
struct alignas(64) ReaderStripe {
  std::atomic<std::int64_t> readers[2] = {};
};

/// The state TreeServer copies share: two epoch slots indexed by parity.
/// slot[epoch & 1] serves; slot[(epoch + 1) & 1] holds the state the last
/// swap replaced until it is reclaimed. A query registers in its thread's
/// reader stripe for the parity it serves from, so the hot path writes
/// only its own stripe's cache lines and reads lines written on swap.
struct ServerShared {
  ServeOptions options;  // immutable after construction
  std::atomic<std::uint32_t> epoch{1};
  /// True while slot[(epoch + 1) & 1] holds a replaced state.
  std::atomic<bool> retired{false};
  /// Written only under mu, and only while no query is registered for the
  /// slot's parity; the epoch store (swap) and the reader counts
  /// (reclaim) order those writes against the queries reading it.
  std::shared_ptr<const LoadedSnapshot> slot[2];

  alignas(64) mutable std::mutex mu;  // serializes swaps and reclaims

  ReaderStripe stripes[obs::kStripes];
  obs::Counter queries;
  std::atomic<std::uint64_t> swaps{0};
  /// Earliest recorder time (ns) of the next on-error flight dump;
  /// kDumping while one is being written.
  std::atomic<std::int64_t> next_dump_ns{0};

  std::int64_t readers(int parity) const {
    std::int64_t total = 0;
    for (const ReaderStripe& stripe : stripes) {
      total += stripe.readers[parity].load(std::memory_order_acquire);
    }
    return total;
  }

  /// Returns once no query is registered for `parity`. The first check is
  /// a plain load, so a swap nobody blocks never sleeps; after that the
  /// wait sleeps, doubling from 1 us to 1 ms, instead of spinning a core
  /// for as long as a pinned query runs.
  void wait_for_readers(int parity) const {
    static constexpr std::chrono::microseconds kMaxSleep{1000};
    std::chrono::microseconds sleep{1};
    while (readers(parity) != 0) {
      std::this_thread::sleep_for(sleep);
      sleep = std::min(2 * sleep, kMaxSleep);
    }
  }

  /// Frees the replaced state once its last reader has left. Queries call
  /// this as they finish, so the unmap runs on a query thread and never
  /// on swap()'s timed path; losing the try_lock just leaves it to the
  /// next query.
  void reclaim() {
    const std::uint32_t e = epoch.load();
    const int parity = static_cast<int>((e + 1) & 1);
    if (readers(parity) != 0) return;
    std::unique_lock<std::mutex> lock(mu, std::try_to_lock);
    if (!lock.owns_lock() || !retired.load() || epoch.load() != e ||
        readers(parity) != 0) {
      return;
    }
    std::shared_ptr<const LoadedSnapshot> dead = std::move(slot[parity]);
    retired.store(false);
    lock.unlock();
    // `dead` unmaps here, outside the lock (pinned handles may keep it).
  }

  /// Writes the flight dump for a query that failed at recorder time
  /// `now_ns`, at most once per kDumpWindowNs: only the failure that finds
  /// the window open and wins the compare-exchange writes, and kDumping
  /// keeps every other failure out until it is done. Skipped failures
  /// show up in the next dump.
  void dump_flight(std::int64_t now_ns) {
    static constexpr std::int64_t kDumpWindowNs = 1'000'000'000;
    static constexpr std::int64_t kDumping =
        std::numeric_limits<std::int64_t>::max();
    std::int64_t due = next_dump_ns.load(std::memory_order_relaxed);
    if (now_ns < due || !next_dump_ns.compare_exchange_strong(due, kDumping)) {
      return;
    }
    auto& recorder = obs::FlightRecorder::global();
    // Best effort: a failed write leaves the previous dump in place.
    (void)snapshot::write_bytes_atomic(options.flight_dump_path,
                                       recorder.dump_json() + '\n');
    next_dump_ns.store(recorder.now_ns() + kDumpWindowNs);
  }
};

}  // namespace serve::detail

namespace {

using serve::detail::ServerShared;

/// The registry references every query touches, resolved once — the hot
/// path must not pay the registry's name lookup (lock + map walk).
struct ServeMetrics {
  obs::Counter& queries;
  obs::Counter& query_errors;
  obs::Counter& deadline_expired;
  obs::Counter& slow_queries;
  obs::Histogram* latency[4];  // indexed by obs::QueryKind

  static const ServeMetrics& get() {
    static const ServeMetrics m = [] {
      auto& reg = obs::MetricsRegistry::global();
      return ServeMetrics{
          reg.counter("serve.queries"),
          reg.counter("serve.query_errors"),
          reg.counter("serve.deadline_expired"),
          reg.counter("serve.slow_queries"),
          {&reg.histogram("serve.latency.min_cut"),
           &reg.histogram("serve.latency.set_cut"),
           &reg.histogram("serve.latency.bisection"),
           &reg.histogram("serve.latency.kway")},
      };
    }();
    return m;
  }
};

/// Epoch pin + per-query bookkeeping shared by every query method.
/// Construction registers the query as a reader of the current epoch
/// (increment its parity's count in this thread's stripe, then re-read
/// the epoch and retry if a swap got in between); `state` stays valid
/// until the destructor unregisters. Every exit path routes its status
/// through ok()/fail()/dp_failure(), and the destructor finalizes
/// observability in one place: per-kind latency histogram, error counters
/// (deadline expiries split out from genuine errors), the flight record,
/// the on-error auto-dump, and the serve.slow_query span. The observer is
/// constructed after the per-kind serve.* span, so destruction runs first
/// and the slow-query span nests under the query's own span.
struct QueryObserver {
  ServerShared& shared;
  const RunContext& ctx;
  serve::detail::ReaderStripe& stripe;
  const serve::LoadedSnapshot* state = nullptr;
  obs::QueryKind kind;
  std::uint32_t epoch = 0;
  std::int64_t start_ns = 0;
  std::int64_t deadline_ns = -1;  // headroom at admission; -1 = none
  double cut_value = 0.0;
  StatusCode code = StatusCode::kOk;

  QueryObserver(ServerShared& s, obs::QueryKind k, const RunContext& c)
      : shared(s), ctx(c), stripe(s.stripes[obs::thread_stripe()]),
        kind(k) {
    for (;;) {
      epoch = shared.epoch.load();
      stripe.readers[epoch & 1].fetch_add(1);
      if (shared.epoch.load() == epoch) break;
      stripe.readers[epoch & 1].fetch_sub(1, std::memory_order_release);
    }
    state = shared.slot[epoch & 1].get();
    shared.queries.add();
    ServeMetrics::get().queries.add();
    start_ns = obs::FlightRecorder::global().now_ns();
    if (ctx.has_deadline()) {
      deadline_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        ctx.deadline - RunContext::Clock::now())
                        .count();
    }
  }

  QueryObserver(const QueryObserver&) = delete;
  QueryObserver& operator=(const QueryObserver&) = delete;

  ~QueryObserver() {
    const ServeMetrics& metrics = ServeMetrics::get();
    auto& recorder = obs::FlightRecorder::global();
    const std::uint64_t latency_ns =
        static_cast<std::uint64_t>(recorder.now_ns() - start_ns);
    metrics.latency[static_cast<int>(kind)]->record(latency_ns);
    if (code == StatusCode::kDeadlineExceeded) {
      metrics.deadline_expired.add();
    } else if (code != StatusCode::kOk) {
      metrics.query_errors.add();
    }
    const serve::ServeOptions& options = shared.options;
    if (options.flight_recorder) {
      obs::FlightRecord record;
      record.start_ns = start_ns;
      record.latency_ns = latency_ns;
      record.cut_value = cut_value;
      record.deadline_ns = deadline_ns;
      record.epoch = epoch;
      record.thread = static_cast<std::uint16_t>(obs::thread_index());
      record.kind = kind;
      record.status_code = static_cast<std::uint8_t>(code);
      record.prep_exact = state->prep_exact();
      recorder.append(record);
    }
    if (code != StatusCode::kOk && !options.flight_dump_path.empty()) {
      shared.dump_flight(start_ns + static_cast<std::int64_t>(latency_ns));
    }
    if (latency_ns > options.slow_query_ns) {
      metrics.slow_queries.add();
      obs::TraceSpan span("serve.slow_query");
      span.arg("kind", obs::query_kind_name(kind));
      span.arg("latency_ns", static_cast<std::int64_t>(latency_ns));
      span.arg("epoch", static_cast<std::int64_t>(epoch));
      span.arg("status", static_cast<std::int64_t>(code));
      span.arg("deadline_ns", deadline_ns);
    }
    stripe.readers[epoch & 1].fetch_sub(1, std::memory_order_release);
    if (shared.retired.load(std::memory_order_relaxed)) shared.reclaim();
  }

  /// Polls the caller's cancel token and deadline once before any work.
  /// Only bisection() and kway() bind the context for their DPs' polls.
  Status admission() { return fail(ctx.check()); }

  /// Routes a terminal status through the observer (ok statuses pass
  /// through untouched).
  Status fail(Status st) {
    code = st.code();
    return st;
  }

  /// Maps an invalid DP result to the run's stop status (deadline /
  /// cancel latched mid-DP) or Internal for a genuine DP failure.
  Status dp_failure(const RunScope& scope, const char* what) {
    Status stop = scope.status();
    if (!stop.ok()) return fail(std::move(stop));
    return fail(Status::Internal(std::string(what) +
                                 " DP produced no answer"));
  }

  /// Marks the query answered; `cut` lands in the flight record.
  void ok(double cut) {
    code = StatusCode::kOk;
    cut_value = cut;
  }
};

/// Why set_cut refused sides `a` and `b` over vertices [0, n), by its
/// checks in order: an empty side; a vertex of A out of range; per vertex
/// of B in order, out of range or also in A; else the sides share a tree
/// node. Runs only on refused queries, so it may sort and allocate.
Status set_cut_rejection(const std::vector<std::int32_t>& a,
                         const std::vector<std::int32_t>& b, std::int32_t n) {
  if (a.empty() || b.empty()) {
    return Status::InvalidArgument("set_cut needs non-empty sides");
  }
  const auto out_of_range = [n](std::int32_t v) { return v < 0 || v >= n; };
  if (std::any_of(a.begin(), a.end(), out_of_range)) {
    return Status::InvalidArgument("set_cut vertex out of range");
  }
  std::vector<std::int32_t> sorted_a(a.begin(), a.end());
  std::sort(sorted_a.begin(), sorted_a.end());
  for (const std::int32_t v : b) {
    if (out_of_range(v)) {
      return Status::InvalidArgument("set_cut vertex out of range");
    }
    if (std::binary_search(sorted_a.begin(), sorted_a.end(), v)) {
      return Status::InvalidArgument("set_cut sides must be disjoint");
    }
  }
  // Disjoint ids can still land on one tree node once preprocessing has
  // contracted them together (or the star expansion embedded them so).
  return Status::InvalidArgument(
      "set_cut sides share a tree node (vertices merged by preprocessing)");
}

}  // namespace

StatusOr<TreeServer> TreeServer::open(const std::string& path,
                                      serve::ServeOptions options) {
  auto state = serve::LoadedSnapshot::load_file(path);
  if (!state.ok()) return state.status();
  return from_state(std::move(*state), std::move(options));
}

TreeServer TreeServer::from_state(
    std::shared_ptr<const serve::LoadedSnapshot> state,
    serve::ServeOptions options) {
  auto shared = std::make_shared<ServerShared>();
  shared->options = std::move(options);
  shared->slot[1] = std::move(state);  // epoch 1 serves from parity 1
  return TreeServer(std::move(shared));
}

Status TreeServer::swap(const std::string& path) {
  obs::TraceSpan span("serve.swap");
  // Load and validate entirely off the query path: a broken file leaves
  // the current epoch serving untouched.
  auto next = serve::LoadedSnapshot::load_file(path);
  if (!next.ok()) {
    obs::MetricsRegistry::global().counter("serve.swap_failures").add();
    return next.status();
  }
  ServerShared& shared = *shared_;
  // The state two epochs old, still held only when no query finished
  // since the last swap to reclaim it (an idle server); freed on return.
  std::shared_ptr<const serve::LoadedSnapshot> unreclaimed;
  for (;;) {
    const std::uint32_t e = shared.epoch.load();
    const int parity = static_cast<int>((e + 1) & 1);
    // Queries that began two epochs ago (spanning two swaps) may still
    // read the slot being replaced; they finish against it first. The
    // wait holds no lock, so state(), info() and reclaim() never queue
    // behind a query preempted while pinned to that epoch.
    shared.wait_for_readers(parity);
    std::lock_guard<std::mutex> lock(shared.mu);
    // While the epoch stays e no query can pin this parity: a query keeps
    // its count only if the epoch it re-reads equals the one it counted
    // under, and e's parity is the other one. So start over only if
    // another swap took the mutex first and moved the epoch on, or a
    // query that read an older epoch has yet to take its count back.
    if (shared.epoch.load() != e || shared.readers(parity) != 0) continue;
    unreclaimed = std::move(shared.slot[parity]);
    shared.slot[parity] = std::move(*next);
    shared.epoch.store(e + 1);
    shared.retired.store(true);
    break;
  }
  shared.swaps.fetch_add(1, std::memory_order_relaxed);
  obs::MetricsRegistry::global().counter("serve.swaps").add();
  return Status::Ok();
}

std::shared_ptr<const serve::LoadedSnapshot> TreeServer::state() const {
  std::lock_guard<std::mutex> lock(shared_->mu);
  return shared_->slot[shared_->epoch.load() & 1];
}

std::uint32_t TreeServer::epoch() const { return shared_->epoch.load(); }

const serve::ServeOptions& TreeServer::options() const {
  return shared_->options;  // immutable after construction
}

StatusOr<TreeServer::MinCutAnswer> TreeServer::min_cut(
    std::int32_t s, std::int32_t t, const RunContext& ctx) const {
  obs::TraceSpan span("serve.min_cut");
  QueryObserver guard(*shared_, obs::QueryKind::kMinCut, ctx);
  if (Status st = guard.admission(); !st.ok()) return st;
  const serve::LoadedSnapshot& snap = *guard.state;
  if (!snap.gomory_hu.has_value()) {
    return guard.fail(
        Status::InvalidArgument("snapshot has no Gomory-Hu tree"));
  }
  const std::int32_t n = snap.original_vertices();
  if (s < 0 || s >= n || t < 0 || t >= n || s == t) {
    return guard.fail(Status::InvalidArgument(
        "min_cut needs distinct vertices in [0, n)"));
  }
  const std::int32_t stored_s = snap.to_stored(s);
  const std::int32_t stored_t = snap.to_stored(t);
  if (stored_s == stored_t) {
    return guard.fail(Status::InvalidArgument(
        "min_cut endpoints were merged by preprocessing; rebuild with prep "
        "off or exact-only"));
  }
  MinCutAnswer answer;
  answer.value = snap.gomory_hu->min_cut(stored_s, stored_t);
  // Per-pair s-t cuts survive only the cut-preserving rules (zero-edge
  // drop, duplicate merge). Heavy contraction only removes cuts, so a
  // complete tree on its output never under-reports: dominating. A
  // stitched sharded tree likewise serves dominating values, exact only
  // under the §14 conditions. The reserved lossy bits leave an estimate.
  const bool complete =
      (snap.meta.artifact_flags & snapshot::kGomoryHuComplete) != 0;
  const std::uint32_t flags = snap.prep.stage_flags;
  const bool cut_preserving = prep::stages_cut_preserving(flags);
  answer.dominating = snap.sharded_tree() ||
                      (complete && prep::stages_exact(flags) &&
                       !cut_preserving);
  answer.exact = complete && cut_preserving && !answer.dominating;
  guard.ok(answer.value);
  return answer;
}

StatusOr<TreeServer::MinCutAnswer> TreeServer::global_min_cut(
    const RunContext& ctx) const {
  obs::TraceSpan span("serve.global_min_cut");
  QueryObserver guard(*shared_, obs::QueryKind::kMinCut, ctx);
  if (Status st = guard.admission(); !st.ok()) return st;
  const serve::LoadedSnapshot& snap = *guard.state;
  if (!snap.gomory_hu.has_value()) {
    return guard.fail(
        Status::InvalidArgument("snapshot has no Gomory-Hu tree"));
  }
  const flow::HypergraphGomoryHuTree& gh = *snap.gomory_hu;
  MinCutAnswer answer;
  answer.value = std::numeric_limits<double>::infinity();
  for (std::size_t v = 0; v < gh.parent.size(); ++v) {
    if (static_cast<std::int32_t>(v) == gh.root) continue;
    answer.value = std::min(answer.value, gh.parent_cut[v]);
  }
  // The global min-cut VALUE survives every kernelization rule, so exact
  // prep does not demote it — only the reserved lossy bits, an incomplete
  // tree (pessimistic 0 edges present) or a stitched sharded tree does.
  answer.dominating = snap.sharded_tree();
  answer.exact =
      (snap.meta.artifact_flags & snapshot::kGomoryHuComplete) != 0 &&
      snap.prep_exact() && !answer.dominating;
  guard.ok(answer.value);
  return answer;
}

StatusOr<TreeServer::SetCutAnswer> TreeServer::set_cut(
    const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b,
    const RunContext& ctx) const {
  obs::TraceSpan span("serve.set_cut");
  QueryObserver guard(*shared_, obs::QueryKind::kSetCut, ctx);
  if (Status st = guard.admission(); !st.ok()) return st;
  const serve::LoadedSnapshot& snap = *guard.state;
  if (!snap.vertex_cut_tree.has_value()) {
    return guard.fail(
        Status::InvalidArgument("snapshot has no vertex cut tree"));
  }
  // One pass: range-check both sides, then the DP maps each terminal to
  // its tree node once and reports a node that holds both sides (a
  // shared id, or ids preprocessing contracted together). Only a refused
  // query pays for working out which check it failed.
  const auto n = static_cast<std::uint32_t>(snap.original_vertices());
  const auto in_range = [n](std::int32_t v) {
    return static_cast<std::uint32_t>(v) < n;
  };
  std::optional<double> value;
  if (!a.empty() && !b.empty() && std::all_of(a.begin(), a.end(), in_range) &&
      std::all_of(b.begin(), b.end(), in_range)) {
    value = cuttree::try_tree_vertex_cut_dp(*snap.vertex_cut_tree, a, b);
  }
  if (!value.has_value()) {
    return guard.fail(set_cut_rejection(a, b, snap.original_vertices()));
  }
  SetCutAnswer answer;
  answer.value = *value;
  guard.ok(answer.value);
  return answer;
}

StatusOr<TreeServer::BisectionAnswer> TreeServer::bisection(
    const RunContext& ctx) const {
  obs::TraceSpan span("serve.bisection");
  QueryObserver guard(*shared_, obs::QueryKind::kBisection, ctx);
  if (Status st = guard.admission(); !st.ok()) return st;
  const serve::LoadedSnapshot& snap = *guard.state;
  if (!snap.vertex_cut_tree.has_value()) {
    return guard.fail(
        Status::InvalidArgument("snapshot has no vertex cut tree"));
  }
  // Balance is over ORIGINAL vertices: the lifted tree embeds every
  // original id (a contracted cluster's members at one node), and the DP
  // counts multiplicities per node.
  const std::int32_t n = snap.original_vertices();
  if (n % 2 != 0) {
    return guard.fail(
        Status::InvalidArgument("bisection needs an even vertex count"));
  }
  std::vector<cuttree::VertexId> counted(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) counted[static_cast<std::size_t>(v)] = v;
  RunScope scope(ctx);  // the DP polls the run
  const auto result =
      cuttree::balanced_tree_bisection(*snap.vertex_cut_tree, counted);
  if (!result.valid) return guard.dp_failure(scope, "bisection");
  BisectionAnswer answer;
  answer.side = result.side;
  answer.tree_cut = result.tree_cut;
  answer.cut = snap.cut_weight(answer.side);
  guard.ok(answer.cut);
  return answer;
}

StatusOr<TreeServer::KwayAnswer> TreeServer::kway(std::int32_t k,
                                                  const RunContext& ctx) const {
  obs::TraceSpan span("serve.kway");
  QueryObserver guard(*shared_, obs::QueryKind::kKway, ctx);
  if (Status st = guard.admission(); !st.ok()) return st;
  const serve::LoadedSnapshot& snap = *guard.state;
  if (!snap.decomposition.has_value()) {
    return guard.fail(
        Status::InvalidArgument("snapshot has no decomposition tree"));
  }
  const std::int32_t n = snap.original_vertices();
  if (k < 2 || n % k != 0) {
    return guard.fail(Status::InvalidArgument(
        "kway needs k >= 2 dividing the vertex count"));
  }
  const std::int64_t block = n / k;
  KwayAnswer answer;
  answer.part.assign(static_cast<std::size_t>(n), k - 1);
  std::vector<cuttree::VertexId> remaining(static_cast<std::size_t>(n));
  for (std::int32_t v = 0; v < n; ++v) {
    remaining[static_cast<std::size_t>(v)] = v;
  }
  // Peel one n/k block per round off the decomposition tree with the
  // exact edge-cut DP; the last block is the residue.
  RunScope scope(ctx);  // the DPs poll the run
  for (std::int32_t round = 0; round + 1 < k; ++round) {
    const auto result =
        cuttree::tree_edge_partition(*snap.decomposition, remaining, block);
    if (!result.valid) return guard.dp_failure(scope, "kway");
    answer.tree_cut += result.tree_cut;
    std::vector<cuttree::VertexId> next;
    next.reserve(remaining.size() - static_cast<std::size_t>(block));
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      if (result.side[i]) {
        answer.part[static_cast<std::size_t>(remaining[i])] = round;
      } else {
        next.push_back(remaining[i]);
      }
    }
    remaining = std::move(next);
  }
  const auto cost = snap.kway_cost(answer.part);
  answer.cut = cost.first;
  answer.connectivity = cost.second;
  guard.ok(answer.cut);
  return answer;
}

TreeServer::Info TreeServer::info() const {
  Info info;
  const auto snap = state();
  info.num_vertices = snap->original_vertices();
  info.num_edges =
      snap->has_prep ? snap->prep.orig_num_edges : snap->meta.num_edges;
  info.stored_vertices = snap->meta.num_vertices;
  info.stored_edges = snap->meta.num_edges;
  info.preprocessed = snap->has_prep;
  info.prep_stage_flags = snap->has_prep ? snap->prep.stage_flags : 0u;
  info.prep_exact = snap->prep_exact();
  info.format_version = snap->snap.header().version;
  info.snapshot_bytes = snap->snap.size_bytes();
  info.has_gomory_hu = snap->gomory_hu.has_value();
  info.has_vertex_cut_tree = snap->vertex_cut_tree.has_value();
  info.has_decomposition = snap->decomposition.has_value();
  info.gomory_hu_exact =
      (snap->meta.artifact_flags & snapshot::kGomoryHuComplete) != 0;
  info.sharded = snap->has_shards;
  info.num_shards = snap->has_shards ? snap->shard.num_shards : 0;
  info.shards_completed = snap->has_shards ? snap->shard.shards_completed : 0;
  info.boundary_edges = snap->has_shards ? snap->shard.boundary_edges : 0;
  info.queries = shared_->queries.value();
  info.swaps = shared_->swaps.load(std::memory_order_relaxed);
  info.epoch = epoch();
  return info;
}

}  // namespace ht
