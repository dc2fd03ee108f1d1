#include "scale/sharded_build.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <vector>

#include "flow/cut_engine.hpp"
#include "hypergraph/hypergraph.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "scale/shard_io.hpp"
#include "serve/snapshot_format.hpp"
#include "serve/snapshot_writer.hpp"
#include "util/run_context.hpp"

namespace ht::scale {

namespace {

using hypergraph::Hypergraph;
using hypergraph::VertexId;

obs::Counter& boundary_pins_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("scale.stitch_boundary_pins");
  return c;
}

obs::Gauge& resident_peak_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "scale.shard_resident_peak_bytes");
  return g;
}

template <typename T>
void append_raw(std::string& out, const T* data, std::size_t count) {
  out.append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

template <typename T>
void append_one(std::string& out, T value) {
  out.append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// The boundary edges touching one shard, pre-localized: pin 0 is the
/// supervertex x, pins >= 1 are (global - lo + 1).
struct ShardBoundary {
  std::vector<double> weights;
  std::vector<std::int64_t> offsets{0};
  std::vector<std::int32_t> local_pins;
  bool empty() const { return weights.empty(); }
};

}  // namespace

Status build_from_manifest(const ShardManifest& manifest,
                           const std::string& out_path,
                           const ShardOptions& options,
                           ShardBuildReport* report) {
  obs::TraceSpan span("scale.build");
  ShardBuildReport local_report;
  ShardBuildReport& rep = report != nullptr ? *report : local_report;
  rep = ShardBuildReport{};
  rep.num_vertices = manifest.num_vertices;
  rep.num_edges = manifest.num_edges;
  rep.num_pins = manifest.num_pins;
  rep.num_shards = manifest.num_shards;
  rep.boundary_edges = manifest.boundary_edges;
  rep.boundary_pins = manifest.boundary_pins;
  rep.spill_bytes = manifest.spill_bytes;

  const std::int64_t n = manifest.num_vertices;
  const std::int32_t k = manifest.num_shards;
  if (n < 2)
    return Status::InvalidArgument("sharded build needs >= 2 vertices");
  if (n > std::numeric_limits<std::int32_t>::max())
    return Status::InvalidArgument("vertex count exceeds the id space");
  Status manifest_status = validate_manifest(manifest);
  if (!manifest_status.ok()) return manifest_status;

  RunState* run = current_run_state();
  const std::size_t budget = options.memory_budget_bytes;

  // The boundary file stays resident for the whole build (the quotient
  // and every shard's H_i^c need it), so it is charged against the
  // budget up front and the store gets the remainder.
  auto boundary = ShardFile::open(
      manifest.shard_paths[static_cast<std::size_t>(k)]);
  if (!boundary.ok()) return boundary.status();
  const std::size_t boundary_bytes = boundary->file_bytes();
  const std::size_t store_budget =
      budget > boundary_bytes ? budget - boundary_bytes : 0;
  std::vector<std::string> interior_paths(
      manifest.shard_paths.begin(), manifest.shard_paths.end() - 1);
  ShardStore store(std::move(interior_paths),
                   static_cast<std::size_t>(
                       options.resident < 1 ? 1 : options.resident),
                   budget == 0 ? 0 : store_budget);

  auto shard_of = [&](std::int64_t v) -> std::int64_t {
    std::int64_t s = std::min<std::int64_t>(k - 1, v * k / n);
    while (v < manifest.ranges[static_cast<std::size_t>(s)]) --s;
    while (v >= manifest.ranges[static_cast<std::size_t>(s) + 1]) ++s;
    return s;
  };

  // One pass over the boundary file: the quotient hypergraph (shard
  // interiors contracted to one vertex each) and the per-shard local
  // boundary edge lists.
  boundary_pins_counter().add(
      static_cast<std::uint64_t>(manifest.boundary_pins));
  std::vector<ShardBoundary> shard_boundary(static_cast<std::size_t>(k));
  Hypergraph quotient(k);
  {
    obs::TraceSpan qspan("scale.quotient");
    std::vector<VertexId> qpins;
    std::vector<std::int64_t> touched;
    for (const ShardSegment& seg : boundary->segments()) {
      if (seg.kind != SegmentKind::kEdges) continue;
      for (std::size_t e = 0; e < seg.edge_weights.size(); ++e) {
        const auto lo = static_cast<std::size_t>(seg.pin_offsets[e]);
        const auto hi = static_cast<std::size_t>(seg.pin_offsets[e + 1]);
        const double w = seg.edge_weights[e];
        qpins.clear();
        touched.clear();
        for (std::size_t p = lo; p < hi; ++p) {
          const std::int64_t s = shard_of(seg.pins[p]);
          if (touched.empty() || touched.back() != s) touched.push_back(s);
        }
        std::sort(touched.begin(), touched.end());
        touched.erase(std::unique(touched.begin(), touched.end()),
                      touched.end());
        if (touched.size() < 2)
          return Status::InvalidArgument(
              "boundary shard holds an edge inside a single vertex range");
        for (std::int64_t s : touched)
          qpins.push_back(static_cast<VertexId>(s));
        quotient.add_edge(qpins, w);
        for (std::int64_t s : touched) {
          ShardBoundary& sb = shard_boundary[static_cast<std::size_t>(s)];
          sb.weights.push_back(w);
          sb.local_pins.push_back(0);  // the supervertex x
          const std::int64_t range_lo =
              manifest.ranges[static_cast<std::size_t>(s)];
          const std::int64_t range_hi =
              manifest.ranges[static_cast<std::size_t>(s) + 1];
          for (std::size_t p = lo; p < hi; ++p) {
            if (seg.pins[p] >= range_lo && seg.pins[p] < range_hi)
              sb.local_pins.push_back(
                  static_cast<std::int32_t>(seg.pins[p] - range_lo + 1));
          }
          sb.offsets.push_back(
              static_cast<std::int64_t>(sb.local_pins.size()));
        }
      }
    }
    qspan.arg("quotient_edges", quotient.num_edges());
  }

  // Exact boundary-quotient Gomory–Hu (k >= 2). Its tree edges are real
  // shard-respecting cuts of H; disconnection here means the instance
  // itself is disconnected.
  flow::HypergraphGomoryHuRunResult quotient_gh;
  if (k >= 2) {
    quotient.finalize();
    if (!hypergraph::is_connected(quotient))
      return Status::InvalidArgument(
          "sharded build requires a connected hypergraph (the shard "
          "quotient is disconnected)");
    obs::TraceSpan qspan("scale.stitch");
    quotient_gh = flow::CutEngine().gomory_hu(quotient);
    rep.quotient_status = quotient_gh.status;
    qspan.arg("applied", quotient_gh.applied);
  } else {
    rep.quotient_status = Status::Ok();
  }

  // Global stitched tree plus the streamed CSR payloads, filled one
  // shard at a time while that shard is resident.
  std::vector<std::int32_t> gh_parent(static_cast<std::size_t>(n), 0);
  std::vector<double> gh_parent_cut(static_cast<std::size_t>(n), 0.0);
  std::vector<std::int32_t> anchors(static_cast<std::size_t>(k), 0);
  std::string weights_bytes, offsets_bytes, pins_bytes, vweights_bytes;
  weights_bytes.reserve(static_cast<std::size_t>(manifest.num_edges) * 8);
  pins_bytes.reserve(static_cast<std::size_t>(manifest.num_pins) * 4);
  offsets_bytes.reserve(
      (static_cast<std::size_t>(manifest.num_edges) + 1) * 8);
  std::int64_t pin_total = 0;
  append_one<std::int64_t>(offsets_bytes, 0);

  std::int64_t gh_applied = 0;
  bool all_shards_complete = true;
  for (std::int32_t i = 0; i < k; ++i) {
    obs::TraceSpan shard_span("scale.shard_build");
    shard_span.arg("shard", i);
    auto file = store.get(static_cast<std::size_t>(i));
    if (!file.ok()) return file.status();
    const ShardFile& shard = **file;
    const std::int64_t range_lo =
        manifest.ranges[static_cast<std::size_t>(i)];
    const std::int64_t range_hi =
        manifest.ranges[static_cast<std::size_t>(i) + 1];
    const auto n_i = static_cast<std::int32_t>(range_hi - range_lo);

    // CSR emission (always, even when the run is stopped: the snapshot
    // stores the full instance regardless of how far the trees got).
    for (const ShardSegment& seg : shard.segments()) {
      if (seg.kind != SegmentKind::kEdges) continue;
      append_raw(weights_bytes, seg.edge_weights.data(),
                 seg.edge_weights.size());
      append_raw(pins_bytes, seg.pins.data(), seg.pins.size());
      for (std::size_t e = 0; e < seg.edge_weights.size(); ++e) {
        pin_total += seg.pin_offsets[e + 1] - seg.pin_offsets[e];
        append_one<std::int64_t>(offsets_bytes, pin_total);
      }
    }
    if (shard.vertex_weights().empty()) {
      for (std::int32_t v = 0; v < n_i; ++v)
        append_one<double>(vweights_bytes, 1.0);
    } else {
      append_raw(vweights_bytes, shard.vertex_weights().data(),
                 shard.vertex_weights().size());
    }

    const ShardBoundary& sb = shard_boundary[static_cast<std::size_t>(i)];
    const bool has_x = !sb.empty();
    const std::int32_t base = has_x ? 1 : 0;
    const auto g = [&](std::int32_t local) -> std::int32_t {
      return static_cast<std::int32_t>(range_lo + local - base);
    };

    const bool stopped = run != nullptr && !run->check().ok();
    if (stopped) {
      // Anytime: this shard becomes a star of leaves under its first
      // vertex, parent_cut 0 — the same pessimistic lower bound an
      // interrupted in-memory Gomory–Hu leaves behind.
      all_shards_complete = false;
      anchors[static_cast<std::size_t>(i)] =
          static_cast<std::int32_t>(range_lo);
      for (std::int32_t v = 1; v < n_i; ++v)
        gh_parent[static_cast<std::size_t>(range_lo + v)] =
            static_cast<std::int32_t>(range_lo);
      continue;
    }

    // H_i^c: local 0 is the supervertex x (when the shard touches any
    // boundary edge), locals [base, base + n_i) are the shard vertices.
    Hypergraph local(n_i + base);
    std::vector<VertexId> pins;
    for (const ShardSegment& seg : shard.segments()) {
      if (seg.kind != SegmentKind::kEdges) continue;
      for (std::size_t e = 0; e < seg.edge_weights.size(); ++e) {
        pins.clear();
        for (std::int64_t p = seg.pin_offsets[e]; p < seg.pin_offsets[e + 1];
             ++p)
          pins.push_back(static_cast<VertexId>(
              seg.pins[static_cast<std::size_t>(p)] - range_lo + base));
        local.add_edge(pins, seg.edge_weights[e]);
      }
    }
    for (std::size_t e = 0; e < sb.weights.size(); ++e) {
      pins.assign(sb.local_pins.begin() + sb.offsets[e],
                  sb.local_pins.begin() + sb.offsets[e + 1]);
      local.add_edge(pins, sb.weights[e]);
    }
    local.finalize();
    if (!hypergraph::is_connected(local))
      return Status::InvalidArgument(
          "sharded build requires a connected hypergraph (shard " +
          std::to_string(i) + " is internally disconnected)");

    const auto gh = flow::CutEngine().gomory_hu(local);
    if (!gh.status.ok()) all_shards_complete = false;
    else ++rep.shards_completed;

    if (has_x) {
      // Root is x (local 0). Pick the anchor: x's heaviest child (ties
      // to the smaller id). Re-parenting x's other children onto the
      // anchor preserves every within-shard path minimum: the dropped
      // x-edge was the maximum over x's child edges.
      std::int32_t anchor_local = 1;
      double anchor_cut = -1.0;
      for (std::int32_t v = 1; v <= n_i; ++v) {
        if (gh.tree.parent[static_cast<std::size_t>(v)] != 0) continue;
        const double cut = gh.tree.parent_cut[static_cast<std::size_t>(v)];
        if (cut > anchor_cut) {
          anchor_cut = cut;
          anchor_local = v;
        }
      }
      anchors[static_cast<std::size_t>(i)] = g(anchor_local);
      for (std::int32_t v = 1; v <= n_i; ++v) {
        if (v == anchor_local) continue;
        const std::int32_t p = gh.tree.parent[static_cast<std::size_t>(v)];
        gh_parent[static_cast<std::size_t>(g(v))] =
            p == 0 ? g(anchor_local) : g(p);
        gh_parent_cut[static_cast<std::size_t>(g(v))] =
            gh.tree.parent_cut[static_cast<std::size_t>(v)];
      }
      gh_applied += std::max<std::int64_t>(0, gh.applied - 1);
    } else {
      // K == 1: the local tree IS the global tree (root = first vertex).
      anchors[static_cast<std::size_t>(i)] = g(gh.tree.root);
      for (std::int32_t v = 0; v < n_i; ++v) {
        const std::int32_t p = gh.tree.parent[static_cast<std::size_t>(v)];
        if (p < 0) continue;
        gh_parent[static_cast<std::size_t>(g(v))] = g(p);
        gh_parent_cut[static_cast<std::size_t>(g(v))] =
            gh.tree.parent_cut[static_cast<std::size_t>(v)];
      }
      gh_applied += gh.applied;
    }
    shard_span.arg("applied", gh.applied);
  }

  // Boundary edges close the CSR (global edge order: shard 0..K-1
  // interiors, then the boundary edges in ingest order).
  for (const ShardSegment& seg : boundary->segments()) {
    if (seg.kind != SegmentKind::kEdges) continue;
    append_raw(weights_bytes, seg.edge_weights.data(),
               seg.edge_weights.size());
    append_raw(pins_bytes, seg.pins.data(), seg.pins.size());
    for (std::size_t e = 0; e < seg.edge_weights.size(); ++e) {
      pin_total += seg.pin_offsets[e + 1] - seg.pin_offsets[e];
      append_one<std::int64_t>(offsets_bytes, pin_total);
    }
  }

  // Graft the quotient: anchors connect shard subtrees with the exact
  // shard-respecting cut values.
  std::int32_t root = anchors[0];
  const bool quotient_complete = k < 2 || quotient_gh.status.ok();
  if (k >= 2) {
    root = anchors[static_cast<std::size_t>(quotient_gh.tree.root)];
    for (std::int32_t j = 0; j < k; ++j) {
      const std::int32_t qp =
          quotient_gh.tree.parent[static_cast<std::size_t>(j)];
      if (qp < 0) continue;
      const std::int32_t a = anchors[static_cast<std::size_t>(j)];
      gh_parent[static_cast<std::size_t>(a)] =
          anchors[static_cast<std::size_t>(qp)];
      gh_parent_cut[static_cast<std::size_t>(a)] =
          quotient_gh.tree.parent_cut[static_cast<std::size_t>(j)];
    }
    gh_applied += quotient_gh.applied;
  }
  gh_parent[static_cast<std::size_t>(root)] = -1;
  gh_parent_cut[static_cast<std::size_t>(root)] = 0.0;

  rep.complete = all_shards_complete && quotient_complete &&
                 (run == nullptr || run->check().ok());
  double min_edge = std::numeric_limits<double>::infinity();
  for (std::int64_t v = 0; v < n; ++v) {
    if (v == root) continue;
    min_edge = std::min(min_edge, gh_parent_cut[static_cast<std::size_t>(v)]);
  }
  rep.global_min_cut = min_edge;
  rep.peak_resident_bytes = store.peak_resident_bytes() + boundary_bytes;
  resident_peak_gauge().update_max(
      static_cast<std::int64_t>(rep.peak_resident_bytes));

  // Assemble and publish the snapshot (same section order as the
  // in-memory build, plus the shard provenance sections).
  obs::TraceSpan write_span("scale.write");
  snapshot::MetaBlock meta;
  std::memset(&meta, 0, sizeof(meta));
  meta.build_seed = options.seed;
  meta.num_vertices = static_cast<std::int32_t>(n);
  meta.num_edges = static_cast<std::int32_t>(manifest.num_edges);
  meta.num_pins = manifest.num_pins;
  meta.total_edge_weight = manifest.total_edge_weight;
  meta.total_vertex_weight = manifest.total_vertex_weight;
  meta.gh_root = root;
  meta.gh_applied = static_cast<std::int32_t>(
      std::min<std::int64_t>(gh_applied, n - 1));
  if (rep.complete) meta.artifact_flags |= snapshot::kGomoryHuComplete;

  snapshot::Writer writer;
  writer.add_meta(meta);
  writer.add_owned_bytes(snapshot::SectionKind::kVertexWeights, 8,
                         std::move(vweights_bytes));
  writer.add_owned_bytes(snapshot::SectionKind::kEdgeWeights, 8,
                         std::move(weights_bytes));
  writer.add_owned_bytes(snapshot::SectionKind::kPinOffsets, 8,
                         std::move(offsets_bytes));
  writer.add_owned_bytes(snapshot::SectionKind::kPins, 4,
                         std::move(pins_bytes));
  writer.add_span(snapshot::SectionKind::kGhParent,
                  std::span<const std::int32_t>(gh_parent));
  writer.add_span(snapshot::SectionKind::kGhParentCut,
                  std::span<const double>(gh_parent_cut));
  snapshot::ShardBlock shard_block;
  std::memset(&shard_block, 0, sizeof(shard_block));
  shard_block.boundary_edges = manifest.boundary_edges;
  shard_block.boundary_pins = manifest.boundary_pins;
  shard_block.num_shards = k;
  shard_block.shards_completed = rep.shards_completed;
  writer.add_bytes(snapshot::SectionKind::kShardMeta, sizeof(shard_block),
                   &shard_block, sizeof(shard_block));
  writer.add_span(snapshot::SectionKind::kShardRanges,
                  std::span<const std::int64_t>(manifest.ranges));
  if (!options.build_info.empty()) writer.add_build_info(options.build_info);

  auto bytes = writer.serialize();
  if (!bytes.ok()) return bytes.status();
  rep.snapshot_bytes = bytes->size();
  rep.spill_bytes = manifest.spill_bytes + store.reload_bytes();
  span.arg("snapshot_bytes", rep.snapshot_bytes);
  span.arg("shards_completed", rep.shards_completed);
  return snapshot::write_bytes_atomic(out_path, *bytes);
}

Status build_snapshot_sharded(const std::string& hmetis_path,
                              const std::string& out_path,
                              const ShardOptions& options,
                              ShardBuildReport* report) {
  IngestOptions ingest;
  ingest.shards = options.shards;
  ingest.temp_dir =
      options.temp_dir.empty() ? out_path + ".shards" : options.temp_dir;
  ingest.memory_budget_bytes = options.memory_budget_bytes;
  auto manifest = shard_hmetis_file(hmetis_path, ingest);
  Status built = manifest.status();
  std::error_code ec;
  if (manifest.ok()) {
    built = build_from_manifest(*manifest, out_path, options, report);
    for (const auto& spill : manifest->shard_paths)
      std::filesystem::remove(spill, ec);
  }
  // A refused ingest has removed its own spill files. The directory goes
  // only once it is empty, so a caller's directory keeps the files the
  // build did not write.
  std::filesystem::remove(ingest.temp_dir, ec);
  return built;
}

}  // namespace ht::scale
