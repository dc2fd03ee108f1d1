#include "scale/stream_ingest.hpp"

#include <algorithm>
#include <filesystem>

#include "hypergraph/io.hpp"
#include "obs/trace.hpp"
#include "scale/shard_io.hpp"
#include "util/mmap_file.hpp"

namespace ht::scale {

namespace {

constexpr std::size_t kDefaultFlushBytes = std::size_t{1} << 20;  // 1 MiB
constexpr std::size_t kMinFlushBytes = std::size_t{64} << 10;     // 64 KiB

}  // namespace

StatusOr<ShardManifest> shard_hmetis_file(const std::string& path,
                                          const IngestOptions& options) {
  obs::TraceSpan span("scale.ingest");
  auto map = MappedFile::Open(path);
  if (!map.ok()) return map.status();
  auto reader = hypergraph::HmetisReader::Open(
      {reinterpret_cast<const char*>(map->data()), map->size()});
  if (!reader.ok()) return reader.status();
  const std::int64_t m = reader->num_edges();
  const std::int64_t n = reader->num_vertices();
  if (n < 1)
    return Status::InvalidArgument("sharded ingest needs >= 1 vertex");

  ShardManifest manifest;
  manifest.num_vertices = n;
  const std::int64_t k_raw = options.shards < 1 ? 1 : options.shards;
  const std::int64_t k = std::min<std::int64_t>(k_raw, n);
  manifest.num_shards = static_cast<std::int32_t>(k);
  manifest.ranges.resize(static_cast<std::size_t>(k) + 1);
  for (std::int64_t i = 0; i <= k; ++i)
    manifest.ranges[static_cast<std::size_t>(i)] = i * n / k;

  std::error_code ec;
  std::filesystem::create_directories(options.temp_dir, ec);
  if (ec)
    return Status::InvalidArgument("cannot create temp dir " +
                                   options.temp_dir + ": " + ec.message());
  const std::size_t flush_bytes =
      options.memory_budget_bytes > 0
          ? std::max(kMinFlushBytes, options.memory_budget_bytes /
                                         (4 * static_cast<std::size_t>(k + 1)))
          : kDefaultFlushBytes;

  // Until the manifest is returned, a refusal removes the spill files this
  // call created. Declared before the writers, so they close first.
  struct RemoveSpillsUnlessKept {
    const std::vector<std::string>& paths;
    bool keep = false;
    ~RemoveSpillsUnlessKept() {
      std::error_code remove_ec;
      if (!keep)
        for (const auto& spill : paths)
          std::filesystem::remove(spill, remove_ec);
    }
  } spills{manifest.shard_paths};
  std::vector<ShardWriter> writers;
  writers.reserve(static_cast<std::size_t>(k) + 1);
  for (std::int64_t i = 0; i <= k; ++i) {
    const bool boundary = i == k;
    const std::string shard_path =
        options.temp_dir + "/" +
        (boundary ? std::string("boundary") : "shard" + std::to_string(i)) +
        ".htshard";
    auto w = ShardWriter::Create(
        shard_path, static_cast<std::int32_t>(i),
        static_cast<std::int32_t>(k),
        boundary ? 0 : manifest.ranges[static_cast<std::size_t>(i)],
        boundary ? n : manifest.ranges[static_cast<std::size_t>(i) + 1], n,
        flush_bytes);
    if (!w.ok()) return w.status();
    manifest.shard_paths.push_back(shard_path);
    writers.push_back(std::move(*w));
  }

  auto shard_of = [&](std::int64_t v) -> std::int64_t {
    std::int64_t s = std::min<std::int64_t>(k - 1, v * k / n);
    while (v < manifest.ranges[static_cast<std::size_t>(s)]) --s;
    while (v >= manifest.ranges[static_cast<std::size_t>(s) + 1]) ++s;
    return s;
  };

  double w = 1.0;
  std::vector<std::int32_t> pins;
  for (std::int64_t e = 0; e < m; ++e) {
    Status read = reader->next_edge(w, pins);
    if (!read.ok()) return read;
    const std::int64_t first = shard_of(pins.front());
    const bool interior = shard_of(pins.back()) == first;
    ShardWriter& sink =
        writers[static_cast<std::size_t>(interior ? first : k)];
    Status s = sink.add_edge(w, pins);
    if (!s.ok()) return s;
    if (!interior) {
      manifest.boundary_edges += 1;
      manifest.boundary_pins += static_cast<std::int64_t>(pins.size());
    }
    manifest.num_edges += 1;
    manifest.num_pins += static_cast<std::int64_t>(pins.size());
    manifest.total_edge_weight += w;
  }

  std::vector<double> vertex_weights;
  Status read = reader->read_vertex_weights(vertex_weights);
  if (!read.ok()) return read;
  for (double vw : vertex_weights) manifest.total_vertex_weight += vw;

  for (std::int64_t i = 0; i < k; ++i) {
    auto& writer = writers[static_cast<std::size_t>(i)];
    const std::int64_t lo = manifest.ranges[static_cast<std::size_t>(i)];
    const std::int64_t hi = manifest.ranges[static_cast<std::size_t>(i) + 1];
    Status s = writer.add_vertex_weights(
        {vertex_weights.data() + lo, static_cast<std::size_t>(hi - lo)});
    if (!s.ok()) return s;
  }
  for (auto& writer : writers) {
    Status s = writer.finish();
    if (!s.ok()) return s;
    manifest.spill_bytes += writer.spilled_bytes();
  }
  span.arg("n", n);
  span.arg("m", manifest.num_edges);
  span.arg("pins", manifest.num_pins);
  span.arg("shards", manifest.num_shards);
  span.arg("boundary_edges", manifest.boundary_edges);
  spills.keep = true;
  return manifest;
}

Status validate_manifest(const ShardManifest& manifest) {
  const std::int64_t k = manifest.num_shards;
  if (k < 1 || manifest.ranges.size() != static_cast<std::size_t>(k) + 1 ||
      manifest.shard_paths.size() != static_cast<std::size_t>(k) + 1)
    return Status::InvalidArgument("manifest shape is inconsistent");
  if (manifest.ranges.front() != 0 ||
      manifest.ranges.back() != manifest.num_vertices)
    return Status::InvalidArgument(
        "shard ranges do not cover [0, n): the interior shards must "
        "partition the vertex ids");
  for (std::int64_t i = 0; i < k; ++i) {
    if (manifest.ranges[static_cast<std::size_t>(i)] >
        manifest.ranges[static_cast<std::size_t>(i) + 1])
      return Status::InvalidArgument("shard ranges are not monotone");
  }
  std::uint64_t seen_edges = 0;
  std::uint64_t seen_pins = 0;
  for (std::int64_t i = 0; i <= k; ++i) {
    auto file = ShardFile::open(manifest.shard_paths[
        static_cast<std::size_t>(i)]);
    if (!file.ok()) return file.status();
    const RawShardHeader& h = file->header();
    const bool boundary = i == k;
    const std::int64_t want_lo =
        boundary ? 0 : manifest.ranges[static_cast<std::size_t>(i)];
    const std::int64_t want_hi =
        boundary ? manifest.num_vertices
                 : manifest.ranges[static_cast<std::size_t>(i) + 1];
    if (h.shard_index != i || h.num_shards != k)
      return Status::InvalidArgument(
          "shard file " + manifest.shard_paths[static_cast<std::size_t>(i)] +
          ": header identity disagrees with the manifest");
    if (h.vertex_lo != want_lo || h.vertex_hi != want_hi ||
        h.total_vertices != manifest.num_vertices)
      return Status::InvalidArgument(
          "shard file " + manifest.shard_paths[static_cast<std::size_t>(i)] +
          ": vertex range overlaps or disagrees with the manifest "
          "partition");
    seen_edges += file->total_edges();
    seen_pins += file->total_pins();
  }
  if (seen_edges != static_cast<std::uint64_t>(manifest.num_edges) ||
      seen_pins != static_cast<std::uint64_t>(manifest.num_pins))
    return Status::InvalidArgument(
        "manifest totals disagree with the shard files");
  return Status::Ok();
}

}  // namespace ht::scale
