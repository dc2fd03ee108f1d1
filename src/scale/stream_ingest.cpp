#include "scale/stream_ingest.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "obs/trace.hpp"
#include "scale/shard_io.hpp"
#include "util/mmap_file.hpp"

namespace ht::scale {

namespace {

constexpr std::size_t kDefaultFlushBytes = std::size_t{1} << 20;  // 1 MiB
constexpr std::size_t kMinFlushBytes = std::size_t{64} << 10;     // 64 KiB

Status parse_error(std::int64_t line_no, const std::string& what) {
  return Status::InvalidArgument("hMetis line " + std::to_string(line_no) +
                                 ": " + what);
}

/// Pulls the next non-comment, non-blank line out of [cursor, end) into
/// `line` (null-terminated so strtod/strtoll can walk it). Returns false
/// at EOF.
bool next_content_line(const char*& cursor, const char* end,
                       std::string& line, std::int64_t& line_no) {
  while (cursor < end) {
    const char* eol = static_cast<const char*>(
        std::memchr(cursor, '\n', static_cast<std::size_t>(end - cursor)));
    const char* stop = eol != nullptr ? eol : end;
    const char* begin = cursor;
    cursor = eol != nullptr ? eol + 1 : end;
    ++line_no;
    while (begin < stop && (*begin == ' ' || *begin == '\t' ||
                            *begin == '\r'))
      ++begin;
    if (begin == stop || *begin == '%') continue;
    line.assign(begin, stop);
    return true;
  }
  return false;
}

bool parse_i64(const char*& p, std::int64_t& out) {
  char* end = nullptr;
  const long long v = std::strtoll(p, &end, 10);
  if (end == p) return false;
  p = end;
  out = v;
  return true;
}

bool parse_f64(const char*& p, double& out) {
  char* end = nullptr;
  const double v = std::strtod(p, &end);
  if (end == p) return false;
  p = end;
  out = v;
  return true;
}

bool at_line_end(const char* p) {
  while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  return *p == '\0';
}

}  // namespace

StatusOr<ShardManifest> shard_hmetis_file(const std::string& path,
                                          const IngestOptions& options) {
  obs::TraceSpan span("scale.ingest");
  auto map = MappedFile::Open(path);
  if (!map.ok()) return map.status();
  const char* cursor = reinterpret_cast<const char*>(map->data());
  const char* const end = cursor + map->size();

  std::string line;
  std::int64_t line_no = 0;
  if (!next_content_line(cursor, end, line, line_no))
    return Status::InvalidArgument("hMetis input is empty");
  const char* p = line.c_str();
  std::int64_t m = 0, n = 0, fmt = 0;
  if (!parse_i64(p, m) || !parse_i64(p, n))
    return parse_error(line_no, "bad header \"" + line + "\"");
  if (!at_line_end(p) && !parse_i64(p, fmt))
    return parse_error(line_no, "bad header \"" + line + "\"");
  if (!at_line_end(p))
    return parse_error(line_no, "trailing junk in header");
  if (m < 0 || n < 0)
    return parse_error(line_no, "negative m or n");
  if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11)
    return parse_error(line_no, "bad fmt field " + std::to_string(fmt));
  const bool ew = (fmt % 10) == 1;
  const bool vw = fmt >= 10;
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

  std::vector<std::int32_t> pins;
  for (std::int64_t e = 0; e < m; ++e) {
    if (!next_content_line(cursor, end, line, line_no))
      return Status::InvalidArgument(
          "unexpected EOF: expected " + std::to_string(m) +
          " hyperedge lines, got " + std::to_string(e));
    p = line.c_str();
    double w = 1.0;
    if (ew && !parse_f64(p, w))
      return parse_error(line_no, "missing edge weight");
    pins.clear();
    std::int64_t pin;
    while (parse_i64(p, pin)) {
      if (pin < 1 || pin > n)
        return parse_error(line_no,
                           "pin out of range: " + std::to_string(pin));
      pins.push_back(static_cast<std::int32_t>(pin - 1));
    }
    if (!at_line_end(p))
      return parse_error(line_no, "non-numeric pin in \"" + line + "\"");
    std::sort(pins.begin(), pins.end());
    pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
    if (pins.size() < 2)
      return parse_error(line_no, "hyperedge needs >= 2 distinct pins");

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

  std::vector<double> vertex_weights(static_cast<std::size_t>(n), 1.0);
  if (vw) {
    for (std::int64_t v = 0; v < n; ++v) {
      if (!next_content_line(cursor, end, line, line_no))
        return Status::InvalidArgument(
            "unexpected EOF: expected " + std::to_string(n) +
            " vertex weight lines, got " + std::to_string(v));
      p = line.c_str();
      double w = 1.0;
      if (!parse_f64(p, w) || !at_line_end(p))
        return parse_error(line_no, "missing vertex weight");
      vertex_weights[static_cast<std::size_t>(v)] = w;
    }
  }
  for (double w : vertex_weights) manifest.total_vertex_weight += w;

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
