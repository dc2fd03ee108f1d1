// Tests for the sharded out-of-core build pipeline (src/scale/):
// Hash64Stream equivalence, shard spill file round trips, malformed /
// tampered ingest artifacts (truncation, checksum flips, overlapping
// ranges, empty shards), stitched-build correctness against the
// in-memory builder, anytime interruption, byte-determinism across
// thread counts, the build report's counters and a residency budget that
// binds.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "ht/hypertree.hpp"
#include "scale/shard_format.hpp"
#include "scale/shard_io.hpp"
#include "scale/sharded_build.hpp"
#include "scale/stream_ingest.hpp"
#include "serve/tree_server.hpp"
#include "util/hash64.hpp"

namespace {

using ht::scale::IngestOptions;
using ht::scale::ShardFile;
using ht::scale::ShardManifest;
using ht::scale::ShardOptions;
using ht::scale::ShardStore;
using ht::scale::ShardWriter;

std::filesystem::path temp_dir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Puts a file of the caller's into a sharded build's spill directory: the
/// build may remove the spill files it writes there, and nothing else.
std::filesystem::path plant_callers_file(const std::string& temp_dir) {
  std::filesystem::create_directories(temp_dir);
  const auto path = std::filesystem::path(temp_dir) / "callers.txt";
  std::ofstream(path) << "not a spill file\n";
  return path;
}

/// True when `file` is the only entry left in its directory.
bool only_entry_left(const std::filesystem::path& file) {
  if (!std::filesystem::exists(file)) return false;
  const std::filesystem::directory_iterator it(file.parent_path());
  return std::distance(begin(it), end(it)) == 1;
}

/// A ring of `clusters` dense blocks of `size` vertices: every block
/// carries one fat hyperedge over all members plus a triangle lattice,
/// and consecutive blocks are bridged by two 2-pin edges. The global min
/// cut respects any vertex-range partition that splits on block borders.
std::string write_ring_hmetis(const std::filesystem::path& dir, int clusters,
                              int size) {
  std::vector<std::vector<int>> edges;
  for (int c = 0; c < clusters; ++c) {
    const int base = c * size;
    std::vector<int> fat;
    for (int i = 0; i < size; ++i) fat.push_back(base + i);
    edges.push_back(fat);
    for (int i = 0; i + 2 < size; ++i)
      edges.push_back({base + i, base + i + 1, base + i + 2});
    const int next = ((c + 1) % clusters) * size;
    edges.push_back({base, next});
    edges.push_back({base + 1, next + 1});
  }
  const auto path = dir / "ring.hmetis";
  std::ofstream out(path);
  out << edges.size() << " " << clusters * size << "\n";
  for (const auto& pins : edges) {
    for (std::size_t i = 0; i < pins.size(); ++i)
      out << (i ? " " : "") << pins[i] + 1;
    out << "\n";
  }
  return path.string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

struct RingBuild {
  ht::scale::ShardBuildReport report;
  std::string bytes;  // the published snapshot
};

/// One-thread sharded build of the 300 x 10 ring (perfbench's ring300x10
/// instance) into 16 vertex-range shards.
RingBuild build_ring_300x10(const std::filesystem::path& dir,
                            const std::string& hmetis,
                            const std::string& name, std::int32_t resident,
                            std::size_t budget_bytes) {
  ht::RunContext ctx;
  ctx.with_threads(1);
  ht::Solver solver(ctx);
  ShardOptions options;
  options.shards = 16;
  options.resident = resident;
  options.memory_budget_bytes = budget_bytes;
  options.temp_dir = (dir / (name + ".shards")).string();
  RingBuild build;
  const std::string out = (dir / name).string();
  EXPECT_TRUE(
      solver.build_snapshot_sharded(hmetis, out, options, &build.report).ok())
      << name;
  build.bytes = read_file(out);
  return build;
}

TEST(Hash64Stream, MatchesOneShotAcrossSplits) {
  std::vector<std::uint8_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>((i * 37 + 11) & 0xff);
  const std::uint64_t want =
      ht::hash64(data.data(), data.size(), ht::scale::kShardChecksumSeed);
  for (std::size_t split : {0ul, 1ul, 31ul, 32ul, 33ul, 64ul, 999ul}) {
    ht::Hash64Stream stream(ht::scale::kShardChecksumSeed);
    stream.update(data.data(), split);
    stream.update(data.data() + split, data.size() - split);
    EXPECT_EQ(stream.digest(), want) << "split=" << split;
    EXPECT_EQ(stream.total_bytes(), data.size());
  }
}

TEST(ShardIo, WriterReaderRoundTrip) {
  const auto dir = temp_dir("ht_scale_roundtrip");
  const std::string path = (dir / "s0.htshard").string();
  // Tiny flush threshold: forces several segments, exercising the
  // segment walk and the checksum-per-segment layout.
  auto writer = ShardWriter::Create(path, 0, 2, 0, 4, 8, /*flush_bytes=*/64);
  ASSERT_TRUE(writer.ok()) << writer.status().to_string();
  const std::vector<std::vector<std::int32_t>> edges = {
      {0, 1}, {1, 2, 3}, {0, 3}, {2, 3}, {0, 1, 2, 3}};
  for (std::size_t e = 0; e < edges.size(); ++e)
    ASSERT_TRUE(writer->add_edge(1.0 + static_cast<double>(e),
                                 edges[e]).ok());
  const std::vector<double> vweights = {1.0, 2.0, 3.0, 4.0};
  ASSERT_TRUE(writer->add_vertex_weights(vweights).ok());
  ASSERT_TRUE(writer->finish().ok());
  EXPECT_GT(writer->spilled_bytes(), 0u);  // threshold forced spills

  auto file = ShardFile::open(path);
  ASSERT_TRUE(file.ok()) << file.status().to_string();
  EXPECT_EQ(file->total_edges(), edges.size());
  EXPECT_GT(file->segments().size(), 1u);  // more than one CSR segment
  std::size_t seen_edges = 0;
  std::vector<std::int32_t> got_pins;
  for (const auto& seg : file->segments()) {
    if (seg.kind != ht::scale::SegmentKind::kEdges) continue;
    for (std::size_t e = 0; e < seg.edge_weights.size(); ++e) {
      EXPECT_DOUBLE_EQ(seg.edge_weights[e],
                       1.0 + static_cast<double>(seen_edges));
      got_pins.assign(seg.pins.begin() + seg.pin_offsets[e],
                      seg.pins.begin() + seg.pin_offsets[e + 1]);
      EXPECT_EQ(got_pins, edges[seen_edges]);
      ++seen_edges;
    }
  }
  EXPECT_EQ(seen_edges, edges.size());
  ASSERT_EQ(file->vertex_weights().size(), vweights.size());
  for (std::size_t v = 0; v < vweights.size(); ++v)
    EXPECT_DOUBLE_EQ(file->vertex_weights()[v], vweights[v]);
}

TEST(ShardIo, RejectsTruncatedFile) {
  const auto dir = temp_dir("ht_scale_trunc");
  const std::string path = (dir / "s0.htshard").string();
  auto writer = ShardWriter::Create(path, 0, 1, 0, 4, 4, 0);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->add_edge(1.0, std::vector<std::int32_t>{0, 1}).ok());
  ASSERT_TRUE(writer->finish().ok());
  const auto full = std::filesystem::file_size(path);

  // Every truncation point must fail validation — including cuts exactly
  // at segment boundaries, which only the trailer's totals can detect.
  for (std::uintmax_t keep :
       {full - 1, full - sizeof(ht::scale::RawShardTrailer), full / 2,
        static_cast<std::uintmax_t>(sizeof(ht::scale::RawShardHeader)),
        static_cast<std::uintmax_t>(8)}) {
    std::filesystem::copy_file(
        path, (dir / "cut.htshard"),
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(dir / "cut.htshard", keep);
    auto file = ShardFile::open((dir / "cut.htshard").string());
    EXPECT_FALSE(file.ok()) << "keep=" << keep;
  }
}

TEST(ShardIo, RejectsChecksumFlip) {
  const auto dir = temp_dir("ht_scale_flip");
  const std::string path = (dir / "s0.htshard").string();
  auto writer = ShardWriter::Create(path, 0, 1, 0, 8, 8, 0);
  ASSERT_TRUE(writer.ok());
  for (std::int32_t v = 0; v + 1 < 8; ++v)
    ASSERT_TRUE(
        writer->add_edge(1.0, std::vector<std::int32_t>{v, v + 1}).ok());
  ASSERT_TRUE(writer->finish().ok());
  ASSERT_TRUE(ShardFile::open(path).ok());

  // Flip one byte in the header magic, deep inside the (single) segment
  // payload, and in the trailer's totals. All must be caught by a
  // checksum (or magic) mismatch.
  const auto size = std::filesystem::file_size(path);
  for (std::uintmax_t off : {static_cast<std::uintmax_t>(3),
                             static_cast<std::uintmax_t>(150),
                             size - 10}) {
    std::filesystem::copy_file(
        path, dir / "bad.htshard",
        std::filesystem::copy_options::overwrite_existing);
    std::fstream f((dir / "bad.htshard").string(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(off));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(off));
    f.write(&byte, 1);
    f.close();
    auto file = ShardFile::open((dir / "bad.htshard").string());
    EXPECT_FALSE(file.ok()) << "offset=" << off;
  }
}

TEST(ShardIo, StoreEvictsFifoUnderResidencyCap) {
  const auto dir = temp_dir("ht_scale_store");
  std::vector<std::string> paths;
  for (int i = 0; i < 3; ++i) {
    const std::string path = (dir / ("s" + std::to_string(i) + ".htshard"))
                                 .string();
    auto writer = ShardWriter::Create(path, i, 3, i * 4, (i + 1) * 4, 12, 0);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer
                    ->add_edge(1.0, std::vector<std::int32_t>{i * 4,
                                                              i * 4 + 1})
                    .ok());
    ASSERT_TRUE(writer->finish().ok());
    paths.push_back(path);
  }
  ShardStore store(paths, /*resident=*/2, /*budget_bytes=*/0);
  ASSERT_TRUE(store.get(0).ok());
  ASSERT_TRUE(store.get(1).ok());
  EXPECT_EQ(store.resident_count(), 2u);
  EXPECT_EQ(store.reload_bytes(), 0u);
  ASSERT_TRUE(store.get(2).ok());  // evicts shard 0 (FIFO)
  EXPECT_EQ(store.resident_count(), 2u);
  auto again = store.get(0);  // reload: counts as spill traffic
  ASSERT_TRUE(again.ok());
  EXPECT_GT(store.reload_bytes(), 0u);
  EXPECT_GT(store.peak_resident_bytes(), 0u);
}

TEST(StreamIngest, ManifestMatchesInMemoryReader) {
  const auto dir = temp_dir("ht_scale_ingest");
  // Valid, with comments, an indented comment, whitespace-only lines, CRLF
  // endings, duplicate pins and both weight columns (fmt 11).
  const std::string tricky = (dir / "tricky.hmetis").string();
  {
    std::ofstream out(tricky, std::ios::binary);
    out << "% comment\r\n  \t% indented comment\r\n4 6 11\r\n \t \r\n"
           "2.5 1 2 2 3\r\n0.5 3 4\r\n\r\n1 4 5 5 6\r\n3 6 1\r\n"
           "1\r\n2\r\n0.25\r\n4\r\n  % between\r\n5\r\n6\r\n";
  }
  const std::string ring = write_ring_hmetis(dir, 6, 8);
  for (const std::string& hmetis : {ring, tricky}) {
    SCOPED_TRACE(hmetis);
    IngestOptions options;
    options.shards = 6;
    options.temp_dir = hmetis + ".shards";
    auto manifest = ht::scale::shard_hmetis_file(hmetis, options);
    ASSERT_TRUE(manifest.ok()) << manifest.status().to_string();
    auto parsed = ht::Solver::read_hmetis(hmetis);
    ASSERT_TRUE(parsed.has_value()) << parsed.status().to_string();
    EXPECT_EQ(manifest->num_vertices, parsed->num_vertices());
    EXPECT_EQ(manifest->num_edges, parsed->num_edges());
    EXPECT_EQ(manifest->total_edge_weight, parsed->total_edge_weight());
    EXPECT_EQ(manifest->total_vertex_weight, parsed->total_vertex_weight());
    EXPECT_EQ(manifest->num_shards, 6);
    EXPECT_GT(manifest->boundary_edges, 0);
    EXPECT_TRUE(ht::scale::validate_manifest(*manifest).ok());

    // Interior + boundary edge counts must partition the instance.
    std::int64_t interior = 0;
    for (int i = 0; i < manifest->num_shards; ++i) {
      auto file = ShardFile::open(manifest->shard_paths[i]);
      ASSERT_TRUE(file.ok());
      interior += static_cast<std::int64_t>(file->total_edges());
    }
    EXPECT_EQ(interior + manifest->boundary_edges, manifest->num_edges);
  }
  auto parsed = ht::Solver::read_hmetis(tricky);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->num_edges(), 4);
  EXPECT_EQ(parsed->total_edge_weight(), 7.0);
  EXPECT_EQ(parsed->total_vertex_weight(), 18.25);
  EXPECT_EQ(parsed->edge_size(0), 3);  // "1 2 2 3"
}

TEST(StreamIngest, RejectsMalformedInputs) {
  // Both build paths parse through one HmetisReader: every malformed text
  // gets the same kInvalidArgument from the in-memory reader, from the
  // sharded ingest and from the whole sharded build, which also removes
  // the spill files the ingest wrote before it refused the text.
  const struct {
    const char* text;
    const char* message;
  } bad[] = {
      {"3 4\n1 2\n3 4\n",
       "hMetis line 4: input ends after 2 of 3 hyperedge lines"},
      {"1 4\n1 9\n", "hMetis line 2: pin \"9\" is not an integer in [1, 4]"},
      {"1 4\n2 2\n", "hMetis line 2: hyperedge needs >= 2 distinct pins"},
      {"1 4 7\n1 2\n", "hMetis line 1: fmt 7 is not one of 0, 1, 10, 11"},
      {"", "hMetis line 1: input has no header \"m n [fmt]\""},
      {"% only a comment\n", "hMetis line 2: input has no header \"m n [fmt]\""},
      {"notanumber\n",
       "hMetis line 1: bad header \"notanumber\", expected \"m n [fmt]\""},
      {"2 4 7\n1 2\n3 4\n", "hMetis line 1: fmt 7 is not one of 0, 1, 10, 11"},
      {"-1 4\n", "hMetis line 1: m = -1 is outside [0, 2^31 - 1]"},
      {"2 4\n1 2\n", "hMetis line 3: input ends after 1 of 2 hyperedge lines"},
      {"1 4\n1 x 2\n", "hMetis line 2: pin \"x\" is not an integer in [1, 4]"},
      {"1 4 1\nw 1 2\n",
       "hMetis line 2: edge weight \"w\" is not a finite number >= 0"},
      {"1 4 10\n1 2\n1.5\n",
       "hMetis line 4: input ends after 1 of 4 vertex weight lines"},
      {"1 4\n3\n", "hMetis line 2: hyperedge needs >= 2 distinct pins"},
      {"1 4 1\n-2 1 2\n",
       "hMetis line 2: edge weight \"-2\" is not a finite number >= 0"},
      {"1 4 1\nnan 1 2\n",
       "hMetis line 2: edge weight \"nan\" is not a finite number >= 0"},
      {"1 4 1\ninf 1 2\n",
       "hMetis line 2: edge weight \"inf\" is not a finite number >= 0"},
      {"1 2 10\n1 2\n1\n-3\n",
       "hMetis line 4: vertex weight \"-3\" is not a finite number >= 0"},
      {"2 3 abc\n1 2\n2 3\n",
       "hMetis line 1: bad header \"2 3 abc\", expected \"m n [fmt]\""},
      {"2 3 11 junk\n1 1 2\n1 2 3\n1\n1\n1\n",
       "hMetis line 1: bad header \"2 3 11 junk\", expected \"m n [fmt]\""},
      {"1 2 10\n1 2\n1 7\n1\n",
       "hMetis line 3: a vertex weight line holds exactly one weight"},
      // Refused at line 1, before anything is allocated per vertex.
      {"1 4294967298\n1 2\n",
       "hMetis line 1: n = 4294967298 is outside [0, 2^31 - 1]"},
      {"2 3\n1 2\n2 3\n1 3\n",
       "hMetis line 4: more lines than the header promises"},
      {"1 2 10\n1 2\n1\n1\n7\n",
       "hMetis line 5: more lines than the header promises"},
  };
  const auto dir = temp_dir("ht_scale_badinput");
  IngestOptions options;
  options.temp_dir = (dir / "shards").string();
  int index = 0;
  for (const auto& [text, message] : bad) {
    SCOPED_TRACE(testing::Message() << "input: \"" << text << '"');
    const std::string path =
        (dir / ("bad" + std::to_string(index++) + ".hmetis")).string();
    {
      std::ofstream out(path, std::ios::binary);
      out << text;
    }
    const auto in_memory = ht::Solver::read_hmetis(path);
    const auto sharded = ht::scale::shard_hmetis_file(path, options);
    EXPECT_FALSE(in_memory.has_value());
    EXPECT_FALSE(sharded.has_value());
    EXPECT_EQ(in_memory.status().code(), ht::StatusCode::kInvalidArgument);
    EXPECT_EQ(sharded.status().code(), ht::StatusCode::kInvalidArgument);
    EXPECT_EQ(in_memory.status().message(), message);
    EXPECT_EQ(sharded.status().message(), message);
    const std::string snapshot = path + ".htsnap";
    const ht::Status built =
        ht::Solver().build_snapshot_sharded(path, snapshot);
    EXPECT_EQ(built.code(), ht::StatusCode::kInvalidArgument);
    EXPECT_EQ(built.message(), message);
    EXPECT_FALSE(std::filesystem::exists(snapshot + ".shards"));
    EXPECT_FALSE(std::filesystem::exists(snapshot));
  }
}

TEST(StreamIngest, ValidateManifestCatchesOverlappingRanges) {
  const auto dir = temp_dir("ht_scale_overlap");
  const std::string hmetis = write_ring_hmetis(dir, 4, 6);
  IngestOptions options;
  options.shards = 4;
  options.temp_dir = (dir / "shards").string();
  auto manifest = ht::scale::shard_hmetis_file(hmetis, options);
  ASSERT_TRUE(manifest.ok());
  ASSERT_TRUE(ht::scale::validate_manifest(*manifest).ok());

  // Overlap: range 1 claims vertices already owned by range 0. The
  // manifest now disagrees with the shard files' headers.
  ShardManifest bad = *manifest;
  bad.ranges[1] -= 2;
  EXPECT_FALSE(ht::scale::validate_manifest(bad).ok());
  // Non-partition: a gap at the end.
  bad = *manifest;
  bad.ranges.back() += 1;
  EXPECT_FALSE(ht::scale::validate_manifest(bad).ok());
  // Swapped shard files: headers declare the wrong index for their slot.
  bad = *manifest;
  std::swap(bad.shard_paths[0], bad.shard_paths[1]);
  EXPECT_FALSE(ht::scale::validate_manifest(bad).ok());
}

TEST(StreamIngest, EmptyInteriorShardsAreValid) {
  // 2 vertices, 4 shards requested: K clamps to n = 2; every edge is
  // boundary (the two vertices land in different ranges).
  const auto dir = temp_dir("ht_scale_empty");
  const auto path = dir / "two.hmetis";
  {
    std::ofstream out(path);
    out << "1 2\n1 2\n";
  }
  IngestOptions options;
  options.shards = 4;
  options.temp_dir = (dir / "shards").string();
  auto manifest = ht::scale::shard_hmetis_file(path.string(), options);
  ASSERT_TRUE(manifest.ok()) << manifest.status().to_string();
  EXPECT_EQ(manifest->num_shards, 2);
  EXPECT_EQ(manifest->boundary_edges, 1);
  for (int i = 0; i < manifest->num_shards; ++i) {
    auto file = ShardFile::open(manifest->shard_paths[i]);
    ASSERT_TRUE(file.ok());
    EXPECT_EQ(file->total_edges(), 0u);  // interior shards are empty
  }
  // And the stitched build still produces a servable snapshot.
  const std::string snap = (dir / "two.htsnap").string();
  ShardOptions build;
  build.shards = 2;
  ASSERT_TRUE(
      ht::scale::build_from_manifest(*manifest, snap, build, nullptr).ok());
  auto server = ht::TreeServer::open(snap);
  ASSERT_TRUE(server.has_value());
  auto answer = server->global_min_cut();
  ASSERT_TRUE(answer.has_value());
  EXPECT_DOUBLE_EQ(answer->value, 1.0);
}

TEST(ShardedBuild, MatchesInMemoryGlobalMinCut) {
  const auto dir = temp_dir("ht_scale_build");
  const std::string hmetis = write_ring_hmetis(dir, 6, 8);
  ht::Solver solver;

  const std::string mem_snap = (dir / "mem.htsnap").string();
  auto parsed = ht::Solver::read_hmetis(hmetis);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(solver.build_snapshot(*parsed, mem_snap).ok());

  const std::string shard_snap = (dir / "shard.htsnap").string();
  ShardOptions options;
  options.shards = 6;
  options.resident = 2;
  ht::scale::ShardBuildReport report;
  ASSERT_TRUE(
      solver.build_snapshot_sharded(hmetis, shard_snap, options, &report)
          .ok());
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.shards_completed, 6);
  EXPECT_EQ(report.num_vertices, parsed->num_vertices());
  EXPECT_EQ(report.num_edges, parsed->num_edges());

  auto mem_server = ht::TreeServer::open(mem_snap);
  auto shard_server = ht::TreeServer::open(shard_snap);
  ASSERT_TRUE(mem_server.has_value());
  ASSERT_TRUE(shard_server.has_value());

  const auto mem_min = mem_server->global_min_cut();
  const auto shard_min = shard_server->global_min_cut();
  ASSERT_TRUE(mem_min.has_value());
  ASSERT_TRUE(shard_min.has_value());
  EXPECT_TRUE(mem_min->exact);
  EXPECT_TRUE(shard_min->dominating);
  EXPECT_DOUBLE_EQ(shard_min->value, mem_min->value);
  EXPECT_DOUBLE_EQ(report.global_min_cut, mem_min->value);

  // Point queries on this instance: every sampled min cut lies within a
  // shard or across shard anchors, so the stitched walk serves exactly
  // the in-memory answer, still labelled dominating.
  const auto info = shard_server->info();
  EXPECT_TRUE(info.sharded);
  EXPECT_EQ(info.num_shards, 6);
  EXPECT_EQ(info.shards_completed, 6);
  int pairs = 0;
  for (std::int32_t s = 0; s < parsed->num_vertices(); s += 7) {
    for (std::int32_t t = s + 1; t < parsed->num_vertices(); t += 11) {
      const auto exact = mem_server->min_cut(s, t);
      const auto dominating = shard_server->min_cut(s, t);
      ASSERT_TRUE(exact.has_value());
      ASSERT_TRUE(dominating.has_value());
      EXPECT_EQ(dominating->value, exact->value) << "s=" << s << " t=" << t;
      EXPECT_FALSE(dominating->exact);
      EXPECT_TRUE(dominating->dominating);
      ++pairs;
    }
  }
  EXPECT_EQ(pairs, 20);
}

TEST(ShardedBuild, ByteIdenticalAcrossThreadCounts) {
  const auto dir = temp_dir("ht_scale_threads");
  const std::string hmetis = write_ring_hmetis(dir, 5, 8);
  auto build_with_threads = [&](std::size_t threads,
                                const std::string& name) {
    ht::RunContext ctx;
    ctx.with_threads(threads);
    ht::Solver solver(ctx);
    ShardOptions options;
    options.shards = 5;
    options.resident = 2;
    options.temp_dir = (dir / (name + ".shards")).string();
    const std::string out = (dir / name).string();
    EXPECT_TRUE(solver.build_snapshot_sharded(hmetis, out, options).ok());
    return read_file(out);
  };
  const std::string one = build_with_threads(1, "t1.htsnap");
  const std::string four = build_with_threads(4, "t4.htsnap");
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(one, four);  // snapshots are byte-identical
}

// Every counter of the 300 x 10 ring's sharded build is deterministic
// (fixed instance, shards walked one at a time in FIFO order), so each is
// pinned. Two resident shards peak at under a quarter of what all sixteen
// resident do: the out-of-core claim, measured in mapped bytes.
TEST(ShardedBuild, RingCountersArePinnedAndTwoResidentPeakUnderAQuarter) {
  const auto dir = temp_dir("ht_scale_ring_counters");
  const std::string hmetis = write_ring_hmetis(dir, 300, 10);
  const RingBuild two = build_ring_300x10(dir, hmetis, "r2.htsnap", 2, 0);
  EXPECT_TRUE(two.report.complete);
  EXPECT_EQ(two.report.shards_completed, 16);
  EXPECT_EQ(two.report.boundary_edges, 68);
  EXPECT_EQ(two.report.spill_bytes, 99248u);
  EXPECT_EQ(two.report.peak_resident_bytes, 17696u);
  EXPECT_EQ(two.report.snapshot_bytes, 159024u);
  EXPECT_EQ(two.bytes.size(), two.report.snapshot_bytes);
  EXPECT_EQ(two.report.global_min_cut, 2.0);

  const RingBuild all = build_ring_300x10(dir, hmetis, "r16.htsnap", 16, 0);
  EXPECT_EQ(all.report.peak_resident_bytes, 125520u);
  EXPECT_LE(4 * two.report.peak_resident_bytes,
            all.report.peak_resident_bytes);
}

// A byte budget binds. With all sixteen shards allowed resident, a
// 12,000-byte budget keeps the peak under it; a 4,000-byte budget, below
// one shard plus the boundary file, degrades to one resident shard
// (ShardStore::get admits the newcomer alone). Both publish the bytes of
// the unbudgeted two-resident build.
TEST(ShardedBuild, ByteBudgetBindsWithoutChangingSnapshotBytes) {
  const auto dir = temp_dir("ht_scale_ring_budget");
  const std::string hmetis = write_ring_hmetis(dir, 300, 10);
  const RingBuild reference =
      build_ring_300x10(dir, hmetis, "r2.htsnap", 2, 0);
  ASSERT_FALSE(reference.bytes.empty());

  const RingBuild capped =
      build_ring_300x10(dir, hmetis, "capped.htsnap", 16, 12000);
  EXPECT_TRUE(capped.report.complete);
  EXPECT_LE(capped.report.peak_resident_bytes, 12000u);
  EXPECT_EQ(capped.report.peak_resident_bytes, 9984u);
  EXPECT_EQ(capped.bytes, reference.bytes);

  const RingBuild starved =
      build_ring_300x10(dir, hmetis, "starved.htsnap", 16, 4000);
  EXPECT_TRUE(starved.report.complete);
  EXPECT_EQ(starved.report.peak_resident_bytes, 9984u);
  EXPECT_EQ(starved.bytes, reference.bytes);
}

TEST(ShardedBuild, RejectsDisconnectedInstance) {
  const auto dir = temp_dir("ht_scale_disconnected");
  const auto path = dir / "two_islands.hmetis";
  {
    // Vertices {0,1} and {2,3} with no edge between the islands.
    std::ofstream out(path);
    out << "2 4\n1 2\n3 4\n";
  }
  ShardOptions options;
  options.shards = 2;
  options.temp_dir = (dir / "shards").string();
  const auto callers = plant_callers_file(options.temp_dir);
  ht::Solver solver;
  const ht::Status status = solver.build_snapshot_sharded(
      path.string(), (dir / "out.htsnap").string(), options);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), ht::StatusCode::kInvalidArgument);
  // Refused after the whole ingest: its three spill files are gone, the
  // caller's file and directory stay.
  EXPECT_TRUE(only_entry_left(callers));
}

TEST(ShardedBuild, InterruptedRunStillPublishesValidSnapshot) {
  const auto dir = temp_dir("ht_scale_anytime");
  const std::string hmetis = write_ring_hmetis(dir, 6, 8);
  ht::CancelSource cancel;
  cancel.request_cancel();  // stop before the first shard is solved
  ht::RunContext ctx;
  ctx.with_cancel(cancel.token());
  ht::Solver solver(ctx);
  ShardOptions options;
  options.shards = 6;
  options.temp_dir = (dir / "shards").string();
  const auto callers = plant_callers_file(options.temp_dir);
  const std::string snap = (dir / "out.htsnap").string();
  ht::scale::ShardBuildReport report;
  const ht::Status status =
      solver.build_snapshot_sharded(hmetis, snap, options, &report);
  EXPECT_TRUE(only_entry_left(callers));  // the spill files are gone
  EXPECT_FALSE(status.ok());  // the stop reason is surfaced...
  EXPECT_FALSE(report.complete);
  auto server = ht::TreeServer::open(snap);  // ...but the snapshot serves
  ASSERT_TRUE(server.has_value());
  const auto info = server->info();
  EXPECT_TRUE(info.sharded);
  EXPECT_FALSE(info.gomory_hu_exact);
  auto answer = server->global_min_cut();
  ASSERT_TRUE(answer.has_value());
  EXPECT_FALSE(answer->exact);  // pessimistic edges present
}

}  // namespace
