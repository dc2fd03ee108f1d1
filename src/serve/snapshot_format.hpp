// On-disk layout of .htsnap cut-tree snapshots (format version 1).
//
// A snapshot is the build/serve split's frozen artifact: everything the
// query path needs (hypergraph CSR, hypergraph Gomory–Hu tree, the
// star-expansion vertex cut tree, the clique-expansion decomposition
// tree) serialized once by an expensive offline build and then mmap'ed by
// any number of cheap TreeServer processes. The file is:
//
//   offset 0    RawHeader   (64 bytes, fixed, little-endian)
//   offset 64   RawSection  table ("TOC", section_count * 32 bytes)
//   ...         section payloads, each 8-byte aligned, in TOC order
//
// Every payload is a flat array of one primitive type (i32 / i64 / f64 /
// bytes) so a reader can hand out spans straight into the mapping —
// nothing is pointer-swizzled, nothing needs a deserialization pass.
// Integrity: hash64 (XXH64) over the header prefix, over the TOC, and
// over every payload; open() verifies all of them before any span is
// produced, so a truncated or bit-flipped file is a Status, never UB.
//
// Compatibility policy (enforced by the CI snapshot-compat job):
//  * readers accept any version in [kMinSupportedVersion, kFormatVersion];
//  * unknown section kinds are skipped (forward-compatible additions);
//  * any change to RawHeader/RawSection/MetaBlock layout or to the
//    serialized meaning of an existing section kind MUST bump
//    kFormatVersion — the checked-in golden fixtures under tests/data/
//    fail loudly when this rule is violated silently.
//
// Everything here targets little-endian hosts (x86-64, AArch64). The
// endian mark in the header lets a (hypothetical) big-endian reader
// reject the file with a clear message instead of mis-reading it.
#pragma once

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace ht::snapshot {

inline constexpr char kMagic[8] = {'H', 'T', 'S', 'N', 'A', 'P', '0', '1'};
inline constexpr std::uint32_t kEndianMark = 0x0A0B0C0Du;
inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr std::uint32_t kMinSupportedVersion = 1;
/// Seed fed to hash64 for every snapshot checksum, so a snapshot hash
/// never collides with a plain XXH64 of the same bytes by construction.
inline constexpr std::uint64_t kChecksumSeed = 0x68747472656573ULL;  // "httrees"
/// All section payloads and the TOC start on 8-byte boundaries so f64/i64
/// spans into the mapping are naturally aligned.
inline constexpr std::uint64_t kSectionAlignment = 8;
/// Sanity cap on section_count; a header claiming more is malformed.
inline constexpr std::uint32_t kMaxSections = 1u << 20;

/// One flat array per kind. Values are stable on-disk identifiers — never
/// renumber, only append (and bump kFormatVersion if the meaning of an
/// existing kind changes).
enum class SectionKind : std::uint32_t {
  kMeta = 1,             // MetaBlock[1]
  kVertexWeights = 2,    // f64[n]        hypergraph vertex weights
  kEdgeWeights = 3,      // f64[m]        hyperedge weights
  kPinOffsets = 4,       // i64[m+1]      CSR offsets into kPins
  kPins = 5,             // i32[pins]     CSR pin storage
  kGhParent = 6,         // i32[n]        hypergraph Gomory–Hu parents
  kGhParentCut = 7,      // f64[n]        min-cut(v, parent[v])
  kVctParent = 8,        // i32[t]        star-expansion vertex cut tree
  kVctNodeWeight = 9,    // f64[t]
  kVctEdgeWeight = 10,   // f64[t]
  kVctVertexNode = 11,   // i32[n + m]    star node -> tree node embedding
  kVctSeparators = 12,   // i32[s]        the separator set S (Section 3.1)
  kDecompParent = 13,    // i32[d]        clique-expansion decomposition tree
  kDecompNodeWeight = 14,  // f64[d]
  kDecompEdgeWeight = 15,  // f64[d]
  kDecompVertexNode = 16,  // i32[n]
  kBuildInfo = 17,       // u8[]          free-form provenance text
  // Preprocessing provenance (forward-compatible additions: readers
  // before these kinds existed skip them and serve the stored instance
  // in its own — reduced — id space).
  kPrepMeta = 18,        // PrepBlock[1]
  kPrepVertexMap = 19,   // i32[orig_n]   original vertex -> stored vertex
  kPrepStages = 20,      // u8[]          prep provenance text
  // Sharded out-of-core build provenance (src/scale/). Forward-compatible
  // additions: older readers skip them and serve the Gomory–Hu tree as a
  // plain (dominating) tree.
  kShardMeta = 21,       // ShardBlock[1]
  kShardRanges = 22,     // i64[num_shards + 1]  vertex-range boundaries
};

/// Fixed 64-byte little-endian file header. header_checksum covers the
/// first 56 bytes (everything before itself).
struct RawHeader {
  char magic[8];
  std::uint32_t endian_mark;    // kEndianMark, or byte-swapped on the
                                // wrong-endian host that wrote it
  std::uint32_t version;        // kFormatVersion of the writer
  std::uint32_t section_count;
  std::uint32_t header_bytes;   // sizeof(RawHeader), belt and braces
  std::uint64_t file_size;      // total bytes; validated against the map
  std::uint64_t toc_offset;     // byte offset of the RawSection table
  std::uint64_t created_unix_s; // always 0: snapshots carry no timestamp
  std::uint64_t toc_checksum;   // hash64 over the TOC bytes
  std::uint64_t header_checksum;
};
static_assert(sizeof(RawHeader) == 64);
static_assert(std::is_trivially_copyable_v<RawHeader>);

/// One TOC entry. elem_size is the payload's primitive size (1, 4 or 8);
/// byte_size must be a multiple of it.
struct RawSection {
  std::uint32_t kind;       // SectionKind; unknown values are skipped
  std::uint32_t elem_size;
  std::uint64_t offset;     // absolute, 8-byte aligned
  std::uint64_t byte_size;
  std::uint64_t checksum;   // hash64 over the payload bytes
};
static_assert(sizeof(RawSection) == 32);
static_assert(std::is_trivially_copyable_v<RawSection>);

/// Artifact completeness bits in MetaBlock::artifact_flags. A clear bit
/// with the section present means the offline build was stopped early
/// (anytime semantics) — the artifact is still a valid dominating tree,
/// just of degraded quality, and the server reports answers from it as
/// inexact.
inline constexpr std::uint32_t kGomoryHuComplete = 1u << 0;
inline constexpr std::uint32_t kVertexCutTreeComplete = 1u << 1;
inline constexpr std::uint32_t kDecompositionComplete = 1u << 2;

/// Fixed-size metadata record (the kMeta section). Field order packs
/// 8-byte members first so the struct has no padding — a requirement for
/// deterministic bytes and stable checksums.
struct MetaBlock {
  std::uint64_t build_seed;
  std::int64_t num_pins;
  double total_edge_weight;
  double total_vertex_weight;
  double vct_separator_weight;   // w(S) of the Section 3.1 tree
  double vct_threshold;          // sparsity stopping threshold used
  std::int32_t num_vertices;     // n of the source hypergraph
  std::int32_t num_edges;        // m
  std::int32_t vct_num_nodes;    // nodes of the vertex cut tree (0 = absent)
  std::int32_t vct_num_pieces;
  std::int32_t decomp_num_nodes; // nodes of the decomposition tree
  std::int32_t gh_applied;       // exact parent cuts in the GH tree
  std::int32_t gh_root;
  std::int32_t vct_root;
  std::int32_t decomp_root;
  std::uint32_t artifact_flags;  // kGomoryHuComplete | ...
  std::uint32_t build_threads;   // always 0 in v1: thread count is kept out
                                 // of the artifact so snapshot bytes are
                                 // identical across thread counts
  std::uint32_t reserved;
};
static_assert(sizeof(MetaBlock) == 96);
static_assert(std::is_trivially_copyable_v<MetaBlock>);

/// Preprocessing provenance (the kPrepMeta section), written only when a
/// prep pipeline changed the instance at build time. The CSR and every
/// tree in the file then describe the REDUCED instance; kPrepVertexMap
/// (original -> stored vertex, surjective onto [0, num_vertices)) lifts
/// original ids onto it so TreeServer keeps answering in original ids.
/// stage_flags holds ht::prep::kStage* bits (bits 3-4 are reserved lossy
/// rules: such snapshots load and serve estimates); mode is the
/// PrepConfig::Mode the build ran with. Like MetaBlock, 8-byte members first: no padding,
/// deterministic bytes.
struct PrepBlock {
  std::int64_t orig_num_pins;
  std::uint64_t prep_seed;       // reserved; writers store 0x5eed
  std::int32_t orig_num_vertices;
  std::int32_t orig_num_edges;
  std::uint32_t stage_flags;
  std::uint32_t mode;
  std::uint32_t rounds;
  std::uint32_t reserved;
};
static_assert(sizeof(PrepBlock) == 40);
static_assert(std::is_trivially_copyable_v<PrepBlock>);

/// Sharded-build provenance (the kShardMeta section), written by the
/// out-of-core pipeline in src/scale/. Its presence with num_shards > 1
/// tells the server the Gomory–Hu tree was stitched from per-shard
/// subtrees plus an exact boundary-quotient solve: every tree edge is
/// the weight of a REAL cut of the instance, so cross-shard walk answers
/// are dominating (never under-report) rather than exact, and the
/// min over all tree edges equals the global min cut whenever that cut
/// lives inside one shard or respects the shard partition (DESIGN.md
/// §14). 8-byte members first: no padding, deterministic bytes.
struct ShardBlock {
  std::int64_t boundary_edges;   // edges straddling vertex ranges
  std::int64_t boundary_pins;
  std::int32_t num_shards;       // K
  std::int32_t shards_completed; // anytime: shards whose GH ran to the end
  std::uint32_t flags;           // reserved (0)
  std::uint32_t reserved;
};
static_assert(sizeof(ShardBlock) == 32);
static_assert(std::is_trivially_copyable_v<ShardBlock>);

inline bool magic_matches(const char* bytes) {
  return std::memcmp(bytes, kMagic, sizeof(kMagic)) == 0;
}

/// Rounds `offset` up to the section alignment.
inline std::uint64_t align_up(std::uint64_t offset) {
  return (offset + (kSectionAlignment - 1)) & ~(kSectionAlignment - 1);
}

}  // namespace ht::snapshot
