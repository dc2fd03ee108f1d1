// Serializer for .htsnap snapshots — the build side of the build/serve
// split (see snapshot_format.hpp for the layout).
//
// Usage:
//   snapshot::Writer w;
//   w.add_span(SectionKind::kVertexWeights, std::span<const double>(...));
//   ...
//   StatusOr<std::string> bytes = w.serialize();
//   if (!bytes.ok()) return bytes.status();
//   return write_bytes_atomic("out.htsnap", *bytes);  // tmp file + rename
//
// serialize() is deterministic: the same sections in the same order
// produce byte-identical output. The header's created_unix_s is always 0,
// so two builds of the same instance can be compared with memcmp — the
// round-trip tests and the CI snapshot-compat job rely on this.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "serve/snapshot_format.hpp"
#include "util/status.hpp"

namespace ht::snapshot {

/// Writes `bytes` to `path + ".tmp"` and renames it over `path` — the
/// atomic publish every snapshot producer uses, so a TreeServer
/// hot-swapping on the path never observes a half-written file.
Status write_bytes_atomic(const std::string& path, const std::string& bytes);

class Writer {
 public:
  /// Appends one section. Sections are written in insertion order; a
  /// duplicate kind is a programming error (checked at serialize time).
  void add_bytes(SectionKind kind, std::uint32_t elem_size, const void* data,
                 std::size_t byte_size);

  template <typename T>
  void add_span(SectionKind kind, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    add_bytes(kind, sizeof(T), values.data(), values.size_bytes());
  }

  /// Like add_bytes, but takes ownership of an already-assembled payload
  /// instead of copying it. The out-of-core build streams multi-megabyte
  /// CSR sections into strings and hands them over move-only, so the
  /// payload is held once, not twice.
  void add_owned_bytes(SectionKind kind, std::uint32_t elem_size,
                       std::string payload);

  void add_meta(const MetaBlock& meta) {
    add_bytes(SectionKind::kMeta, sizeof(MetaBlock), &meta,
              sizeof(MetaBlock));
  }

  void add_build_info(const std::string& text) {
    add_bytes(SectionKind::kBuildInfo, 1, text.data(), text.size());
  }

  /// Renders the complete file image. kInvalidArgument on duplicate
  /// section kinds or an elem_size that does not divide a payload.
  StatusOr<std::string> serialize() const;

 private:
  struct Pending {
    SectionKind kind;
    std::uint32_t elem_size;
    std::string payload;
  };
  std::vector<Pending> sections_;
};

}  // namespace ht::snapshot
