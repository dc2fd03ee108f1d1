#include "serve/snapshot_writer.hpp"

#include <cstdio>
#include <cstring>

#include "util/hash64.hpp"

namespace ht::snapshot {

void Writer::add_bytes(SectionKind kind, std::uint32_t elem_size,
                       const void* data, std::size_t byte_size) {
  Pending p;
  p.kind = kind;
  p.elem_size = elem_size;
  p.payload.assign(static_cast<const char*>(data), byte_size);
  sections_.push_back(std::move(p));
}

void Writer::add_owned_bytes(SectionKind kind, std::uint32_t elem_size,
                             std::string payload) {
  Pending p;
  p.kind = kind;
  p.elem_size = elem_size;
  p.payload = std::move(payload);
  sections_.push_back(std::move(p));
}

StatusOr<std::string> Writer::serialize() const {
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Pending& s = sections_[i];
    if (s.elem_size == 0 || s.payload.size() % s.elem_size != 0) {
      return Status::InvalidArgument("section payload not a multiple of its "
                                     "element size");
    }
    for (std::size_t j = i + 1; j < sections_.size(); ++j) {
      if (sections_[j].kind == s.kind) {
        return Status::InvalidArgument("duplicate section kind");
      }
    }
  }

  // Lay out: header, TOC, then payloads at 8-byte aligned offsets.
  const std::uint64_t toc_offset = sizeof(RawHeader);
  std::vector<RawSection> toc(sections_.size());
  std::uint64_t cursor =
      toc_offset + sections_.size() * sizeof(RawSection);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    cursor = align_up(cursor);
    toc[i].kind = static_cast<std::uint32_t>(sections_[i].kind);
    toc[i].elem_size = sections_[i].elem_size;
    toc[i].offset = cursor;
    toc[i].byte_size = sections_[i].payload.size();
    toc[i].checksum = hash64(sections_[i].payload.data(),
                             sections_[i].payload.size(), kChecksumSeed);
    cursor += toc[i].byte_size;
  }
  const std::uint64_t file_size = cursor;

  RawHeader header;
  std::memset(&header, 0, sizeof(header));
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.endian_mark = kEndianMark;
  header.version = kFormatVersion;
  header.section_count = static_cast<std::uint32_t>(sections_.size());
  header.header_bytes = sizeof(RawHeader);
  header.file_size = file_size;
  header.toc_offset = toc_offset;
  header.toc_checksum =
      hash64(toc.data(), toc.size() * sizeof(RawSection), kChecksumSeed);
  header.header_checksum =
      hash64(&header, offsetof(RawHeader, header_checksum), kChecksumSeed);

  std::string out(file_size, '\0');
  std::memcpy(out.data(), &header, sizeof(header));
  std::memcpy(out.data() + toc_offset, toc.data(),
              toc.size() * sizeof(RawSection));
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    std::memcpy(out.data() + toc[i].offset, sections_[i].payload.data(),
                sections_[i].payload.size());
  }
  return out;
}

Status write_bytes_atomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open " + tmp + " for writing");
  }
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed) {
    std::remove(tmp.c_str());
    return Status::InvalidArgument("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::InvalidArgument("cannot rename " + tmp + " to " + path);
  }
  return Status::Ok();
}

}  // namespace ht::snapshot
