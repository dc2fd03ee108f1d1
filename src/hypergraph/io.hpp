// Text IO in an hMetis-compatible format.
//
// Format (1-indexed, as hMetis):
//   line 1: m n [fmt]     fmt: 1=edge weights, 10=vertex weights, 11=both
//   next m lines: [weight] pin pin ...
//   next n lines (if vertex weights): weight
//
// The try_* readers report malformed input as kInvalidArgument statuses
// (never a value alongside — a half-parsed hypergraph is useless).
#pragma once

#include <iosfwd>
#include <string>

#include "hypergraph/hypergraph.hpp"
#include "util/status.hpp"

namespace ht::hypergraph {

void write_hmetis(const Hypergraph& h, std::ostream& os);
void write_hmetis_file(const Hypergraph& h, const std::string& path);

/// Parses an hMetis stream. On malformed input (truncated file, bad
/// header, pin out of range, missing weight) returns kInvalidArgument
/// with a message naming the offending line.
StatusOr<Hypergraph> try_read_hmetis(std::istream& is);
/// File variant; unreadable paths also yield kInvalidArgument.
StatusOr<Hypergraph> try_read_hmetis_file(const std::string& path);

}  // namespace ht::hypergraph
