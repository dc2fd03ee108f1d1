// Text IO in the hMetis format. HmetisReader is the one parser of it: the
// in-memory reader below and the sharded ingest (scale/stream_ingest.hpp)
// both pull through it, so a file gets the same verdict on either path.
//
// The dialect, 1-indexed as in hMetis: a header `m n [fmt]` (fmt 0 or
// absent: unweighted, 1: edge weights, 10: vertex weights, 11: both), m
// edge lines `[weight] pin pin ...`, then for fmt 10 and 11 n lines of one
// vertex weight each. Blank lines and lines whose first non-blank character
// is % are skipped; blanks are space, \t, \r, \v and \f, so CRLF reads like
// LF. After the last expected line only such lines may follow. Anything
// else is refused with kInvalidArgument "hMetis line N: ...": m or n
// outside [0, 2^31 - 1], another fmt, a missing or extra token, a weight
// that is not a finite number >= 0, an edge without 2 distinct pins in
// [1, n], input that ends early, or more lines than the header promises.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "hypergraph/hypergraph.hpp"
#include "util/status.hpp"

namespace ht::hypergraph {

/// Writes h in the dialect above. Weights are written in their shortest
/// text that reads back to the same double.
void write_hmetis(const Hypergraph& h, std::ostream& os);
void write_hmetis_file(const Hypergraph& h, const std::string& path);

/// Pull parser over hMetis text: Open() reads the header, next_edge()
/// returns the m hyperedges in file order, then read_vertex_weights()
/// the n vertex weights and checks that nothing follows them.
class HmetisReader {
 public:
  /// Parses the header of `text`, which must outlive the reader.
  static StatusOr<HmetisReader> Open(std::string_view text);

  EdgeId num_edges() const { return m_; }
  VertexId num_vertices() const { return n_; }

  /// Reads the next hyperedge line: its weight (1 without edge weights)
  /// and its pins, sorted, distinct and 0-based.
  Status next_edge(Weight& weight, std::vector<VertexId>& pins);
  /// Reads the n vertex weights (all 1 without them) and refuses any
  /// further line that is neither blank nor a comment; call after the m
  /// edges.
  Status read_vertex_weights(std::vector<Weight>& weights);

 private:
  explicit HmetisReader(std::string_view text) : rest_(text) {}
  /// Moves to the next line that is neither blank nor a comment; false at
  /// the end of the input.
  bool next_line();
  Status parse_weight(std::string_view token, const char* kind,
                      Weight& out) const;
  Status error(const std::string& what) const;

  std::string_view rest_;  // the text after the current line
  std::string_view line_;  // the unread part of the current line
  std::int64_t line_no_ = 0;
  EdgeId m_ = 0;
  VertexId n_ = 0;
  EdgeId edges_read_ = 0;
  bool edge_weights_ = false;
  bool vertex_weights_ = false;
};

/// Parses hMetis text into a finalized hypergraph, or refuses it as above.
StatusOr<Hypergraph> try_read_hmetis(std::string_view text);
/// File variant. It reads the file as a stream, so pipes work; an
/// unreadable path also yields kInvalidArgument.
StatusOr<Hypergraph> try_read_hmetis_file(const std::string& path);

}  // namespace ht::hypergraph
