#include "hypergraph/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <utility>

namespace ht::hypergraph {

namespace {

bool all_unit(const std::vector<double>& values) {
  for (double v : values)
    if (v != 1.0) return false;
  return true;
}

constexpr std::string_view kBlanks = " \t\r\v\f";

void skip_blanks(std::string_view& line) {
  line.remove_prefix(std::min(line.find_first_not_of(kBlanks), line.size()));
}

/// Pops the next blank-separated token off `line`; empty at its end.
std::string_view next_token(std::string_view& line) {
  skip_blanks(line);
  const std::string_view token = line.substr(0, line.find_first_of(kBlanks));
  line.remove_prefix(token.size());
  return token;
}

/// Parses all of `token` as a T; one leading '+' is allowed, as strtod
/// and istream allow it.
template <typename T>
bool parse_all(std::string_view token, T& out) {
  if (token.size() > 1 && token[0] == '+' && token[1] != '-')
    token.remove_prefix(1);
  const char* end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, out);
  return ec == std::errc() && stop == end;
}

/// `text` in quotes, cut at 40 characters: a binary file's line can be huge.
std::string quoted(std::string_view text) {
  return '"' + std::string(text.substr(0, 40)) +
         (text.size() > 40 ? "...\"" : "\"");
}

}  // namespace

void write_hmetis(const Hypergraph& h, std::ostream& os) {
  std::vector<double> edge_w, vertex_w;
  for (EdgeId e = 0; e < h.num_edges(); ++e) edge_w.push_back(h.edge_weight(e));
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    vertex_w.push_back(h.vertex_weight(v));
  const bool ew = !all_unit(edge_w);
  const bool vw = !all_unit(vertex_w);
  os << h.num_edges() << ' ' << h.num_vertices();
  if (ew || vw) os << ' ' << (vw ? 10 : 0) + (ew ? 1 : 0);
  os << '\n';
  // The shortest text that reads back to the same double.
  const auto write_weight = [&os](double w, char separator) {
    char text[32];
    os.write(text, std::to_chars(text, text + sizeof text, w).ptr - text)
        << separator;
  };
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    if (ew) write_weight(h.edge_weight(e), ' ');
    auto span = h.pins(e);
    for (std::size_t i = 0; i < span.size(); ++i)
      os << span[i] + 1 << (i + 1 < span.size() ? ' ' : '\n');
  }
  if (vw)
    for (VertexId v = 0; v < h.num_vertices(); ++v)
      write_weight(h.vertex_weight(v), '\n');
}

StatusOr<HmetisReader> HmetisReader::Open(std::string_view text) {
  HmetisReader r(text);
  if (!r.next_line())
    return r.error("input has no header \"m n [fmt]\"");
  const std::string_view header = r.line_;
  std::string_view tokens[4];
  for (std::string_view& token : tokens) token = next_token(r.line_);
  std::int64_t m = 0, n = 0, fmt = 0;
  if (!parse_all(tokens[0], m) || !parse_all(tokens[1], n) ||
      (!tokens[2].empty() && !parse_all(tokens[2], fmt)) ||
      !tokens[3].empty())
    return r.error("bad header " + quoted(header) +
                   ", expected \"m n [fmt]\"");
  constexpr std::int64_t kMaxId = std::numeric_limits<std::int32_t>::max();
  for (const auto& [name, value] : {std::pair{"m", m}, std::pair{"n", n}})
    if (value < 0 || value > kMaxId)
      return r.error(std::string(name) + " = " + std::to_string(value) +
                     " is outside [0, 2^31 - 1]");
  if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11)
    return r.error("fmt " + std::to_string(fmt) +
                   " is not one of 0, 1, 10, 11");
  r.m_ = static_cast<EdgeId>(m);
  r.n_ = static_cast<VertexId>(n);
  r.edge_weights_ = fmt % 10 == 1;
  r.vertex_weights_ = fmt >= 10;
  return r;
}

Status HmetisReader::next_edge(Weight& weight, std::vector<VertexId>& pins) {
  HT_DCHECK(edges_read_ < m_);
  if (!next_line())
    return error("input ends after " + std::to_string(edges_read_) +
                 " of " + std::to_string(m_) + " hyperedge lines");
  ++edges_read_;
  weight = 1.0;
  if (edge_weights_) {
    Status s = parse_weight(next_token(line_), "edge", weight);
    if (!s.ok()) return s;
  }
  pins.clear();
  for (std::string_view token = next_token(line_); !token.empty();
       token = next_token(line_)) {
    std::int64_t pin = 0;
    if (!parse_all(token, pin) || pin < 1 || pin > n_)
      return error("pin " + quoted(token) + " is not an integer in [1, " +
                   std::to_string(n_) + "]");
    pins.push_back(static_cast<VertexId>(pin - 1));
  }
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  if (pins.size() < 2) return error("hyperedge needs >= 2 distinct pins");
  return Status::Ok();
}

Status HmetisReader::read_vertex_weights(std::vector<Weight>& weights) {
  HT_DCHECK(edges_read_ == m_);
  weights.assign(static_cast<std::size_t>(n_), 1.0);
  for (VertexId v = 0; vertex_weights_ && v < n_; ++v) {
    if (!next_line())
      return error("input ends after " + std::to_string(v) + " of " +
                   std::to_string(n_) + " vertex weight lines");
    Status s = parse_weight(next_token(line_), "vertex",
                            weights[static_cast<std::size_t>(v)]);
    if (!s.ok()) return s;
    if (!next_token(line_).empty())
      return error("a vertex weight line holds exactly one weight");
  }
  if (next_line()) return error("more lines than the header promises");
  return Status::Ok();
}

bool HmetisReader::next_line() {
  while (!rest_.empty()) {
    const std::size_t eol = std::min(rest_.find('\n'), rest_.size());
    line_ = rest_.substr(0, eol);
    rest_.remove_prefix(std::min(eol + 1, rest_.size()));
    ++line_no_;
    skip_blanks(line_);
    if (!line_.empty() && line_.front() != '%') return true;
  }
  // At the end of the input, errors name the line after the last one.
  line_ = {};
  ++line_no_;
  return false;
}

Status HmetisReader::parse_weight(std::string_view token, const char* kind,
                                  Weight& out) const {
  if (parse_all(token, out) && std::isfinite(out) && out >= 0.0)
    return Status::Ok();
  return error(std::string(kind) + " weight " + quoted(token) +
               " is not a finite number >= 0");
}

Status HmetisReader::error(const std::string& what) const {
  return Status::InvalidArgument("hMetis line " + std::to_string(line_no_) +
                                 ": " + what);
}

StatusOr<Hypergraph> try_read_hmetis(std::string_view text) {
  auto reader = HmetisReader::Open(text);
  if (!reader.ok()) return reader.status();
  Hypergraph h(reader->num_vertices());
  Weight w = 1.0;
  std::vector<VertexId> pins;
  for (EdgeId e = 0; e < reader->num_edges(); ++e) {
    Status s = reader->next_edge(w, pins);
    if (!s.ok()) return s;
    h.add_edge(pins, w);
  }
  std::vector<Weight> weights;
  Status s = reader->read_vertex_weights(weights);
  if (!s.ok()) return s;
  for (VertexId v = 0; v < h.num_vertices(); ++v)
    h.set_vertex_weight(v, weights[static_cast<std::size_t>(v)]);
  h.finalize();
  return h;
}

StatusOr<Hypergraph> try_read_hmetis_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is.good()) return Status::InvalidArgument("cannot open " + path);
  std::ostringstream text;
  text << is.rdbuf();
  return try_read_hmetis(std::move(text).str());
}

void write_hmetis_file(const Hypergraph& h, const std::string& path) {
  std::ofstream os(path);
  HT_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_hmetis(h, os);
}

}  // namespace ht::hypergraph
