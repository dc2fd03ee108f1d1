#include "hypergraph/io.hpp"

#include <fstream>
#include <sstream>

namespace ht::hypergraph {

namespace {

bool all_unit(const std::vector<double>& values) {
  for (double v : values)
    if (v != 1.0) return false;
  return true;
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
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    if (ew) os << h.edge_weight(e) << ' ';
    auto span = h.pins(e);
    for (std::size_t i = 0; i < span.size(); ++i)
      os << span[i] + 1 << (i + 1 < span.size() ? ' ' : '\n');
  }
  if (vw)
    for (VertexId v = 0; v < h.num_vertices(); ++v)
      os << h.vertex_weight(v) << '\n';
}

StatusOr<Hypergraph> try_read_hmetis(std::istream& is) {
  std::string line;
  // Returns false at EOF; comments (%) and blank lines are skipped.
  auto next_content_line = [&]() -> bool {
    while (std::getline(is, line)) {
      if (!line.empty() && line[0] != '%') return true;
    }
    return false;
  };
  if (!next_content_line())
    return Status::InvalidArgument("hMetis input is empty");
  std::istringstream header(line);
  std::int64_t m = 0, n = 0;
  int fmt = 0;
  if (!(header >> m >> n))
    return Status::InvalidArgument("bad hMetis header: \"" + line + "\"");
  if (!(header >> fmt)) fmt = 0;
  if (m < 0 || n < 0)
    return Status::InvalidArgument("bad hMetis header: negative m or n");
  if (fmt != 0 && fmt != 1 && fmt != 10 && fmt != 11)
    return Status::InvalidArgument("bad hMetis fmt field: " +
                                   std::to_string(fmt));
  const bool ew = (fmt % 10) == 1;
  const bool vw = fmt >= 10;
  Hypergraph h(static_cast<VertexId>(n));
  for (std::int64_t e = 0; e < m; ++e) {
    if (!next_content_line())
      return Status::InvalidArgument(
          "unexpected EOF: expected " + std::to_string(m) +
          " hyperedge lines, got " + std::to_string(e));
    std::istringstream row(line);
    double w = 1.0;
    if (ew && !(row >> w))
      return Status::InvalidArgument("missing edge weight: \"" + line + "\"");
    std::vector<VertexId> pins;
    std::int64_t pin;
    while (row >> pin) {
      if (pin < 1 || pin > n)
        return Status::InvalidArgument("pin out of range: " +
                                       std::to_string(pin));
      pins.push_back(static_cast<VertexId>(pin - 1));
    }
    if (!row.eof())
      return Status::InvalidArgument("non-numeric pin: \"" + line + "\"");
    h.add_edge(std::move(pins), w);
  }
  if (vw) {
    for (std::int64_t v = 0; v < n; ++v) {
      if (!next_content_line())
        return Status::InvalidArgument(
            "unexpected EOF: expected " + std::to_string(n) +
            " vertex weight lines, got " + std::to_string(v));
      std::istringstream row(line);
      double w = 1.0;
      if (!(row >> w))
        return Status::InvalidArgument("missing vertex weight: \"" + line +
                                       "\"");
      h.set_vertex_weight(static_cast<VertexId>(v), w);
    }
  }
  h.finalize();
  return h;
}

StatusOr<Hypergraph> try_read_hmetis_file(const std::string& path) {
  std::ifstream is(path);
  if (!is.good()) return Status::InvalidArgument("cannot open " + path);
  return try_read_hmetis(is);
}

void write_hmetis_file(const Hypergraph& h, const std::string& path) {
  std::ofstream os(path);
  HT_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_hmetis(h, os);
}

}  // namespace ht::hypergraph
