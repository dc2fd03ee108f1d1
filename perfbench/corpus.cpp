#include "corpus.hpp"

#include <functional>
#include <utility>

#include "hypergraph/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using ht::hypergraph::VertexId;

/// Applies the re-draw rule to the fixed structure streams.
Instance make_instance(std::string name, int index,
                       const std::function<Hypergraph(ht::Rng&)>& gen) {
  Instance inst;
  inst.name = std::move(name);
  for (inst.draws = 1; inst.draws <= kMaxDraws; ++inst.draws) {
    ht::Rng rng(stream_seed(kStructureSeed, index, inst.draws - 1));
    inst.h = gen(rng);
    if (ht::hypergraph::is_connected(inst.h)) break;
  }
  return inst;  // draws == kMaxDraws + 1: no connected draw
}

Instance ring(std::string name, int index, int clusters, int size) {
  Instance inst = make_instance(std::move(name), index,
                                [&](ht::Rng&) { return ring_of_clusters(clusters, size); });
  // The last vertex of a block lies on the block edge and one lattice edge.
  inst.known_global_min_cut = 2.0;
  return inst;
}

/// Duplicates every edge of `base` `copies` times: the work the exact
/// duplicate-merge rule removes before any tree is built.
Hypergraph replicate_edges(const Hypergraph& base, int copies) {
  Hypergraph h(base.num_vertices());
  for (int c = 0; c < copies; ++c) {
    for (std::int32_t e = 0; e < base.num_edges(); ++e) {
      const auto pins = base.pins(e);
      h.add_edge({pins.begin(), pins.end()}, base.edge_weight(e));
    }
  }
  h.finalize();
  return h;
}

}  // namespace

std::uint64_t stream_seed(std::uint64_t seed, int index, int attempt) {
  std::uint64_t state = seed;
  std::uint64_t mixed = ht::splitmix64(state);
  mixed ^= 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(index + 1);
  mixed ^= 0xC2B2AE3D27D4EB4FULL * static_cast<std::uint64_t>(attempt + 1);
  return ht::splitmix64(mixed);
}

Hypergraph ring_of_clusters(int clusters, int size) {
  const auto n = static_cast<VertexId>(clusters * size);
  const auto label = [&](int v) { return static_cast<VertexId>(v % n); };
  Hypergraph h(n);
  for (int c = 0; c < clusters; ++c) {
    const int base = c * size;
    std::vector<VertexId> block;
    for (int i = 0; i < size; ++i) block.push_back(label(base + i));
    h.add_edge(block);
    for (int i = 0; i + 2 < size; ++i) {
      h.add_edge({label(base + i), label(base + i + 1), label(base + i + 2)});
    }
    const int next = (c + 1) % clusters * size;
    h.add_edge({label(base), label(next)});
    h.add_edge({label(base + 1), label(next + 1)});
  }
  h.finalize();
  return h;
}

std::vector<Instance> build_corpus() {
  using namespace ht::hypergraph;
  std::vector<Instance> corpus;
  corpus.push_back(ring("ring300x10", 0, 300, 10));
  corpus.push_back(make_instance("uniform400", 1, [](ht::Rng& rng) {
    return random_uniform(400, 1200, 4, rng);
  }));
  corpus.push_back(make_instance("planted8x80", 2, [](ht::Rng& rng) {
    return planted_parts(8, 80, 3, 320, 80, rng);
  }));
  corpus.push_back(make_instance("netlist600", 3, [](ht::Rng& rng) {
    return netlist_like(600, 1200, 4, rng);
  }));
  corpus.push_back(make_instance("replicated240", 4, [](ht::Rng& rng) {
    return replicate_edges(netlist_like(240, 480, 4, rng), 8);
  }));
  corpus.back().prep_exact = true;
  return corpus;
}

std::vector<Instance> sharded_corpus() {
  std::vector<Instance> inputs;
  inputs.push_back(ring("ring2000x10", 5, 2000, 10));
  inputs.push_back(make_instance("rownet20000", 6, [](ht::Rng& rng) {
    return ht::hypergraph::spmv_row_net(20000, 20000, 3, 5e-5, rng);
  }));
  return inputs;
}

Instance serve_instance() {
  return make_instance("serve400", 7, [](ht::Rng& rng) {
    return ht::hypergraph::random_uniform(400, 1200, 4, rng);
  });
}

}  // namespace perfbench
