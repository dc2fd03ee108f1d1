// Vertex-id bookkeeping for preprocessing.
//
// Every contracting kernelization round maps its input hypergraph to a
// contracted output and reports the vertex mapping as a ContractionMap.
// A Lifting is the composition of those maps across the whole run: one
// flat original-id -> reduced-id array that downstream layers (the
// snapshot builder, TreeServer) use to keep answering in ORIGINAL vertex
// ids no matter how many rounds fired. The invariant, checked by tests:
//
//   lift(answer on reduced instance) == answer on original instance
//
// for the global min-cut value under every rule, and for every cut under
// the cut-preserving rules; heavy contraction only removes cuts, so a
// lifted s-t cut value never under-reports (dominating).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hypergraph/hypergraph.hpp"

namespace ht::prep {

using hypergraph::VertexId;

/// One round's vertex map: input vertex -> output cluster, clusters dense
/// in [0, num_clusters).
struct ContractionMap {
  std::vector<VertexId> cluster_of;
  VertexId num_clusters = 0;
};

/// The composed original -> reduced map for a whole run. Starts as
/// identity over the original vertex set; compose() folds in each round's
/// ContractionMap as it is applied.
class Lifting {
 public:
  Lifting() = default;
  static Lifting identity(VertexId n);

  /// Folds `next` (a map over the CURRENT reduced vertex set) into the
  /// composition. Requires next.cluster_of.size() == num_reduced().
  void compose(const ContractionMap& next);

  VertexId num_original() const {
    return static_cast<VertexId>(to_reduced_.size());
  }
  VertexId num_reduced() const { return num_reduced_; }
  VertexId to_reduced(VertexId original) const {
    return to_reduced_[static_cast<std::size_t>(original)];
  }
  const std::vector<VertexId>& map() const { return to_reduced_; }
  bool is_identity() const;

  /// Lifts a per-reduced-vertex value onto original ids: out[v] =
  /// reduced_value[to_reduced(v)].
  std::vector<bool> lift_side(const std::vector<bool>& reduced_side) const;
  std::vector<std::int32_t> lift_partition(
      const std::vector<std::int32_t>& reduced_part) const;

 private:
  std::vector<VertexId> to_reduced_;
  VertexId num_reduced_ = 0;
};

}  // namespace ht::prep
