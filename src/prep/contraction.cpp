#include "prep/contraction.hpp"

#include <numeric>

#include "util/check.hpp"

namespace ht::prep {

Lifting Lifting::identity(VertexId n) {
  Lifting out;
  out.to_reduced_.resize(static_cast<std::size_t>(n));
  std::iota(out.to_reduced_.begin(), out.to_reduced_.end(), 0);
  out.num_reduced_ = n;
  return out;
}

void Lifting::compose(const ContractionMap& next) {
  HT_CHECK(static_cast<VertexId>(next.cluster_of.size()) == num_reduced_);
  for (VertexId& r : to_reduced_) {
    r = next.cluster_of[static_cast<std::size_t>(r)];
    HT_CHECK(0 <= r && r < next.num_clusters);
  }
  num_reduced_ = next.num_clusters;
}

bool Lifting::is_identity() const {
  if (num_reduced_ != num_original()) return false;
  for (std::size_t v = 0; v < to_reduced_.size(); ++v) {
    if (to_reduced_[v] != static_cast<VertexId>(v)) return false;
  }
  return true;
}

std::vector<bool> Lifting::lift_side(
    const std::vector<bool>& reduced_side) const {
  HT_CHECK(reduced_side.size() == static_cast<std::size_t>(num_reduced_));
  std::vector<bool> out(to_reduced_.size());
  for (std::size_t v = 0; v < to_reduced_.size(); ++v) {
    out[v] = reduced_side[static_cast<std::size_t>(to_reduced_[v])];
  }
  return out;
}

std::vector<std::int32_t> Lifting::lift_partition(
    const std::vector<std::int32_t>& reduced_part) const {
  HT_CHECK(reduced_part.size() == static_cast<std::size_t>(num_reduced_));
  std::vector<std::int32_t> out(to_reduced_.size());
  for (std::size_t v = 0; v < to_reduced_.size(); ++v) {
    out[v] = reduced_part[static_cast<std::size_t>(to_reduced_[v])];
  }
  return out;
}

}  // namespace ht::prep
