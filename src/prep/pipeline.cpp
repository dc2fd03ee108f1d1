#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prep/prep.hpp"
#include "util/run_context.hpp"

namespace ht::prep {

namespace {

/// Degenerate outputs (nothing left to cut) would strand the downstream
/// tree builders; the pipeline drops such a reduction.
bool usable(const Hypergraph& h) {
  return h.num_vertices() >= 2 && h.num_edges() >= 1;
}

/// The identity result: a copy of `h`, nothing applied.
PrepResult unreduced(const Hypergraph& h) {
  PrepResult result;
  result.reduced = h;
  result.lifting = Lifting::identity(h.num_vertices());
  result.total_pins_before = total_pins(h);
  return result;
}

}  // namespace

const char* mode_name(PrepConfig::Mode mode) {
  switch (mode) {
    case PrepConfig::Mode::kOff: return "off";
    case PrepConfig::Mode::kExactOnly: return "exact";
  }
  return "unknown";
}

bool parse_mode(std::string_view text, PrepConfig::Mode* out) {
  if (text == "off") {
    *out = PrepConfig::Mode::kOff;
  } else if (text == "exact" || text == "exact-only") {
    *out = PrepConfig::Mode::kExactOnly;
  } else {
    return false;
  }
  return true;
}

double PrepResult::reduction_ratio() const {
  const double before = static_cast<double>(lifting.num_original()) +
                        static_cast<double>(total_pins_before);
  const double after = static_cast<double>(reduced.num_vertices()) +
                       static_cast<double>(total_pins(reduced));
  return after > 0.0 ? before / after : 1.0;
}

StatusOr<PrepResult> run_pipeline(const Hypergraph& h,
                                  const PrepConfig& config) {
  obs::TraceSpan span("prep.pipeline");
  if (!h.finalized()) {
    return Status::InvalidArgument("prep pipeline needs a finalized "
                                   "hypergraph");
  }
  PrepResult result = unreduced(h);
  if (config.mode == PrepConfig::Mode::kOff || h.num_vertices() < 2) {
    return result;
  }
  RunState* run = current_run_state();
  if (run != nullptr && !run->check().ok()) {
    return {run->status(), std::move(result)};
  }

  kernelize(result);
  auto& metrics = obs::MetricsRegistry::global();
  if (result.applied() && !usable(result.reduced)) {
    metrics.counter("prep.stages_skipped").add();
    result = unreduced(h);
  } else if (result.applied()) {
    metrics.counter("prep.stages_applied").add();
    metrics.counter("prep.vertices_removed")
        .add(static_cast<std::uint64_t>(h.num_vertices() -
                                        result.reduced.num_vertices()));
    metrics.counter("prep.edges_removed")
        .add(static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, h.num_edges() - result.reduced.num_edges())));
    metrics.counter("prep.pins_removed")
        .add(static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, result.total_pins_before - total_pins(result.reduced))));
  }
  // The pass is the pipeline's one logical piece: a piece budget stops
  // after it at every thread count.
  if (run != nullptr) run->note_piece();

  return {run != nullptr ? run->status() : Status::Ok(),
          std::move(result)};
}

}  // namespace ht::prep
