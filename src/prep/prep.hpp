// Preprocessing: shrink a hypergraph before the expensive tree machinery
// runs (ROADMAP item 2).
//
// Kernelization (HeiCut-style, arXiv:2504.19842) is the only preprocessing:
// exact-safe rules applied to a fixpoint. Drop zero-weight hyperedges,
// merge duplicate pins-identical hyperedges (weights summed), and contract
// the pins of any hyperedge whose weight strictly exceeds the current
// min-cut upper bound lambda_hat (the minimum weighted vertex degree — the
// cut that isolates that vertex). Such an edge can cross no minimum cut,
// so contracting it preserves the global min-cut VALUE exactly; s-t cut
// values for surviving vertex pairs only ever grow (dominating).
//
// Stage bits 3-4 (label propagation, cut sparsification) name lossy rules
// that older builds could run. They stay reserved so snapshots carrying
// them still load; such snapshots serve estimates (stages_exact() is
// false for them).
//
// The pass is deadline-aware through the ambient RunState (polled at round
// boundaries; run_pipeline notes one logical piece per run so piece
// budgets stop it at the same point for every thread count) and
// deterministic: parallel sections write disjoint per-index slots and all
// reductions fold serially.
//
// The id contract: every contracting round folds its vertex map into one
// Lifting so every consumer (snapshot builder, TreeServer) can answer in
// ORIGINAL ids.
#pragma once

#include <cstdint>
#include <string_view>

#include "hypergraph/hypergraph.hpp"
#include "prep/contraction.hpp"
#include "util/status.hpp"

namespace ht::prep {

using hypergraph::EdgeId;
using hypergraph::Hypergraph;

// Which rules actually changed the instance; recorded per run in
// PrepResult::stage_flags and persisted verbatim in the snapshot's
// PrepBlock. Stable on-disk values — append, never renumber.
inline constexpr std::uint32_t kStageZeroEdges = 1u << 0;
inline constexpr std::uint32_t kStageDuplicateMerge = 1u << 1;
inline constexpr std::uint32_t kStageHeavyContraction = 1u << 2;
// Reserved: lossy rules that older builds ran. No rule here sets them.
inline constexpr std::uint32_t kStageLabelPropagation = 1u << 3;
inline constexpr std::uint32_t kStageSparsifier = 1u << 4;

/// True when no reserved lossy bit is set: the reduced instance provably
/// has the same global minimum cut value as the original.
inline bool stages_exact(std::uint32_t flags) {
  return (flags & (kStageLabelPropagation | kStageSparsifier)) == 0;
}
/// Stronger: only zero-edge removal / duplicate merging fired, so EVERY
/// cut value (per-pair s-t included) is preserved, not just the minimum.
inline bool stages_cut_preserving(std::uint32_t flags) {
  return (flags & ~(kStageZeroEdges | kStageDuplicateMerge)) == 0;
}

/// Sum of hyperedge sizes (|pins|); reduction_ratio()'s size measure.
std::int64_t total_pins(const Hypergraph& h);

struct PrepConfig {
  enum class Mode : std::uint32_t {
    kOff = 0,        // pipeline disabled, identity result
    kExactOnly = 1,  // kernelization to a fixpoint
  };
  Mode mode = Mode::kOff;
};

const char* mode_name(PrepConfig::Mode mode);
/// Parses "off" / "exact" (the CLI spelling).
bool parse_mode(std::string_view text, PrepConfig::Mode* out);

struct PrepResult {
  /// The reduced instance (== a copy of the input when nothing fired).
  Hypergraph reduced;
  /// Composed original -> reduced vertex map.
  Lifting lifting;
  /// Which kStage* rules changed the instance.
  std::uint32_t stage_flags = 0;
  std::uint32_t rounds = 0;
  /// Pin count of the ORIGINAL instance (reduction_ratio()'s numerator).
  std::int64_t total_pins_before = 0;

  bool applied() const { return stage_flags != 0; }
  bool cut_preserving() const { return stages_cut_preserving(stage_flags); }
  /// (vertices + pins) shrink factor, the headline reduction metric.
  double reduction_ratio() const;
};

/// Kernelizes `result.reduced` in place: at most 8 rounds, each one
/// contract() pass, stopping at a fixpoint or when the ambient RunState
/// stops. Every contracting round is folded into `result.lifting`, and
/// `stage_flags` / `rounds` record what fired. Notes no piece: that is
/// run_pipeline's job.
void kernelize(PrepResult& result);

/// Runs kernelize() under the ambient RunState with the library's anytime
/// semantics: a deadline / cancel / piece-budget stop mid-pass returns the
/// rounds applied so far (still a valid exact reduction) tagged with the
/// stop status. An output that would be degenerate (< 2 vertices or no
/// hyperedges) is dropped for the unreduced input, so the result always
/// supports the downstream tree builders.
StatusOr<PrepResult> run_pipeline(const Hypergraph& h,
                                  const PrepConfig& config);

}  // namespace ht::prep
