#include "ht/hypertree.hpp"

#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace ht {

namespace {

/// Applies the context's seed override to an options struct that carries a
/// `seed` member (all Solver-reachable option structs do).
template <typename Options>
void apply_seed(const RunContext& ctx, Options& options) {
  if (ctx.seed.has_value()) options.seed = *ctx.seed;
}

}  // namespace

Solver::Solver() : Solver(RunContext::FromEnv()) {}

Solver::Solver(RunContext ctx) : ctx_(std::move(ctx)) {
  // An explicit trace sink turns tracing on for the whole process (the
  // tracer is global); the file is written by write_trace().
  if (!ctx_.trace_path.empty()) obs::set_tracing_enabled(true);
}

void Solver::prepare_pool() const {
  if (ctx_.threads != 0 && ThreadPool::global().size() != ctx_.threads)
    ThreadPool::reset_global(ctx_.threads);
}

StatusOr<cuttree::VertexCutTreeResult> Solver::build_vertex_cut_tree(
    const graph::Graph& g, cuttree::VertexCutTreeOptions options) {
  apply_seed(ctx_, options);
  prepare_pool();
  RunScope scope(ctx_);
  auto result = cuttree::build_vertex_cut_tree(g, options);
  return {scope.status(), std::move(result)};
}

StatusOr<cuttree::DecompositionTreeResult> Solver::decomposition_tree(
    const graph::Graph& g, cuttree::DecompositionOptions options) {
  apply_seed(ctx_, options);
  prepare_pool();
  RunScope scope(ctx_);
  auto result = cuttree::build_decomposition_tree_run(g, options);
  return {scope.status(), std::move(result)};
}

StatusOr<core::BisectionReport> Solver::bisect(
    const hypergraph::Hypergraph& h, core::Theorem1Options options) {
  apply_seed(ctx_, options);
  prepare_pool();
  RunScope scope(ctx_);
  auto report = core::bisect_theorem1(h, options);
  return {scope.status(), std::move(report)};
}

StatusOr<core::BisectionReport> Solver::bisect_via_cut_tree(
    const hypergraph::Hypergraph& h, core::CutTreeBisectionOptions options) {
  apply_seed(ctx_, options);
  prepare_pool();
  RunScope scope(ctx_);
  auto report = core::bisect_via_cut_tree(h, options);
  return {scope.status(), std::move(report)};
}

StatusOr<prep::PrepResult> Solver::preprocess(const hypergraph::Hypergraph& h,
                                              prep::PrepConfig config) {
  prepare_pool();
  RunScope scope(ctx_);
  return prep::run_pipeline(h, config);
}

Status Solver::build_snapshot(const hypergraph::Hypergraph& h,
                              const std::string& path,
                              snapshot::BuildOptions options,
                              snapshot::BuildReport* report) {
  apply_seed(ctx_, options);
  prepare_pool();
  RunScope scope(ctx_);
  Status write_status = snapshot::write(h, path, options, report);
  if (!write_status.ok()) return write_status;
  // Surface the run's stop reason (the snapshot is still valid — its
  // completeness flags record which artifacts were cut short).
  return scope.status();
}

Status Solver::build_snapshot_sharded(const std::string& hmetis_path,
                                      const std::string& path,
                                      scale::ShardOptions options,
                                      scale::ShardBuildReport* report) {
  apply_seed(ctx_, options);
  prepare_pool();
  RunScope scope(ctx_);
  Status built = scale::build_snapshot_sharded(hmetis_path, path, options,
                                               report);
  if (!built.ok()) return built;
  // Surface the run's stop reason; an interrupted build still published
  // a valid snapshot (unfinished shards are stars of leaves).
  return scope.status();
}

StatusOr<flow::GomoryHuRunResult> Solver::gomory_hu(const graph::Graph& g) {
  prepare_pool();
  RunScope scope(ctx_);
  auto result = flow::CutEngine().gomory_hu(g);
  return {scope.status(), std::move(result)};
}

StatusOr<flow::HypergraphGomoryHuRunResult> Solver::gomory_hu(
    const hypergraph::Hypergraph& h) {
  prepare_pool();
  RunScope scope(ctx_);
  auto result = flow::CutEngine().gomory_hu(h);
  return {scope.status(), std::move(result)};
}

StatusOr<TreeServer> Solver::serve(const std::string& path,
                                   serve::ServeOptions options) {
  prepare_pool();
  return TreeServer::open(path, std::move(options));
}

StatusOr<hypergraph::Hypergraph> Solver::read_hmetis(
    const std::string& path) {
  return hypergraph::try_read_hmetis_file(path);
}

bool Solver::write_trace() const {
  if (ctx_.trace_path.empty()) return false;
  ThreadPool::global().wait_idle();
  return obs::Tracer::global().write_chrome_trace(ctx_.trace_path);
}

}  // namespace ht
