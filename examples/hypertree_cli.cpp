// Command-line front end: partition a hypergraph, build a .htsnap
// snapshot, or serve queries from one.
//
//   $ ./hypertree_cli <file.hmetis> [--algo=theorem1|cuttree|smalledges|fm]
//                     [--k=2] [--seed=42] [--deadline-ms=N] [--threads=N]
//                     [--quiet]
//   $ ./hypertree_cli build-snapshot <file.hmetis> <out.htsnap>
//                     [--seed=S] [--deadline-ms=N] [--threads=N]
//                     [--build-info=TEXT] [--prep=off|exact]
//                     [--shards=K] [--memory-budget-mb=M] [--resident=B]
//                     [--temp-dir=DIR]
//   $ ./hypertree_cli serve <snapshot.htsnap> [--deadline-ms=N]
//                     [--threads=N] [--slow-query-us=N]
//                     [--flight-dump=FILE] [--no-flight-recorder]
//
// Thread-count precedence (everywhere): --threads=N beats the HT_THREADS
// environment variable, which beats the hardware default. The flag is
// applied on top of RunContext::FromEnv(), which is what reads the
// environment.
//
// The partition mode is unchanged: with --k > 2 the FM-based recursive
// bisection is used regardless of --algo, --deadline-ms runs anytime and
// prints the best-so-far feasible partition with its stop status, and the
// output is one part id per line plus a summary line
//   # cut=<delta_H> connectivity=<lambda-1> n=<n> m=<m> k=<k> ...
//
// serve reads one query per line from stdin and answers on stdout:
//   minc <s> <t>   min s-t hyperedge cut (Gomory-Hu tree walk); tagged
//                  exact / dominating (sharded tree or heavy-contraction
//                  prep) / lower-bound (truncated build) / estimate
//                  (a snapshot with lossy prep stage bits)
//   gmin           global min cut (min over Gomory-Hu tree edges);
//                  tagged exact / dominating / lower-bound / estimate

//   setcut <a_csv> <b_csv>  dominating delta_H(A, B) estimate (Lemma 7
//                  vertex-cut-tree DP); sides are comma-separated ids
//   bisect         balanced bisection (Corollary 3 cut-tree DP)
//   kway <k>       balanced k-way partition (decomposition-tree DP)
//   info           snapshot + server counters
//   swap <path>    hot-swap to another snapshot (old queries finish first)
//   stats          one-line versioned JSON snapshot of the metrics registry
//   metrics        Prometheus text exposition of the registry (multi-line,
//                  terminated by a line "# EOF")
//   flight         one-line versioned JSON dump of the flight recorder
//   quit           exit 0
//
// Observability flags: every query appends one record to the in-process
// flight recorder (disable with --no-flight-recorder); queries slower
// than --slow-query-us (default 100000) record a serve.slow_query trace
// span; --flight-dump=FILE rewrites FILE with the recorder dump whenever
// a query fails.
//
// Sharded out-of-core builds: --shards=K routes build-snapshot through
// the streaming src/scale/ pipeline (the hMetis file is never fully
// materialized); --memory-budget-mb caps resident shard bytes,
// --resident caps the resident shard count, --temp-dir places the spill
// files (default <out>.shards; the build removes them, and the directory
// once that leaves it empty). The snapshot is the same .htsnap format,
// served unchanged.
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "ht/hypertree.hpp"

namespace {

struct Options {
  std::string command;  // "" = partition, or "build-snapshot" / "serve"
  std::string path;
  std::string out_path;
  std::string algo = "theorem1";
  std::string build_info;
  ht::prep::PrepConfig prep;
  std::int32_t k = 2;
  std::uint64_t seed = 42;
  std::int64_t deadline_ms = 0;
  std::int64_t threads = -1;  // -1 = not given, HT_THREADS applies
  std::int64_t slow_query_us = 100000;
  std::string flight_dump;
  bool flight_recorder = true;
  bool quiet = false;
  std::int32_t shards = 0;  // 0 = in-memory build
  std::int32_t resident = 2;
  std::int64_t memory_budget_mb = 0;
  std::string temp_dir;
};

bool parse(int argc, char** argv, Options& out) {
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--algo=", 0) == 0) {
      out.algo = arg.substr(7);
    } else if (arg.rfind("--k=", 0) == 0) {
      out.k = std::atoi(arg.c_str() + 4);
    } else if (arg.rfind("--seed=", 0) == 0) {
      out.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      out.deadline_ms = std::atoll(arg.c_str() + 14);
    } else if (arg.rfind("--threads=", 0) == 0) {
      out.threads = std::atoll(arg.c_str() + 10);
      if (out.threads < 1) return false;
    } else if (arg.rfind("--build-info=", 0) == 0) {
      out.build_info = arg.substr(13);
    } else if (arg.rfind("--prep=", 0) == 0) {
      if (!ht::prep::parse_mode(arg.substr(7), &out.prep.mode)) {
        std::cerr << "unknown --prep mode (want off|exact): "
                  << arg << "\n";
        return false;
      }
    } else if (arg.rfind("--shards=", 0) == 0) {
      out.shards = std::atoi(arg.c_str() + 9);
      if (out.shards < 1) return false;
    } else if (arg.rfind("--resident=", 0) == 0) {
      out.resident = std::atoi(arg.c_str() + 11);
      if (out.resident < 1) return false;
    } else if (arg.rfind("--memory-budget-mb=", 0) == 0) {
      out.memory_budget_mb = std::atoll(arg.c_str() + 19);
      if (out.memory_budget_mb < 0) return false;
    } else if (arg.rfind("--temp-dir=", 0) == 0) {
      out.temp_dir = arg.substr(11);
    } else if (arg.rfind("--slow-query-us=", 0) == 0) {
      out.slow_query_us = std::atoll(arg.c_str() + 16);
      if (out.slow_query_us < 0) return false;
    } else if (arg.rfind("--flight-dump=", 0) == 0) {
      out.flight_dump = arg.substr(14);
    } else if (arg == "--no-flight-recorder") {
      out.flight_recorder = false;
    } else if (arg == "--quiet") {
      out.quiet = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << arg << "\n";
      return false;
    } else {
      positional.push_back(arg);
    }
  }
  if (positional.empty()) return false;
  if (positional[0] == "build-snapshot") {
    if (positional.size() != 3) return false;
    out.command = positional[0];
    out.path = positional[1];
    out.out_path = positional[2];
    return true;
  }
  if (positional[0] == "serve") {
    if (positional.size() != 2) return false;
    out.command = positional[0];
    out.path = positional[1];
    return true;
  }
  if (positional.size() != 1) return false;
  out.path = positional[0];
  return out.k >= 2;
}

/// FromEnv() + the CLI flags; --threads (when given) overwrites the
/// HT_THREADS-derived default — the flag always wins.
ht::RunContext make_context(const Options& options) {
  ht::RunContext ctx = ht::RunContext::FromEnv();
  ctx.with_seed(options.seed);
  if (options.deadline_ms > 0)
    ctx.with_deadline_after(std::chrono::milliseconds(options.deadline_ms));
  if (options.threads > 0)
    ctx.with_threads(static_cast<std::size_t>(options.threads));
  return ctx;
}

int run_build_snapshot_sharded(const Options& options) {
  ht::Solver solver(make_context(options));
  ht::scale::ShardOptions build;
  build.shards = options.shards;
  build.resident = options.resident;
  build.memory_budget_bytes =
      static_cast<std::size_t>(options.memory_budget_mb) * 1024 * 1024;
  build.seed = options.seed;
  build.build_info = options.build_info;
  build.temp_dir = options.temp_dir;
  ht::scale::ShardBuildReport report;
  const ht::Status status = solver.build_snapshot_sharded(
      options.path, options.out_path, build, &report);
  if (!status.ok() && report.snapshot_bytes == 0) {
    std::cerr << "sharded snapshot build failed: " << status.to_string()
              << "\n";
    return 1;
  }
  // One greppable summary line (the CI scale-smoke job parses it).
  std::cout << "# snapshot=" << options.out_path
            << " bytes=" << report.snapshot_bytes
            << " n=" << report.num_vertices << " m=" << report.num_edges
            << " pins=" << report.num_pins << " shards=" << report.num_shards
            << " shards_completed=" << report.shards_completed
            << " boundary_edges=" << report.boundary_edges
            << " spill_bytes=" << report.spill_bytes
            << " peak_resident_bytes=" << report.peak_resident_bytes
            << " global_min_cut=" << report.global_min_cut
            << " complete=" << (report.complete ? 1 : 0)
            << " threads=" << solver.context().threads
            << " status=" << status.code_name() << "\n";
  return 0;
}

int run_build_snapshot(const Options& options) {
  if (options.shards > 0) return run_build_snapshot_sharded(options);
  auto parsed = ht::Solver::read_hmetis(options.path);
  if (!parsed.has_value()) {
    std::cerr << "failed to read " << options.path << ": "
              << parsed.status().to_string() << "\n";
    return 1;
  }
  ht::Solver solver(make_context(options));
  ht::snapshot::BuildOptions build;
  build.seed = options.seed;
  build.build_info = options.build_info;
  build.prep = options.prep;
  ht::snapshot::BuildReport report;
  const ht::Status status =
      solver.build_snapshot(*parsed, options.out_path, build, &report);
  if (!status.ok() && report.bytes == 0) {
    std::cerr << "snapshot build failed: " << status.to_string() << "\n";
    return 1;
  }
  std::cout << "# snapshot=" << options.out_path << " bytes=" << report.bytes
            << " n=" << parsed->num_vertices() << " m=" << parsed->num_edges()
            << " gomory_hu=" << (report.gomory_hu_present ? 1 : 0)
            << " vct_nodes=" << report.vct_nodes
            << " decomp_nodes=" << report.decomp_nodes
            << " gomory_hu_ms=" << report.gomory_hu_ms
            << " vertex_cut_tree_ms=" << report.vertex_cut_tree_ms
            << " decomposition_ms=" << report.decomposition_ms
            << " prep=" << ht::prep::mode_name(options.prep.mode)
            << " stored_n=" << report.stored_vertices
            << " stored_m=" << report.stored_edges
            << " threads=" << solver.context().threads
            << " status=" << status.code_name() << "\n";
  return 0;
}

/// Parses "3,1,4" into vertex ids; false on empty or non-numeric input
/// (range checking is the server's job).
bool parse_id_csv(const std::string& text, std::vector<std::int32_t>& out) {
  out.clear();
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (item.empty()) return false;
    char* end = nullptr;
    const long value = std::strtol(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0') return false;
    out.push_back(static_cast<std::int32_t>(value));
  }
  return !out.empty();
}

/// The tag a served cut value prints with. Neither exact nor dominating
/// means a lower bound from a truncated build, or an estimate when the
/// snapshot carries lossy prep stage bits.
const char* cut_label(const ht::TreeServer::MinCutAnswer& answer,
                      const ht::TreeServer& server) {
  if (answer.exact) return "exact";
  if (answer.dominating) return "dominating";
  const auto info = server.info();
  return info.preprocessed && !info.prep_exact ? "estimate" : "lower-bound";
}

int run_serve(const Options& options) {
  // The query path is pure tree DPs — no pool involvement — but the
  // resolved thread count (flag > HT_THREADS > hardware) is still
  // reported so operators can see what a swap-triggered rebuild would use.
  const ht::RunContext base = make_context(options);
  ht::Solver solver(base);
  ht::serve::ServeOptions serve_options;
  serve_options.flight_recorder = options.flight_recorder;
  serve_options.slow_query_ns =
      static_cast<std::uint64_t>(options.slow_query_us) * 1000;
  serve_options.flight_dump_path = options.flight_dump;
  auto server = solver.serve(options.path, serve_options);
  if (!server.has_value()) {
    std::cerr << "failed to open snapshot " << options.path << ": "
              << server.status().to_string() << "\n";
    return 1;
  }
  const auto info = server->info();
  std::cout << "# serving n=" << info.num_vertices << " m=" << info.num_edges
            << " version=" << info.format_version
            << " bytes=" << info.snapshot_bytes
            << " gomory_hu=" << (info.has_gomory_hu ? 1 : 0)
            << " cut_tree=" << (info.has_vertex_cut_tree ? 1 : 0)
            << " decomposition=" << (info.has_decomposition ? 1 : 0)
            << " threads=" << base.threads << "\n";

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    // Each query gets a fresh context so --deadline-ms is per query, not
    // per process lifetime.
    ht::RunContext ctx = base;
    if (options.deadline_ms > 0)
      ctx.with_deadline_after(std::chrono::milliseconds(options.deadline_ms));
    if (cmd == "quit" || cmd == "exit") return 0;
    if (cmd == "info") {
      const auto now = server->info();
      std::cout << "info n=" << now.num_vertices << " m=" << now.num_edges
                << " stored_n=" << now.stored_vertices
                << " stored_m=" << now.stored_edges
                << " preprocessed=" << (now.preprocessed ? 1 : 0)
                << " sharded=" << (now.sharded ? 1 : 0)
                << " shards=" << now.num_shards
                << " shards_completed=" << now.shards_completed
                << " queries=" << now.queries << " swaps=" << now.swaps
                << " epoch=" << now.epoch << "\n";
    } else if (cmd == "stats") {
      // One consistent registry copy, as sorted + escaped versioned JSON.
      std::cout << ht::obs::MetricsRegistry::global().snapshot_json() << "\n";
    } else if (cmd == "metrics") {
      // Prometheus text is multi-line; "# EOF" lets line-oriented callers
      // find the end without counting series.
      std::cout << ht::obs::prometheus_text(
                       ht::obs::MetricsRegistry::global().snapshot())
                << "# EOF\n";
    } else if (cmd == "flight") {
      std::cout << ht::obs::FlightRecorder::global().dump_json() << "\n";
    } else if (cmd == "minc") {
      std::int32_t s = -1, t = -1;
      if (!(in >> s >> t)) {
        std::cout << "error minc needs two vertex ids\n";
        continue;
      }
      const auto answer = server->min_cut(s, t, ctx);
      if (!answer.has_value()) {
        std::cout << "error " << answer.status().to_string() << "\n";
      } else {
        std::cout << "minc " << answer->value << " "
                  << cut_label(*answer, *server) << "\n";
      }
    } else if (cmd == "gmin") {
      const auto answer = server->global_min_cut(ctx);
      if (!answer.has_value()) {
        std::cout << "error " << answer.status().to_string() << "\n";
      } else {
        std::cout << "gmin " << answer->value << " "
                  << cut_label(*answer, *server) << "\n";
      }
    } else if (cmd == "setcut") {
      std::string a_csv, b_csv;
      if (!(in >> a_csv >> b_csv)) {
        std::cout << "error setcut needs two comma-separated id lists\n";
        continue;
      }
      std::vector<std::int32_t> a, b;
      if (!parse_id_csv(a_csv, a) || !parse_id_csv(b_csv, b)) {
        std::cout << "error setcut lists must be comma-separated ids\n";
        continue;
      }
      const auto answer = server->set_cut(a, b, ctx);
      if (!answer.has_value()) {
        std::cout << "error " << answer.status().to_string() << "\n";
      } else {
        std::cout << "setcut " << answer->value << "\n";
      }
    } else if (cmd == "bisect") {
      const auto answer = server->bisection(ctx);
      if (!answer.has_value()) {
        std::cout << "error " << answer.status().to_string() << "\n";
      } else {
        std::cout << "bisect cut=" << answer->cut
                  << " tree_cut=" << answer->tree_cut << "\n";
      }
    } else if (cmd == "kway") {
      std::int32_t k = 0;
      if (!(in >> k)) {
        std::cout << "error kway needs k\n";
        continue;
      }
      const auto answer = server->kway(k, ctx);
      if (!answer.has_value()) {
        std::cout << "error " << answer.status().to_string() << "\n";
      } else {
        std::cout << "kway cut=" << answer->cut
                  << " connectivity=" << answer->connectivity
                  << " tree_cut=" << answer->tree_cut << "\n";
      }
    } else if (cmd == "swap") {
      std::string path;
      if (!(in >> path)) {
        std::cout << "error swap needs a path\n";
        continue;
      }
      const ht::Status status = server->swap(path);
      if (!status.ok()) {
        std::cout << "error " << status.to_string() << "\n";
      } else {
        std::cout << "swapped " << path << "\n";
      }
    } else {
      std::cout << "error unknown command " << cmd << "\n";
    }
  }
  return 0;
}

int run_partition(const Options& options) {
  auto parsed = ht::Solver::read_hmetis(options.path);
  if (!parsed.has_value()) {
    std::cerr << "failed to read " << options.path << ": "
              << parsed.status().to_string() << "\n";
    return 1;
  }
  const ht::hypergraph::Hypergraph& h = *parsed;
  ht::Solver solver(make_context(options));

  std::vector<std::int32_t> part(
      static_cast<std::size_t>(h.num_vertices()), 0);
  double cut = 0.0, connectivity = 0.0;
  std::string status = "OK";
  if (options.k == 2) {
    if (h.num_vertices() % 2 != 0) {
      std::cerr << "bisection needs an even number of vertices\n";
      return 1;
    }
    ht::StatusOr<ht::core::BisectionReport> report;
    if (options.algo == "theorem1") {
      report = solver.bisect(h);
    } else if (options.algo == "cuttree") {
      report = solver.bisect_via_cut_tree(h);
    } else if (options.algo == "smalledges") {
      ht::core::SmallEdgeOptions t;
      t.seed = options.seed;
      report = ht::core::bisect_small_edges(h, t);
    } else if (options.algo == "fm") {
      ht::Rng rng(options.seed);
      report = ht::core::bisect_fm_baseline(h, rng);
    } else {
      std::cerr << "unknown --algo=" << options.algo << "\n";
      return 2;
    }
    for (std::size_t v = 0; v < part.size(); ++v)
      part[v] = report->solution.side[v] ? 1 : 0;
    cut = report->solution.cut;
    connectivity = cut;
    status = report->status.code_name();
  } else {
    if (h.num_vertices() % options.k != 0) {
      std::cerr << "k must divide n for balanced partitioning\n";
      return 1;
    }
    ht::Rng rng(options.seed);
    const auto sol =
        (options.k & (options.k - 1)) == 0
            ? ht::partition::kway_recursive_bisection(h, options.k, rng)
            : ht::partition::kway_peel(h, options.k, rng);
    part = sol.part;
    cut = sol.cut;
    connectivity = sol.connectivity;
  }

  if (!options.quiet) {
    for (std::size_t v = 0; v < part.size(); ++v)
      std::cout << part[v] << "\n";
  }
  std::cout << "# cut=" << cut << " connectivity=" << connectivity
            << " n=" << h.num_vertices() << " m=" << h.num_edges()
            << " k=" << options.k << " algo=" << options.algo
            << " threads=" << solver.context().threads
            << " status=" << status << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::cerr
        << "usage: hypertree_cli <file.hmetis> "
           "[--algo=theorem1|cuttree|smalledges|fm] [--k=K] [--seed=S] "
           "[--deadline-ms=N] [--threads=N] [--quiet]\n"
           "       hypertree_cli build-snapshot <file.hmetis> <out.htsnap> "
           "[--seed=S] [--deadline-ms=N] [--threads=N] [--build-info=TEXT] "
           "[--prep=off|exact] [--shards=K] "
           "[--memory-budget-mb=M] [--resident=B] [--temp-dir=DIR]\n"
           "       hypertree_cli serve <snapshot.htsnap> [--deadline-ms=N] "
           "[--threads=N] [--slow-query-us=N] [--flight-dump=FILE] "
           "[--no-flight-recorder]\n";
    return 2;
  }
  if (options.command == "build-snapshot") return run_build_snapshot(options);
  if (options.command == "serve") return run_serve(options);
  return run_partition(options);
}
