// perfbench: the repository's seeded end-to-end benchmark.
//
//   perfbench --workload build|serve --seed N --seconds S --trace 0|1
//             --work DIR
//
// Every run generates its inputs (corpus.hpp; the seed drives the query
// streams and the checks' samples), sets up three times (setup_s is the
// median), and then:
//
//  * --trace 0 runs the three phases with the library's own tracing off:
//    the in-memory build of the corpus, the sharded builds, and
//    closed-loop serving with an open-loop swap schedule, interleaved in
//    kRounds rounds (run_measured). The workload's own phases get
//    --seconds; the others run a fixed minimum, so every end-to-end metric
//    is present in every workload's output.
//  * --trace 1 replays the same work layer by layer under the benchmark's
//    own spans (spans.hpp) and prints the per-layer metrics.
//
// The last stdout line is one JSON object {"correct", "attempted",
// "failed", "metrics"}. A non-ok status or a failed correctness check is a
// failed operation. Human-readable context (deterministic counts, snapshot
// hashes, noise probes, swap lateness) goes to the lines before it.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "corpus.hpp"
#include "cuttree/tree_bisection.hpp"
#include "cuttree/tree_edge_partition.hpp"
#include "ht/hypertree.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "spans.hpp"
#include "util/hash64.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ht::hypergraph::VertexId;

constexpr std::size_t kThreads = 2;  // build and sharded-build threads
constexpr int kSetupReps = 3;
constexpr int kRounds = 3;
// Serving runs in slices of this length, each on a freshly opened server.
constexpr double kSliceSeconds = 0.5;
constexpr long kSideSlices = 8;  // per round, in the build workload
constexpr int kPointClients = 2;
constexpr int kWarmupQueries = 20'000;
// Every 100 ms: four swaps per slice.
constexpr auto kSwapPeriod = std::chrono::milliseconds(100);
constexpr std::int32_t kWays = 4;
constexpr int kSamplePairs = 8;
constexpr int kShardSamplePairs = 4;
constexpr std::int32_t kShards = 64;
constexpr std::int32_t kResidentShards = 2;
constexpr std::size_t kShardBudgetBytes = std::size_t{2} << 20;  // 2 MiB

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank percentile of unsorted samples (sorted in place).
template <typename T>
double percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return static_cast<double>(v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)]);
}

bool same_value(double a, double b) {
  return std::fabs(a - b) <= 1e-9 * std::max(1.0, std::fabs(b));
}

/// Attempted and failed operations over the whole run.
class Tally {
 public:
  bool check(bool ok, const std::string& what) {
    add(1, ok ? 0 : 1);
    if (!ok) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    return ok;
  }
  void add(std::uint64_t attempted, std::uint64_t failed) {
    attempted_.fetch_add(attempted, std::memory_order_relaxed);
    failed_.fetch_add(failed, std::memory_order_relaxed);
  }
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

Tally g_tally;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---------------------------------------------------------------------------
// Ground truth and query streams

double flow_cut(const Hypergraph& h, const std::vector<VertexId>& a,
                const std::vector<VertexId>& b) {
  return ht::CutEngine().min_hyperedge_cut(h, a, b).value;
}

/// Global min cut by n - 1 independent s-t flows from vertex 0, spread
/// over three threads (checks are not timed). NaN when a flow throws.
double global_min_cut_truth(const Hypergraph& h) {
  constexpr int kWorkers = 3;
  std::vector<double> best(kWorkers, std::numeric_limits<double>::infinity());
  {
    std::vector<std::jthread> workers;
    for (int w = 0; w < kWorkers; ++w) {
      workers.emplace_back([&h, &best, w] {
        try {
          for (VertexId t = 1 + w; t < h.num_vertices(); t += kWorkers) {
            best[w] = std::min(best[w], flow_cut(h, {0}, {t}));
          }
        } catch (...) {
          best[w] = std::numeric_limits<double>::quiet_NaN();
        }
      });
    }
  }
  double out = best[0];
  for (const double b : best) out = std::isnan(b) || b < out ? b : out;
  return out;
}

std::pair<VertexId, VertexId> random_pair(ht::Rng& rng, VertexId n) {
  const auto s = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
  auto t = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n - 1)));
  if (t >= s) ++t;
  return {s, t};
}

/// Disjoint random sides of 1..4 vertices each.
void random_sets(ht::Rng& rng, VertexId n, std::vector<VertexId>& a,
                 std::vector<VertexId>& b) {
  a.clear();
  b.clear();
  const auto size_a = 1 + rng.next_below(4);
  const auto size_b = 1 + rng.next_below(4);
  auto fresh = [&] {
    for (;;) {
      const auto v = static_cast<VertexId>(rng.next_below(static_cast<std::uint64_t>(n)));
      if (std::find(a.begin(), a.end(), v) == a.end() &&
          std::find(b.begin(), b.end(), v) == b.end()) {
        return v;
      }
    }
  };
  while (a.size() < size_a) a.push_back(fresh());
  while (b.size() < size_b) b.push_back(fresh());
}

bool exactly_balanced(const std::vector<bool>& side) {
  const auto ones = std::count(side.begin(), side.end(), true);
  return 2 * static_cast<std::size_t>(ones) == side.size();
}

bool parts_balanced(const std::vector<std::int32_t>& part, std::int32_t k) {
  std::vector<std::size_t> sizes(static_cast<std::size_t>(k), 0);
  for (const std::int32_t p : part) {
    if (p < 0 || p >= k) return false;
    ++sizes[static_cast<std::size_t>(p)];
  }
  return std::all_of(sizes.begin(), sizes.end(),
                     [&](std::size_t s) { return s * k == part.size(); });
}

/// Weight of the hyperedges whose pins fall into more than one part.
double kway_cut_weight(const Hypergraph& h, const std::vector<std::int32_t>& part) {
  double cut = 0.0;
  for (std::int32_t e = 0; e < h.num_edges(); ++e) {
    const auto pins = h.pins(e);
    const std::int32_t first = part[static_cast<std::size_t>(pins[0])];
    for (const VertexId v : pins) {
      if (part[static_cast<std::size_t>(v)] != first) {
        cut += h.edge_weight(e);
        break;
      }
    }
  }
  return cut;
}

std::uint64_t file_hash(const std::string& path, std::uint64_t* bytes) {
  std::ifstream in(path, std::ios::binary);
  const std::string data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  *bytes = data.size();
  return ht::hash64(data.data(), data.size());
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Noise context: a fixed memory-bound probe and a fixed compute-bound one,
// so a slow phase of the machine can be told apart from a regression.

struct Noise {
  double mem_ms = 0.0;
  double cpu_ms = 0.0;
};

Noise noise_probe() {
  // 32 MiB: far past the per-core L2, so the chase runs in the shared last
  // level cache and memory, which neighbouring tenants also load.
  constexpr std::size_t kWords = std::size_t{8} << 20;
  constexpr int kSteps = 1'000'000;
  static std::vector<std::uint32_t> buffer(kWords, 0);
  Noise noise;
  auto t0 = Clock::now();
  std::uint64_t idx = 1;
  for (int i = 0; i < kSteps; ++i) {
    // The next address depends on the loaded word, so loads cannot overlap.
    idx = ((idx ^ buffer[idx]) * 6364136223846793005ULL + 1442695040888963407ULL) &
          (kWords - 1);
  }
  noise.mem_ms = 1e3 * seconds_between(t0, Clock::now());
  t0 = Clock::now();
  std::uint64_t x = idx | 1;
  double acc = 0.0;
  for (int i = 0; i < 50'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += static_cast<double>(x & 0xff);
  }
  noise.cpu_ms = 1e3 * seconds_between(t0, Clock::now());
  if (acc < 0.0) std::printf("unreachable %f\n", acc);  // keeps the loop
  return noise;
}

// ---------------------------------------------------------------------------
// Setup: generate inputs, write hMetis files, prebuild the serve snapshots.

struct Inputs {
  std::vector<Instance> corpus;
  std::vector<Instance> sharded;
  Instance serve;
  std::string serve_a;
  std::string serve_b;
};

Inputs make_inputs(const Args& args, ht::Solver& solver) {
  Inputs in;
  const auto t0 = Clock::now();
  in.corpus = build_corpus();
  in.sharded = sharded_corpus();
  in.serve = serve_instance();
  const auto t1 = Clock::now();
  for (auto* list : {&in.corpus, &in.sharded}) {
    for (Instance& inst : *list) {
      inst.hmetis = args.work + "/" + inst.name + ".hmetis";
      ht::hypergraph::write_hmetis_file(inst.h, inst.hmetis);
    }
  }
  const auto t2 = Clock::now();
  in.serve_a = args.work + "/serve_a.htsnap";
  in.serve_b = args.work + "/serve_b.htsnap";
  for (const auto& [path, build_seed] :
       {std::pair{in.serve_a, 17}, std::pair{in.serve_b, 18}}) {
    ht::snapshot::BuildOptions options;
    options.seed = static_cast<std::uint64_t>(build_seed);
    g_tally.check(solver.build_snapshot(in.serve.h, path, options).ok(),
                  "build serve snapshot " + path);
  }
  std::printf("setup generate %.3f s, write %.3f s, serve snapshots %.3f s\n",
              seconds_between(t0, t1), seconds_between(t1, t2),
              seconds_between(t2, Clock::now()));
  return in;
}

// ---------------------------------------------------------------------------
// build: hMetis file -> read -> prep -> snapshot (GH + VCT + decomposition)
// -> TreeServer::open, over the whole corpus.

struct BuildPhase {
  std::vector<double> pass_s;
  double peak_rss_mb = 0.0;  // process high-water after the first pass's builds
  std::uint64_t snapshot_bytes = 0;
  double bisection_cut = 0.0;
  double kway_cut = 0.0;
  std::vector<std::uint64_t> hashes;
};

ht::snapshot::BuildOptions build_options(const Instance& inst) {
  ht::snapshot::BuildOptions options;
  if (inst.prep_exact) options.prep.mode = ht::prep::PrepConfig::Mode::kExactOnly;
  return options;
}

/// The served answers of one corpus snapshot against flow truth on the
/// ORIGINAL instance; adds the recomputed bisection and k-way cuts.
void check_corpus_instance(const Args& args, int index, const Instance& inst,
                           const ht::TreeServer& server, BuildPhase& out) {
  const Hypergraph& h = inst.h;
  const VertexId n = h.num_vertices();
  const std::string tag = "build/" + inst.name + ": ";
  // Exact prep merges vertices, so point answers are checked only without
  // prep; the global min-cut value must survive either way.
  if (!inst.prep_exact) {
    ht::Rng rng(stream_seed(args.seed, 100 + index, 0));
    std::vector<VertexId> a, b;
    for (int k = 0; k < kSamplePairs; ++k) {
      const auto [s, t] = random_pair(rng, n);
      const auto served = server.min_cut(s, t);
      g_tally.check(served.ok() && served->exact &&
                        same_value(served->value, flow_cut(h, {s}, {t})),
                    tag + "min_cut equals flow truth");
      random_sets(rng, n, a, b);
      const auto estimate = server.set_cut(a, b);
      g_tally.check(estimate.ok() && estimate->value >= flow_cut(h, a, b) - 1e-9,
                    tag + "set_cut never below flow truth");
    }
  }
  const auto gmin = server.global_min_cut();
  g_tally.check(gmin.ok() && same_value(gmin->value, global_min_cut_truth(h)),
                tag + "global_min_cut equals flow truth");
  const auto bisection = server.bisection();
  if (g_tally.check(bisection.ok() && exactly_balanced(bisection->side),
                    tag + "bisection exactly balanced")) {
    const double cut = h.cut_weight(bisection->side);
    if (!inst.prep_exact) {
      g_tally.check(same_value(bisection->cut, cut), tag + "bisection cut matches side");
    }
    out.bisection_cut += cut;
  }
  const auto kway = server.kway(kWays);
  if (g_tally.check(kway.ok() && parts_balanced(kway->part, kWays),
                    tag + "kway parts balanced")) {
    const double cut = kway_cut_weight(h, kway->part);
    if (!inst.prep_exact) {
      g_tally.check(same_value(kway->cut, cut), tag + "kway cut matches parts");
    }
    out.kway_cut += cut;
  }
}

/// One corpus pass; returns its wall, which covers read, build and open
/// but not the checks. The first pass records the build's peak RSS before
/// any query runs, checks the served answers and records the deterministic
/// outputs; later passes check that the snapshot bytes repeat.
double build_pass(const Args& args, const Inputs& in, ht::Solver& solver, BuildPhase& out) {
  const bool first = out.pass_s.empty();
  double pass_s = 0.0;
  std::vector<std::optional<ht::TreeServer>> servers(in.corpus.size());
  for (std::size_t i = 0; i < in.corpus.size(); ++i) {
    const Instance& inst = in.corpus[i];
    const std::string path = args.work + "/" + inst.name + ".htsnap";
    const auto t0 = Clock::now();
    auto h = ht::Solver::read_hmetis(inst.hmetis);
    ht::Status built = h.ok() ? solver.build_snapshot(*h, path, build_options(inst))
                              : h.status();
    auto server = built.ok() ? ht::TreeServer::open(path)
                             : ht::StatusOr<ht::TreeServer>(built);
    pass_s += seconds_between(t0, Clock::now());
    if (g_tally.check(server.ok(), "build/" + inst.name + ": " + server.status().to_string())) {
      servers[i] = std::move(*server);
    }
  }
  out.pass_s.push_back(pass_s);
  if (first) out.peak_rss_mb = peak_rss_mib();
  for (std::size_t i = 0; i < in.corpus.size(); ++i) {
    if (!servers[i].has_value()) continue;
    const Instance& inst = in.corpus[i];
    std::uint64_t bytes = 0;
    const std::uint64_t hash = file_hash(args.work + "/" + inst.name + ".htsnap", &bytes);
    if (first) {
      out.hashes.push_back(hash);
      out.snapshot_bytes += bytes;
      check_corpus_instance(args, static_cast<int>(i), inst, *servers[i], out);
    } else {
      g_tally.check(i < out.hashes.size() && out.hashes[i] == hash,
                    "build/" + inst.name + ": snapshot bytes repeat");
    }
  }
  return pass_s;
}

// ---------------------------------------------------------------------------
// serve: two point clients (90% min_cut, 10% set_cut), one partition
// client (bisection / kway(4) alternating), all closed-loop; the main
// thread hot-swaps A <-> B every kSwapPeriod on a fixed open-loop schedule.

struct ServeSamples {
  int slices = 0;
  double seconds = 0.0;
  std::uint64_t point_queries = 0;
  std::uint64_t partition_queries = 0;
  std::uint64_t swaps = 0;
  // One value per slice; run_measured reports their slowest decile.
  std::vector<double> qps, min_cut_p50_us, set_cut_p50_us, swap_p50_ms;
  std::vector<double> min_cut_p99_us, set_cut_p99_us;
  std::vector<std::uint32_t> bisection_ns, kway_ns;
  std::vector<double> late_ms;  // how late each swap started after its due time
};

std::uint32_t elapsed_ns(Clock::time_point a, Clock::time_point b) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
  return static_cast<std::uint32_t>(std::min<std::int64_t>(ns, 0xffffffffLL));
}

/// One serving slice of `seconds` on a freshly opened server; appends its
/// samples to `out`.
void serve_slice(const Args& args, const Inputs& in, double seconds, ServeSamples& out) {
  auto opened = ht::TreeServer::open(in.serve_a);
  if (!g_tally.check(opened.ok(), "serve: open " + in.serve_a)) return;
  ht::TreeServer& server = *opened;
  const VertexId n = server.info().num_vertices;
  const int slice = out.slices++;
  {
    // Untimed warm-up on the fresh server, so that page faults and cold
    // caches stay out of the slice.
    ht::Rng rng(stream_seed(args.seed, 250, slice));
    std::uint64_t failed = 0;
    for (int i = 0; i < kWarmupQueries; ++i) {
      const auto [s, t] = random_pair(rng, n);
      if (!server.min_cut(s, t).ok()) ++failed;
    }
    g_tally.add(kWarmupQueries, failed);
  }

  struct Client {
    std::vector<std::uint32_t> min_cut_ns, set_cut_ns, bisection_ns, kway_ns;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
  };
  std::vector<Client> clients(kPointClients + 1);

  // The clients stop when their jthread is asked to, which its destructor
  // also does, so no exit path leaves a thread running.
  auto point_client = [&](std::stop_token stop, int c) {
    Client& me = clients[static_cast<std::size_t>(c)];
    // Reserved up front, so that no sample vector grows inside the loop.
    me.min_cut_ns.reserve(static_cast<std::size_t>(seconds * 600'000));
    me.set_cut_ns.reserve(static_cast<std::size_t>(seconds * 60'000));
    ht::Rng rng(stream_seed(args.seed, 200 + c, slice));
    std::vector<VertexId> a, b;
    while (!stop.stop_requested()) {
      bool ok = false;
      if (rng.next_below(10) == 0) {
        random_sets(rng, n, a, b);
        const auto q0 = Clock::now();
        const auto answer = server.set_cut(a, b);
        const auto q1 = Clock::now();
        ok = answer.ok();
        me.set_cut_ns.push_back(elapsed_ns(q0, q1));
      } else {
        const auto [s, t] = random_pair(rng, n);
        const auto q0 = Clock::now();
        const auto answer = server.min_cut(s, t);
        const auto q1 = Clock::now();
        ok = answer.ok() && answer->exact;
        me.min_cut_ns.push_back(elapsed_ns(q0, q1));
      }
      ++me.attempted;
      if (!ok) ++me.failed;
    }
  };
  auto partition_client = [&](std::stop_token stop) {
    Client& me = clients.back();
    for (bool bisect = true; !stop.stop_requested(); bisect = !bisect) {
      bool ok = false;
      const auto q0 = Clock::now();
      if (bisect) {
        const auto answer = server.bisection();
        const auto q1 = Clock::now();
        ok = answer.ok() && exactly_balanced(answer->side);
        me.bisection_ns.push_back(elapsed_ns(q0, q1));
      } else {
        const auto answer = server.kway(kWays);
        const auto q1 = Clock::now();
        ok = answer.ok() && parts_balanced(answer->part, kWays);
        me.kway_ns.push_back(elapsed_ns(q0, q1));
      }
      ++me.attempted;
      if (!ok) ++me.failed;
    }
  };

  std::vector<double> swap_ms;
  std::uint64_t swap_failures = 0;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  {
    std::vector<std::jthread> threads;
    for (int c = 0; c < kPointClients; ++c) threads.emplace_back(point_client, c);
    threads.emplace_back(partition_client);
    for (int k = 1;; ++k) {
      const auto due = start + k * kSwapPeriod;
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const auto begun = Clock::now();
      const ht::Status swapped = server.swap(k % 2 == 1 ? in.serve_b : in.serve_a);
      const auto done = Clock::now();
      // The schedule is open-loop, but a swap is timed from its start: how
      // late it started is timer slack on the sleeping main thread (about a
      // third of a swap, and unsteady), so it is kept apart in late_ms.
      swap_ms.push_back(1e3 * seconds_between(begun, done));
      out.late_ms.push_back(1e3 * seconds_between(due, begun));
      if (!swapped.ok()) ++swap_failures;
    }
    std::this_thread::sleep_until(end);
    for (std::jthread& t : threads) t.request_stop();
  }  // the jthreads join here
  const double slice_s = seconds_between(start, end);
  out.seconds += slice_s;
  g_tally.add(swap_ms.size(), swap_failures);
  out.swaps += swap_ms.size();
  out.swap_p50_ms.push_back(percentile(swap_ms, 0.50));
  std::uint64_t points = 0;
  std::vector<std::uint32_t> min_cut_ns, set_cut_ns;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    Client& me = clients[c];
    g_tally.add(me.attempted, me.failed);
    (c < kPointClients ? points : out.partition_queries) += me.attempted;
    for (auto [from, to] : {std::pair{&me.min_cut_ns, &min_cut_ns},
                            std::pair{&me.set_cut_ns, &set_cut_ns},
                            std::pair{&me.bisection_ns, &out.bisection_ns},
                            std::pair{&me.kway_ns, &out.kway_ns}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  out.point_queries += points;
  out.qps.push_back(static_cast<double>(points) / slice_s);
  out.min_cut_p50_us.push_back(percentile(min_cut_ns, 0.50) / 1e3);
  out.min_cut_p99_us.push_back(percentile(min_cut_ns, 0.99) / 1e3);
  out.set_cut_p50_us.push_back(percentile(set_cut_ns, 0.50) / 1e3);
  out.set_cut_p99_us.push_back(percentile(set_cut_ns, 0.99) / 1e3);
}

/// Both serve snapshots against flow truth on the original instance.
void check_serve_snapshots(const Args& args, const Inputs& in) {
  const double gmin_truth = global_min_cut_truth(in.serve.h);
  for (const std::string& path : {in.serve_a, in.serve_b}) {
    const std::string tag = "serve/" + path + ": ";
    auto server = ht::TreeServer::open(path);
    if (!g_tally.check(server.ok(), tag + "open")) continue;
    const VertexId n = in.serve.h.num_vertices();
    ht::Rng rng(stream_seed(args.seed, 300, 0));
    std::vector<VertexId> a, b;
    for (int k = 0; k < kSamplePairs; ++k) {
      const auto [s, t] = random_pair(rng, n);
      const auto served = server->min_cut(s, t);
      g_tally.check(served.ok() && served->exact &&
                        same_value(served->value, flow_cut(in.serve.h, {s}, {t})),
                    tag + "min_cut equals flow truth");
      random_sets(rng, n, a, b);
      const auto estimate = server->set_cut(a, b);
      g_tally.check(estimate.ok() && estimate->value >= flow_cut(in.serve.h, a, b) - 1e-9,
                    tag + "set_cut never below flow truth");
    }
    const auto gmin = server->global_min_cut();
    g_tally.check(gmin.ok() && same_value(gmin->value, gmin_truth),
                  tag + "global_min_cut equals flow truth");
  }
}

// ---------------------------------------------------------------------------
// Sharded builds: Solver::build_snapshot_sharded on ring 2000x10 and the
// row-net instance (64 shards, 2 resident, 2 MiB budget, 2 threads).

struct ShardedPhase {
  std::vector<double> pass_s;
  std::uint64_t peak_resident_bytes = 0;
  std::vector<std::uint64_t> hashes;
};

ht::scale::ShardOptions shard_options(const Args& args, const Instance& inst) {
  ht::scale::ShardOptions options;
  options.shards = kShards;
  options.resident = kResidentShards;
  options.memory_budget_bytes = kShardBudgetBytes;
  options.temp_dir = args.work + "/" + inst.name + ".shards";
  return options;
}

void check_sharded_instance(const Args& args, int index, const Instance& inst,
                            const std::string& path) {
  const std::string tag = "sharded/" + inst.name + ": ";
  auto server = ht::TreeServer::open(path);
  if (!g_tally.check(server.ok(), tag + "open")) return;
  const auto gmin = server->global_min_cut();
  g_tally.check(gmin.ok(), tag + "global_min_cut");
  if (inst.known_global_min_cut > 0.0) {
    g_tally.check(gmin.ok() && gmin->value == inst.known_global_min_cut,
                  tag + "global_min_cut equals the ring's");
  }
  ht::Rng rng(stream_seed(args.seed, 400 + index, 0));
  for (int k = 0; k < kShardSamplePairs; ++k) {
    const auto [s, t] = random_pair(rng, inst.h.num_vertices());
    const auto served = server->min_cut(s, t);
    g_tally.check(served.ok() && served->value >= flow_cut(inst.h, {s}, {t}) - 1e-9,
                  tag + "min_cut never below flow truth");
  }
}

/// Both sharded builds; returns their wall. Checks as in build_pass.
double sharded_pass(const Args& args, const Inputs& in, ht::Solver& solver,
                    ShardedPhase& out) {
  const bool first = out.pass_s.empty();
  double pass_s = 0.0;
  for (std::size_t i = 0; i < in.sharded.size(); ++i) {
    const Instance& inst = in.sharded[i];
    const std::string path = args.work + "/" + inst.name + ".htsnap";
    ht::scale::ShardBuildReport report;
    const auto t0 = Clock::now();
    const ht::Status built = solver.build_snapshot_sharded(
        inst.hmetis, path, shard_options(args, inst), &report);
    pass_s += seconds_between(t0, Clock::now());
    if (!g_tally.check(built.ok() && report.complete,
                       "sharded/" + inst.name + ": " + built.to_string())) {
      continue;
    }
    out.peak_resident_bytes = std::max(out.peak_resident_bytes, report.peak_resident_bytes);
    std::uint64_t bytes = 0;
    const std::uint64_t hash = file_hash(path, &bytes);
    if (first) {
      out.hashes.push_back(hash);
      check_sharded_instance(args, static_cast<int>(i), inst, path);
    } else {
      g_tally.check(i < out.hashes.size() && out.hashes[i] == hash,
                    "sharded/" + inst.name + ": snapshot bytes repeat");
    }
  }
  out.pass_s.push_back(pass_s);
  return pass_s;
}

// ---------------------------------------------------------------------------
// The traced run: the same work, layer by layer, under the benchmark's
// own spans. Per-layer self times come from SpanLog; counts come from the
// library's MetricsRegistry.

std::uint64_t counter(const char* name) {
  return ht::obs::MetricsRegistry::global().counter(name).value();
}

std::uint64_t histogram_sum(const char* name) {
  return ht::obs::MetricsRegistry::global().histogram(name).sum();
}

struct LayerCounts {
  std::uint64_t max_flow_calls = 0;
  std::uint64_t augmenting_paths = 0;
  std::uint64_t pieces = 0;
  std::uint64_t materializations = 0;
  std::uint64_t pins_removed = 0;

  static LayerCounts now() {
    return {counter("flow.max_flow_calls"), histogram_sum("flow.augmenting_paths"),
            counter("engine.pieces"), counter("view.materializations"),
            counter("prep.pins_removed")};
  }
  LayerCounts operator-(const LayerCounts& o) const {
    return {max_flow_calls - o.max_flow_calls, augmenting_paths - o.augmenting_paths,
            pieces - o.pieces, materializations - o.materializations,
            pins_removed - o.pins_removed};
  }
  LayerCounts& operator+=(const LayerCounts& o) {
    max_flow_calls += o.max_flow_calls;
    augmenting_paths += o.augmenting_paths;
    pieces += o.pieces;
    materializations += o.materializations;
    pins_removed += o.pins_removed;
    return *this;
  }
};

/// Per instance, the traced build runs this many times; the build-layer
/// metrics are means per pass, the coverage a ratio of sums.
constexpr int kTraceReps = 3;

struct TracedBuild {
  LayerCounts counts;                 // one pass
  std::uint64_t gh_flows = 0;         // one pass
  std::uint64_t gh_useful_flows = 0;  // sum of (stored n - 1)
  std::uint64_t clique_edges = 0;
  std::uint64_t decomposition_nodes = 0;
  double untraced_ms = 0.0;   // one build pass, no spans
  double residual_ms = 0.0;   // per pass: reference build wall minus layer spans
  double min_coverage = 1.0;  // worst instance: layer spans / build wall
};

/// One traced build of `inst`: read, the library's snapshot::build as the
/// reference, publish, open, then a replay of snapshot::build's layer
/// calls in serve/snapshot_build.cpp's order on the same stored instance
/// and options. The first repetition asserts that the replay matches what
/// the opened snapshot serves and records the deterministic counts.
void trace_instance(const Args& args, const Instance& inst, const ht::RunContext& ctx,
                    bool first, SpanLog& log, TracedBuild& out, double& reference_ms,
                    double& layers_ms) {
  const std::string tag = "trace/" + inst.name + ": ";
  const std::string path = args.work + "/" + inst.name + ".traced.htsnap";
  const ht::snapshot::BuildOptions options = build_options(inst);
  SpanLog::Scope instance_span(log, "instance." + inst.name);

  std::optional<Hypergraph> h;
  {
    SpanLog::Scope span(log, "hypergraph.read");
    auto read = ht::Solver::read_hmetis(inst.hmetis);
    if (read.ok()) h = std::move(*read);
  }
  if (!g_tally.check(h.has_value(), tag + "read")) return;
  ht::StatusOr<std::string> bytes;
  {
    ht::RunScope scope(ctx);
    SpanLog::Scope span(log, "snapshot.build");
    const auto t0 = Clock::now();
    bytes = ht::snapshot::build(*h, options);
    reference_ms += 1e3 * seconds_between(t0, Clock::now());
  }
  if (!g_tally.check(bytes.ok(), tag + "snapshot::build")) return;
  {
    SpanLog::Scope span(log, "serve.publish");
    g_tally.check(ht::snapshot::write_bytes_atomic(path, *bytes).ok(), tag + "publish");
  }
  ht::StatusOr<std::shared_ptr<const ht::serve::LoadedSnapshot>> loaded;
  {
    SpanLog::Scope span(log, "serve.open");
    loaded = ht::serve::LoadedSnapshot::load_file(path);
  }
  if (!g_tally.check(loaded.ok(), tag + "open")) return;

  const LayerCounts before = LayerCounts::now();
  ht::prep::PrepResult prep_result;
  const Hypergraph* stored = &*h;
  ht::flow::HypergraphGomoryHuRunResult gh;
  std::uint64_t gh_flows = 0;
  std::int32_t vct_nodes = 0;
  ht::graph::Graph expansion;
  std::int32_t decomposition_nodes = 0;
  {
    ht::RunScope scope(ctx);
    SpanLog::Scope replay(log, "replay");
    const auto layer = [&](const char* name, auto&& body) {
      const auto t0 = Clock::now();
      {
        SpanLog::Scope span(log, name);
        body();
      }
      layers_ms += 1e3 * seconds_between(t0, Clock::now());
    };
    if (options.prep.mode != ht::prep::PrepConfig::Mode::kOff) {
      layer("prep.run_pipeline", [&] {
        auto pipeline = ht::prep::run_pipeline(*h, options.prep);
        prep_result = std::move(*pipeline);
      });
      if (prep_result.applied()) stored = &prep_result.reduced;
    }
    const std::uint64_t flows0 = counter("flow.max_flow_calls");
    layer("flow.gomory_hu", [&] { gh = ht::CutEngine().gomory_hu(*stored); });
    gh_flows = counter("flow.max_flow_calls") - flows0;
    ht::reduction::StarExpansion star;
    layer("reduction.star_expansion", [&] { star = ht::reduction::star_expansion(*stored); });
    layer("cuttree.vertex_cut_tree", [&] {
      ht::cuttree::VertexCutTreeOptions vct_options;
      vct_options.seed = options.seed;
      vct_options.alpha = options.alpha;
      vct_nodes = ht::cuttree::build_vertex_cut_tree(star.graph, vct_options).tree.num_nodes();
    });
    layer("reduction.clique_expansion", [&] {
      expansion = ht::reduction::clique_expansion(*stored);
      if (!expansion.finalized()) expansion.finalize();
    });
    layer("cuttree.decomposition", [&] {
      ht::cuttree::DecompositionOptions decomposition_options;
      decomposition_options.seed = options.seed;
      decomposition_nodes =
          ht::cuttree::build_decomposition_tree_run(expansion, decomposition_options)
              .tree.num_nodes();
    });
  }
  if (!first) return;
  out.counts += LayerCounts::now() - before;
  out.gh_flows += gh_flows;
  out.gh_useful_flows += static_cast<std::uint64_t>(stored->num_vertices() - 1);
  out.clique_edges += static_cast<std::uint64_t>(expansion.num_edges());
  out.decomposition_nodes += static_cast<std::uint64_t>(decomposition_nodes);
  // Same work: the replayed artifacts are the ones the snapshot serves.
  const ht::serve::LoadedSnapshot& snap = **loaded;
  g_tally.check(snap.gomory_hu.has_value() && snap.gomory_hu->parent == gh.tree.parent &&
                    snap.gomory_hu->parent_cut == gh.tree.parent_cut,
                tag + "replayed GH arrays match the snapshot");
  g_tally.check(snap.meta.vct_num_nodes == vct_nodes,
                tag + "replayed VCT node count matches the snapshot");
  g_tally.check(snap.meta.decomp_num_nodes == decomposition_nodes,
                tag + "replayed decomposition node count matches the snapshot");
}

TracedBuild trace_build(const Args& args, const Inputs& in, ht::Solver& solver,
                        const ht::RunContext& ctx, SpanLog& log) {
  TracedBuild out;
  // The untraced twin of the traced read + build + publish + open below.
  BuildPhase untraced;
  out.untraced_ms = 1e3 * build_pass(args, in, solver, untraced);
  for (const Instance& inst : in.corpus) {
    double reference_ms = 0.0;
    double layers_ms = 0.0;
    for (int rep = 0; rep < kTraceReps; ++rep) {
      trace_instance(args, inst, ctx, rep == 0, log, out, reference_ms, layers_ms);
    }
    out.residual_ms += (reference_ms - layers_ms) / kTraceReps;
    out.min_coverage = std::min(out.min_coverage, layers_ms / reference_ms);
    std::printf("trace %-14s build %.1f ms, layer spans %.1f ms (%.1f%%), residual %.1f ms\n",
                inst.name.c_str(), reference_ms / kTraceReps, layers_ms / kTraceReps,
                100.0 * layers_ms / reference_ms, (reference_ms - layers_ms) / kTraceReps);
  }
  return out;
}

struct TracedServe {
  double gh_walk_ns = 0.0;
  double served_min_cut_ns = 0.0;
  double flight_append_ns = 0.0;
  double set_cut_dp_us = 0.0;
  double bisection_dp_ms = 0.0;
  double kway_dp_ms = 0.0;
};

/// Median per-call time of `body` over `batches` batches of `calls` calls.
template <typename Body>
double per_call_ns(int batches, int calls, Body&& body) {
  std::vector<double> ns;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) body(i);
    ns.push_back(1e9 * seconds_between(t0, Clock::now()) / calls);
  }
  return median(ns);
}

TracedServe trace_serve(const Args& args, const Inputs& in, SpanLog& log) {
  TracedServe out;
  auto server = ht::TreeServer::open(in.serve_a);
  if (!g_tally.check(server.ok(), "trace/serve: open")) return out;
  const auto state = server->state();
  const VertexId n = state->original_vertices();
  constexpr int kPairs = 50'000;
  std::vector<std::pair<VertexId, VertexId>> pairs;
  ht::Rng rng(stream_seed(args.seed, 500, 0));
  for (int i = 0; i < kPairs; ++i) pairs.push_back(random_pair(rng, n));
  double sink = 0.0;
  {
    SpanLog::Scope span(log, "flow.gh_walk");
    out.gh_walk_ns = per_call_ns(5, kPairs, [&](int i) {
      sink += state->gomory_hu->min_cut(pairs[i].first, pairs[i].second);
    });
  }
  {
    SpanLog::Scope span(log, "serve.min_cut");
    std::uint64_t failed = 0;
    out.served_min_cut_ns = per_call_ns(5, kPairs, [&](int i) {
      const auto answer = server->min_cut(pairs[i].first, pairs[i].second);
      if (answer.ok()) sink += answer->value; else ++failed;
    });
    g_tally.add(5 * kPairs, failed);
  }
  {
    SpanLog::Scope span(log, "obs.flight_append");
    ht::obs::FlightRecord probe;
    probe.kind = ht::obs::QueryKind::kMinCut;
    probe.latency_ns = 1000;
    auto& recorder = ht::obs::FlightRecorder::global();
    out.flight_append_ns = per_call_ns(5, 100'000, [&](int) { recorder.append(probe); });
  }
  {
    SpanLog::Scope span(log, "cuttree.set_cut_dp");
    constexpr int kSets = 2'000;
    std::vector<std::pair<std::vector<VertexId>, std::vector<VertexId>>> sets(kSets);
    for (auto& [a, b] : sets) random_sets(rng, n, a, b);
    out.set_cut_dp_us = per_call_ns(5, kSets, [&](int i) {
      sink += ht::cuttree::tree_vertex_cut_dp(*state->vertex_cut_tree, sets[i].first,
                                              sets[i].second);
    }) / 1e3;
  }
  std::vector<ht::cuttree::VertexId> counted(static_cast<std::size_t>(n));
  for (VertexId v = 0; v < n; ++v) counted[static_cast<std::size_t>(v)] = v;
  {
    SpanLog::Scope span(log, "cuttree.bisection_dp");
    out.bisection_dp_ms = per_call_ns(9, 1, [&](int) {
      const auto result = ht::cuttree::balanced_tree_bisection(*state->vertex_cut_tree, counted);
      g_tally.check(result.valid && exactly_balanced(result.side), "trace/serve: bisection DP");
    }) / 1e6;
  }
  {
    SpanLog::Scope span(log, "cuttree.kway_dp");
    out.kway_dp_ms = per_call_ns(9, 1, [&](int) {
      // kway(4) as TreeServer peels it: one n/k block per round.
      std::vector<ht::cuttree::VertexId> remaining = counted;
      for (std::int32_t round = 0; round + 1 < kWays; ++round) {
        const auto result =
            ht::cuttree::tree_edge_partition(*state->decomposition, remaining, n / kWays);
        if (!g_tally.check(result.valid, "trace/serve: kway DP")) return;
        std::vector<ht::cuttree::VertexId> next;
        for (std::size_t i = 0; i < remaining.size(); ++i) {
          if (!result.side[i]) next.push_back(remaining[i]);
        }
        remaining = std::move(next);
      }
    }) / 1e6;
  }
  if (sink == -1.0) std::printf("unreachable\n");  // keeps the timed loops
  return out;
}

struct TracedSharded {
  std::uint64_t spill_bytes = 0;
  std::uint64_t boundary_pins = 0;
  LayerCounts counts;
};

TracedSharded trace_sharded(const Args& args, const Inputs& in, const ht::RunContext& ctx,
                            SpanLog& log) {
  TracedSharded out;
  for (const Instance& inst : in.sharded) {
    const std::string tag = "trace/" + inst.name + ": ";
    const ht::scale::ShardOptions options = shard_options(args, inst);
    ht::scale::IngestOptions ingest;
    ingest.shards = options.shards;
    ingest.temp_dir = options.temp_dir;
    ingest.memory_budget_bytes = options.memory_budget_bytes;
    const LayerCounts before = LayerCounts::now();
    ht::StatusOr<ht::scale::ShardManifest> manifest;
    {
      SpanLog::Scope span(log, "scale.ingest");
      manifest = ht::scale::shard_hmetis_file(inst.hmetis, ingest);
    }
    if (!g_tally.check(manifest.ok(), tag + "ingest")) continue;
    ht::scale::ShardBuildReport report;
    {
      ht::RunScope scope(ctx);
      SpanLog::Scope span(log, "scale.driver");
      g_tally.check(ht::scale::build_from_manifest(*manifest, args.work + "/" + inst.name +
                                                                   ".traced.htsnap",
                                                   options, &report)
                            .ok() &&
                        report.complete,
                    tag + "driver");
    }
    std::error_code ec;
    std::filesystem::remove_all(options.temp_dir, ec);
    out.counts += LayerCounts::now() - before;
    out.spill_bytes += report.spill_bytes;
    out.boundary_pins += static_cast<std::uint64_t>(report.boundary_pins);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output

void print_result(const std::vector<Metric>& metrics) {
  const std::uint64_t attempted = std::max<std::uint64_t>(1, g_tally.attempted());
  const std::uint64_t failed = g_tally.failed();
  std::printf("error_rate %llu/%llu = %.6g\n", static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted),
              static_cast<double>(failed) / static_cast<double>(attempted));
  std::string json = "{\"correct\": ";
  json += failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_hashes(const char* phase, const std::vector<Instance>& list,
                  const std::vector<std::uint64_t>& hashes) {
  for (std::size_t i = 0; i < list.size() && i < hashes.size(); ++i) {
    std::printf("hash %s/%s %016llx\n", phase, list[i].name.c_str(),
                static_cast<unsigned long long>(hashes[i]));
  }
}

void print_passes(const char* phase, const std::vector<double>& pass_s) {
  std::printf("%s median %.3f s over %zu passes:", phase, median(pass_s), pass_s.size());
  for (const double s : pass_s) std::printf(" %.3f", s);
  std::printf("\n");
}

bool parse_args(int argc, char** argv, Args& args) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) flags[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || flags.size() != 5) return false;
  for (const char* key : {"--workload", "--seed", "--seconds", "--trace", "--work"}) {
    if (flags.count(key) == 0) return false;
  }
  args.workload = flags["--workload"];
  if (args.workload != "build" && args.workload != "serve") return false;
  char* end = nullptr;
  args.seed = std::strtoull(flags["--seed"].c_str(), &end, 10);
  if (*end != '\0') return false;
  args.seconds = std::strtod(flags["--seconds"].c_str(), &end);
  if (*end != '\0' || !(args.seconds > 0.0)) return false;
  if (flags["--trace"] != "0" && flags["--trace"] != "1") return false;
  args.trace = flags["--trace"] == "1";
  args.work = flags["--work"];
  return !args.work.empty();
}

/// The untraced run, in kRounds rounds, so that every metric's samples are
/// spread over the whole run rather than one stretch of it. Each round runs
/// in-memory passes, a sharded pass and serving slices. In the build
/// workload the in-memory passes repeat until they have used
/// seconds / kRounds per round (an overrun shortens the next round), and
/// kSideSlices slices follow; in the serve workload one in-memory pass
/// runs, and the slices fill seconds / kRounds. The sharded pass runs once
/// a round in both: its wall swung 2.5x between runs in the host's slow
/// phases, beyond any bound, so it is printed, not reported.
void run_measured(const Args& args, const Inputs& in, ht::Solver& solver,
                  std::vector<Metric>& metrics) {
  const bool serving = args.workload == "serve";
  const double round_s = args.seconds / kRounds;
  const long slices =
      serving ? std::max(1L, std::lround(round_s / kSliceSeconds)) : kSideSlices;
  BuildPhase build;
  ServeSamples serve;
  ShardedPhase sharded;
  double built_s = 0.0;
  for (int round = 0; round < kRounds; ++round) {
    do {
      built_s += build_pass(args, in, solver, build);
    } while (!serving && built_s < (round + 1) * round_s);
    sharded_pass(args, in, solver, sharded);
    for (long s = 0; s < slices; ++s) serve_slice(args, in, kSliceSeconds, serve);
  }
  check_serve_snapshots(args, in);

  print_passes("build", build.pass_s);
  print_hashes("build", in.corpus, build.hashes);
  print_passes("sharded", sharded.pass_s);
  print_hashes("sharded", in.sharded, sharded.hashes);
  std::printf("counts snapshot_bytes=%llu bisection_cut=%.17g kway_cut=%.17g "
              "sharded_peak_resident_bytes=%llu\n",
              static_cast<unsigned long long>(build.snapshot_bytes), build.bisection_cut,
              build.kway_cut, static_cast<unsigned long long>(sharded.peak_resident_bytes));
  std::printf("serve %.2f s in %d slices: %llu point queries, %llu partition queries, "
              "%llu swaps; swap lateness p50 %.4f ms, max %.4f ms\n",
              serve.seconds, serve.slices, static_cast<unsigned long long>(serve.point_queries),
              static_cast<unsigned long long>(serve.partition_queries),
              static_cast<unsigned long long>(serve.swaps),
              percentile(serve.late_ms, 0.50),
              serve.late_ms.empty() ? 0.0 : *std::max_element(serve.late_ms.begin(),
                                                               serve.late_ms.end()));
  for (const auto& [name, values] : {std::pair{"point queries/s", &serve.qps},
                                     std::pair{"min_cut p50 us", &serve.min_cut_p50_us},
                                     std::pair{"set_cut p50 us", &serve.set_cut_p50_us},
                                     std::pair{"swap p50 ms", &serve.swap_p50_ms}}) {
    std::printf("serve slices, %s:", name);
    for (const double v : *values) std::printf(" %.4g", v);
    std::printf("\n");
  }
  // Reported for context only: too unsteady on a shared host to gate on.
  std::printf("serve unguarded: min_cut p99 %.3f us, set_cut p99 %.3f us (medians over "
              "slices), bisection p50 %.3f ms, kway p50 %.3f ms\n",
              median(serve.min_cut_p99_us), median(serve.set_cut_p99_us),
              percentile(serve.bisection_ns, 0.50) / 1e6, percentile(serve.kway_ns, 0.50) / 1e6);

  metrics.push_back({"build_s", median(build.pass_s), "s"});
  metrics.push_back({"build_peak_rss_mb", build.peak_rss_mb, "MiB"});
  metrics.push_back({"snapshot_mb", static_cast<double>(build.snapshot_bytes) / (1 << 20), "MiB"});
  metrics.push_back({"bisection_cut", build.bisection_cut, "weight"});
  metrics.push_back({"kway_cut", build.kway_cut, "weight"});
  // The serving metrics take the slowest decile of the slices: the upper
  // decile of latencies, the lower of throughput. The per-slice figures
  // are bimodal on a shared host (set_cut's p50 is 15-17 us or 24-26 us, in
  // stretches of seconds), and the share of fast slices drifts from run to
  // run and hour to hour. A median over slices lands between the modes
  // wherever that share puts it; the slow mode's edge holds still.
  metrics.push_back({"point_qps", percentile(serve.qps, 0.10), "1/s"});
  metrics.push_back({"min_cut_p50_us", percentile(serve.min_cut_p50_us, 0.90), "us"});
  metrics.push_back({"set_cut_p50_us", percentile(serve.set_cut_p50_us, 0.90), "us"});
  metrics.push_back({"swap_p50_ms", percentile(serve.swap_p50_ms, 0.90), "ms"});
  metrics.push_back({"sharded_peak_resident_kb",
                     static_cast<double>(sharded.peak_resident_bytes) / 1024.0, "KiB"});
}

/// The traced run: per-layer self times, counts and noise context.
void run_traced(const Args& args, const Inputs& in, ht::Solver& solver,
                const ht::RunContext& ctx, std::vector<Metric>& metrics) {
  SpanLog log;
  const TracedBuild build = trace_build(args, in, solver, ctx, log);
  const TracedServe serve = trace_serve(args, in, log);
  ServeSamples loop;
  {
    SpanLog::Scope span(log, "serve.closed_loop");
    for (long s = 0; s < kRounds * kSideSlices; ++s) serve_slice(args, in, kSliceSeconds, loop);
  }
  const TracedSharded sharded = trace_sharded(args, in, ctx, log);
  const std::string spans_path = args.work + "/spans.json";
  g_tally.check(log.write_json(spans_path), "write " + spans_path);

  const auto self = log.self_ms();
  const auto self_of = [&](const std::string& name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  // Build-side spans ran kTraceReps times per instance.
  const auto per_pass = [&](const std::string& name) { return self_of(name) / kTraceReps; };
  for (const auto& [name, ms] : self) {
    if (name.rfind("instance.", 0) == 0) continue;
    std::printf("span %-28s self %10.3f ms\n", name.c_str(), ms);
  }
  const double traced_ms = per_pass("hypergraph.read") + per_pass("snapshot.build") +
                           per_pass("serve.publish") + per_pass("serve.open");
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  metrics.push_back({"hypergraph.read_ms", per_pass("hypergraph.read"), "ms"});
  metrics.push_back({"prep.run_pipeline_ms", per_pass("prep.run_pipeline"), "ms"});
  metrics.push_back({"prep.pins_removed", count(build.counts.pins_removed), "count"});
  metrics.push_back({"flow.gomory_hu_ms", per_pass("flow.gomory_hu"), "ms"});
  metrics.push_back({"flow.max_flow_calls", count(build.counts.max_flow_calls), "count"});
  metrics.push_back({"flow.augmenting_paths", count(build.counts.augmenting_paths), "count"});
  metrics.push_back({"flow.gh_max_flow_calls", count(build.gh_flows), "count"});
  metrics.push_back({"flow.useful_flow_ratio",
                     count(build.gh_useful_flows) / count(std::max<std::uint64_t>(1, build.gh_flows)),
                     "ratio"});
  metrics.push_back({"reduction.star_expansion_ms", per_pass("reduction.star_expansion"), "ms"});
  metrics.push_back({"reduction.clique_expansion_ms", per_pass("reduction.clique_expansion"), "ms"});
  metrics.push_back({"reduction.clique_edges", count(build.clique_edges), "count"});
  metrics.push_back({"cuttree.vertex_cut_tree_ms", per_pass("cuttree.vertex_cut_tree"), "ms"});
  metrics.push_back({"engine.pieces", count(build.counts.pieces), "count"});
  metrics.push_back({"view.materializations", count(build.counts.materializations), "count"});
  metrics.push_back({"cuttree.decomposition_ms", per_pass("cuttree.decomposition"), "ms"});
  metrics.push_back({"cuttree.decomposition_nodes", count(build.decomposition_nodes), "count"});
  metrics.push_back({"serve.build_residual_ms", build.residual_ms, "ms"});
  metrics.push_back({"serve.build_coverage_pct", 100.0 * build.min_coverage, "%"});
  metrics.push_back({"serve.publish_ms", per_pass("serve.publish"), "ms"});
  metrics.push_back({"serve.open_ms", per_pass("serve.open"), "ms"});
  metrics.push_back({"flow.gh_walk_ns", serve.gh_walk_ns, "ns"});
  metrics.push_back({"serve.envelope_ns", serve.served_min_cut_ns - serve.gh_walk_ns, "ns"});
  metrics.push_back({"obs.flight_append_ns", serve.flight_append_ns, "ns"});
  metrics.push_back({"cuttree.set_cut_dp_us", serve.set_cut_dp_us, "us"});
  metrics.push_back({"cuttree.bisection_dp_ms", serve.bisection_dp_ms, "ms"});
  metrics.push_back({"cuttree.kway_dp_ms", serve.kway_dp_ms, "ms"});
  metrics.push_back({"serve.min_cut_p99_us", median(loop.min_cut_p99_us), "us"});
  metrics.push_back({"serve.bisection_p50_ms", percentile(loop.bisection_ns, 0.50) / 1e6, "ms"});
  metrics.push_back({"serve.kway_p50_ms", percentile(loop.kway_ns, 0.50) / 1e6, "ms"});
  metrics.push_back({"serve.swap_late_ms", percentile(loop.late_ms, 0.50), "ms"});
  metrics.push_back({"scale.ingest_ms", self_of("scale.ingest"), "ms"});
  metrics.push_back({"scale.driver_ms", self_of("scale.driver"), "ms"});
  metrics.push_back({"scale.spill_bytes", count(sharded.spill_bytes), "bytes"});
  metrics.push_back({"scale.boundary_pins", count(sharded.boundary_pins), "count"});
  metrics.push_back({"scale.max_flow_calls", count(sharded.counts.max_flow_calls), "count"});
  metrics.push_back({"scale.augmenting_paths", count(sharded.counts.augmenting_paths), "count"});
  metrics.push_back({"trace.wall_ratio", traced_ms / build.untraced_ms, "ratio"});
}

int run(const Args& args) {
  // The library's own spans stay off; the benchmark keeps its own.
  ht::obs::set_tracing_enabled(false);
  ht::ThreadPool::reset_global(kThreads);
  ht::RunContext ctx;
  ctx.with_threads(kThreads);
  ht::Solver solver(ctx);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d threads=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, kThreads);

  const Noise noise_before = noise_probe();
  std::vector<double> setup_s;
  Inputs in;
  for (int rep = 0; rep < (args.trace ? 1 : kSetupReps); ++rep) {
    const auto t0 = Clock::now();
    in = make_inputs(args, solver);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  for (const auto* list : {&in.corpus, &in.sharded}) {
    for (const Instance& inst : *list) {
      g_tally.check(inst.draws <= kMaxDraws, inst.name + ": a connected draw");
    }
  }
  g_tally.check(in.serve.draws <= kMaxDraws, "serve instance: a connected draw");
  std::printf("setup median %.3f s over %zu reps\n", median(setup_s), setup_s.size());

  std::vector<Metric> metrics;
  if (args.trace) {
    run_traced(args, in, solver, ctx, metrics);
  } else {
    metrics.push_back({"setup_s", median(setup_s), "s"});
    run_measured(args, in, solver, metrics);
  }
  const Noise noise_after = noise_probe();
  std::printf("noise mem_probe_ms=%.3f/%.3f cpu_probe_ms=%.3f/%.3f (before/after)\n",
              noise_before.mem_ms, noise_after.mem_ms, noise_before.cpu_ms, noise_after.cpu_ms);
  if (args.trace) {
    metrics.push_back({"noise.mem_probe_ms", median({noise_before.mem_ms, noise_after.mem_ms}), "ms"});
    metrics.push_back({"noise.cpu_probe_ms", median({noise_before.cpu_ms, noise_after.cpu_ms}), "ms"});
  }
  print_result(metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload build|serve --seed N --seconds S "
                 "--trace 0|1 --work DIR\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(args.work, ec);
  std::filesystem::create_directories(args.work, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work.c_str(), ec.message().c_str());
    return 2;
  }
  return perfbench::run(args);
}
