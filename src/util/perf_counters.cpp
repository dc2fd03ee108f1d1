#include "util/perf_counters.hpp"

#include <sstream>

namespace ht {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

}  // namespace

PerfCounters::PerfCounters()
    : pieces_(registry().counter("engine.pieces")),
      max_flow_calls_(registry().counter("flow.max_flow_calls")),
      tasks_(registry().counter("pool.tasks")),
      max_queue_depth_(registry().gauge("pool.max_queue_depth")),
      arena_hits_(registry().counter("arena.hits")),
      arena_misses_(registry().counter("arena.misses")),
      flow_builds_(registry().counter("flow.builds")),
      flow_reuses_(registry().counter("flow.reuses")),
      materializations_(registry().counter("view.materializations")),
      peak_arena_bytes_(registry().gauge("arena.peak_bytes")) {}

PerfCounters& PerfCounters::global() {
  static PerfCounters counters;
  return counters;
}

double PerfCounters::arena_hit_rate() const {
  const std::uint64_t hits = arena_hits();
  const std::uint64_t total = hits + arena_misses();
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

void PerfCounters::reset() { registry().reset_all(); }

std::string PerfCounters::report() const {
  std::ostringstream os;
  os << "perf: pieces=" << pieces() << " max_flow_calls=" << max_flow_calls()
     << " pool_tasks=" << tasks() << " max_queue_depth=" << max_queue_depth()
     << "\n";
  os << "perf: flow_builds=" << flow_builds()
     << " flow_reuses=" << flow_reuses() << " arena_hits=" << arena_hits()
     << " arena_misses=" << arena_misses() << " arena_hit_rate="
     << arena_hit_rate() << "\n";
  os << "perf: materializations=" << materializations()
     << " peak_arena_bytes=" << peak_arena_bytes() << "\n";
  return os.str();
}

}  // namespace ht
