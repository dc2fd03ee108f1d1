// Served point queries must not touch the heap: the Gomory–Hu walk keeps
// no path, set_cut's root-path DP reuses per-thread scratch, and the
// query envelope (epoch pin, metrics, flight record) allocates nothing
// once warm. Loading a snapshot makes a fixed number of allocations
// whatever the size of its trees. This binary replaces the global
// allocation functions with counting ones, which is why it is its own
// executable.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "hypergraph/generators.hpp"
#include "serve/snapshot_build.hpp"
#include "serve/tree_server.hpp"
#include "util/rng.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new[](std::size_t size) {
  return counted_alloc(size, alignof(std::max_align_t));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

TEST(ServeAllocations, GomoryHuQueriesAllocateNothing) {
  ht::Rng rng(3);
  const auto h = ht::hypergraph::random_uniform(64, 160, 3, rng);
  ASSERT_TRUE(ht::hypergraph::is_connected(h));
  const std::string path = testing::TempDir() + "serve_alloc.htsnap";
  ASSERT_TRUE(ht::snapshot::write(h, path, {}).ok());
  auto server = ht::TreeServer::open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  constexpr int kQueries = 10'000;
  const std::int32_t n = h.num_vertices();
  std::int32_t pairs[kQueries][2];
  for (auto& pair : pairs) {
    pair[0] = static_cast<std::int32_t>(rng.next_below(n));
    pair[1] = static_cast<std::int32_t>(rng.next_below(n - 1));
    if (pair[1] >= pair[0]) ++pair[1];
  }
  // Warm up the process-wide pieces a first query initializes (metric
  // registrations, the flight recorder, this thread's index).
  ASSERT_TRUE(server->min_cut(0, 1).ok());
  ASSERT_TRUE(server->global_min_cut().ok());

  double sink = 0.0;
  const std::uint64_t before = g_allocations.load();
  for (const auto& pair : pairs) {
    const auto answer = server->min_cut(pair[0], pair[1]);
    if (answer.ok()) sink += answer->value;
  }
  const auto global = server->global_min_cut();
  const std::uint64_t allocations = g_allocations.load() - before;
  ASSERT_TRUE(global.ok());
  EXPECT_GT(sink, 0.0);
  EXPECT_EQ(allocations, 0u) << "heap allocations over " << kQueries
                             << " min_cut queries";
}

TEST(ServeAllocations, SetCutQueriesAllocateNothing) {
  ht::Rng rng(5);
  const auto h = ht::hypergraph::random_uniform(64, 160, 3, rng);
  ASSERT_TRUE(ht::hypergraph::is_connected(h));
  const std::string path = testing::TempDir() + "serve_alloc_setcut.htsnap";
  ASSERT_TRUE(ht::snapshot::write(h, path, {}).ok());
  auto server = ht::TreeServer::open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(server.ok()) << server.status().to_string();

  // 10^4 pairs of disjoint sides, 1 to 4 vertices each.
  constexpr int kQueries = 10'000;
  const std::int32_t n = h.num_vertices();
  std::vector<std::vector<std::int32_t>> sides(2 * kQueries);
  for (int q = 0; q < kQueries; ++q) {
    std::vector<bool> used(static_cast<std::size_t>(n), false);
    for (int s = 0; s < 2; ++s) {
      auto& side = sides[static_cast<std::size_t>(2 * q + s)];
      const auto size = 1 + rng.next_below(4);
      while (side.size() < size) {
        const auto v = static_cast<std::int32_t>(rng.next_below(n));
        if (used[static_cast<std::size_t>(v)]) continue;
        used[static_cast<std::size_t>(v)] = true;
        side.push_back(v);
      }
    }
  }
  // Warm up on the same queries: the per-thread scratch grows to what
  // they need, along with the process-wide pieces a first query sets up.
  for (int q = 0; q < kQueries; ++q) {
    (void)server->set_cut(sides[static_cast<std::size_t>(2 * q)],
                          sides[static_cast<std::size_t>(2 * q + 1)]);
  }

  double sink = 0.0;
  int answered = 0;
  const std::uint64_t before = g_allocations.load();
  for (int q = 0; q < kQueries; ++q) {
    const auto answer =
        server->set_cut(sides[static_cast<std::size_t>(2 * q)],
                        sides[static_cast<std::size_t>(2 * q + 1)]);
    if (answer.ok()) {
      sink += answer->value;
      ++answered;
    }
  }
  const std::uint64_t allocations = g_allocations.load() - before;
  EXPECT_EQ(answered, kQueries);
  EXPECT_GT(sink, 0.0);
  EXPECT_EQ(allocations, 0u) << "heap allocations over " << kQueries
                             << " set_cut queries";
}

TEST(ServeAllocations, SnapshotLoadAllocationsDoNotGrowWithTreeSize) {
  // Two snapshots with all three trees; the 512-vertex trees are about 8x
  // the 64-vertex ones.
  const auto write = [](std::int32_t n, const char* name) {
    ht::Rng rng(7);
    const auto h = ht::hypergraph::random_uniform(n, 3 * n, 3, rng);
    EXPECT_TRUE(ht::hypergraph::is_connected(h));
    const std::string path = testing::TempDir() + name;
    EXPECT_TRUE(ht::snapshot::write(h, path, {}).ok());
    return path;
  };
  const std::string small_path = write(64, "serve_alloc_load64.htsnap");
  const std::string large_path = write(512, "serve_alloc_load512.htsnap");
  const auto load_allocations = [](const std::string& path) {
    const std::uint64_t before = g_allocations.load();
    auto state = ht::serve::LoadedSnapshot::load_file(path);
    const std::uint64_t allocations = g_allocations.load() - before;
    EXPECT_TRUE(state.ok()) << state.status().to_string();
    EXPECT_TRUE(state.ok() && (*state)->gomory_hu.has_value() &&
                (*state)->vertex_cut_tree.has_value() &&
                (*state)->decomposition.has_value());
    return allocations;
  };
  // The first load also sets up process-wide pieces (metric names).
  load_allocations(small_path);
  const std::uint64_t small = load_allocations(small_path);
  const std::uint64_t large = load_allocations(large_path);
  std::remove(small_path.c_str());
  std::remove(large_path.c_str());
  EXPECT_GT(small, 0u);
  EXPECT_EQ(small, large) << "a load's allocations grow with the trees";
}

}  // namespace
