// A served Gomory–Hu query must not touch the heap: the tree walk keeps
// no path, and the query envelope (epoch pin, metrics, flight record)
// allocates nothing once warm. This binary replaces the global
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

}  // namespace
