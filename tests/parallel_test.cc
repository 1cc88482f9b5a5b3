// Tests for the worker-pool primitives: ThreadPool / ParallelFor semantics
// (coverage, exceptions, nesting), the DefaultPool sizing contract, and the
// GraphBuilder counting-sort path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "graph/graph.h"

namespace cexplorer {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool / ParallelFor semantics
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3u);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      ++counter;
      ++done;
    });
  }
  // Destructor drains the queue; check after.
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.Submit([&] { ++counter; });
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  ParallelFor(0, kN, &pool, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NullPoolRunsInline) {
  std::size_t count = 0;
  ParallelFor(5, 25, nullptr, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 20u);
}

TEST(ParallelForTest, PropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      ParallelFor(0, 1000, &pool,
                  [](std::size_t i) {
                    if (i == 137) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(0, 8, &pool, [&](std::size_t) {
    // Inner loop issued from a worker: must complete inline.
    ParallelFor(0, 100, &pool, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(DefaultPoolTest, RespectsEnvironmentContract) {
  // DefaultThreadCount is fixed for the process; the pool either matches
  // it (> 1) or is null (sequential).
  const std::size_t threads = DefaultThreadCount();
  ThreadPool* pool = DefaultPool();
  if (threads <= 1) {
    EXPECT_EQ(pool, nullptr);
  } else {
    ASSERT_NE(pool, nullptr);
    EXPECT_EQ(pool->num_threads(), threads);
  }
}

// ---------------------------------------------------------------------------
// GraphBuilder counting-sort path
// ---------------------------------------------------------------------------

TEST(GraphBuilderCountingSortTest, MatchesReferenceAdjacency) {
  Rng rng(31337);
  for (int round = 0; round < 5; ++round) {
    const std::size_t n = 50 + rng.UniformU32(200);
    const std::size_t m = rng.UniformU32(2000);
    GraphBuilder builder(n);
    std::set<std::pair<VertexId, VertexId>> reference;
    for (std::size_t i = 0; i < m; ++i) {
      VertexId u = rng.UniformU32(static_cast<std::uint32_t>(n));
      VertexId v = rng.UniformU32(static_cast<std::uint32_t>(n));
      builder.AddEdge(u, v);
      if (rng.Bernoulli(0.3)) builder.AddEdge(v, u);  // duplicate, swapped
      if (u != v) {
        reference.emplace(std::min(u, v), std::max(u, v));
      }
    }
    Graph g = builder.Build();
    ASSERT_EQ(g.num_vertices(), n);
    EXPECT_EQ(g.num_edges(), reference.size());
    auto edges = g.Edges();
    std::set<std::pair<VertexId, VertexId>> got(edges.begin(), edges.end());
    EXPECT_EQ(got, reference);
    // Adjacency lists sorted and duplicate-free.
    for (VertexId v = 0; v < n; ++v) {
      auto nbrs = g.Neighbors(v);
      for (std::size_t i = 1; i < nbrs.size(); ++i) {
        ASSERT_LT(nbrs[i - 1], nbrs[i]);
      }
    }
  }
}

}  // namespace
}  // namespace cexplorer
