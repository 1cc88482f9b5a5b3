// Tests for k-core decomposition: the fast bucket peel against the naive
// oracle, nestedness properties, component extraction, and subset peeling.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core/kcore.h"
#include "graph/fixtures.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"

namespace cexplorer {
namespace {

Graph RandomGraph(std::size_t n, std::size_t m, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (std::size_t i = 0; i < m; ++i) {
    b.AddEdge(rng.UniformU32(static_cast<std::uint32_t>(n)),
              rng.UniformU32(static_cast<std::uint32_t>(n)));
  }
  return b.Build();
}

TEST(CoreDecompositionTest, EmptyGraph) {
  Graph g;
  EXPECT_TRUE(CoreDecomposition(g).empty());
}

TEST(CoreDecompositionTest, IsolatedVerticesHaveCoreZero) {
  GraphBuilder b;
  b.EnsureVertices(3);
  Graph g = b.Build();
  auto core = CoreDecomposition(g);
  EXPECT_EQ(core, (std::vector<std::uint32_t>{0, 0, 0}));
}

TEST(CoreDecompositionTest, TriangleIsTwoCore) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  auto core = CoreDecomposition(b.Build());
  EXPECT_EQ(core, (std::vector<std::uint32_t>{2, 2, 2}));
}

TEST(CoreDecompositionTest, PathIsOneCore) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  auto core = CoreDecomposition(b.Build());
  EXPECT_EQ(core, (std::vector<std::uint32_t>{1, 1, 1, 1}));
}

TEST(CoreDecompositionTest, Figure5CoreNumbersMatchPaper) {
  // The paper's Figure 5(b) table: 0:{J}, 1:{F,G,H,I}, 2:{E}, 3:{A,B,C,D}.
  AttributedGraph g = Figure5Graph();
  auto core = CoreDecomposition(g.graph());
  EXPECT_EQ(core[0], 3u);  // A
  EXPECT_EQ(core[1], 3u);  // B
  EXPECT_EQ(core[2], 3u);  // C
  EXPECT_EQ(core[3], 3u);  // D
  EXPECT_EQ(core[4], 2u);  // E
  EXPECT_EQ(core[5], 1u);  // F
  EXPECT_EQ(core[6], 1u);  // G
  EXPECT_EQ(core[7], 1u);  // H
  EXPECT_EQ(core[8], 1u);  // I
  EXPECT_EQ(core[9], 0u);  // J
}

TEST(CoreDecompositionTest, KarateClubMaxCoreIsFour) {
  auto core = CoreDecomposition(KarateClub());
  EXPECT_EQ(MaxCoreNumber(core), 4u);
}

class CoreDecompositionRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(CoreDecompositionRandomTest, MatchesNaiveOracle) {
  const int seed = GetParam();
  Graph g = RandomGraph(60 + seed * 7, 120 + seed * 31,
                        static_cast<std::uint64_t>(seed));
  EXPECT_EQ(CoreDecomposition(g), CoreDecompositionNaive(g)) << "seed " << seed;
}

TEST_P(CoreDecompositionRandomTest, CoreIsAtMostDegree) {
  const int seed = GetParam();
  Graph g = RandomGraph(80, 200, static_cast<std::uint64_t>(seed) + 100);
  auto core = CoreDecomposition(g);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_LE(core[v], g.Degree(v));
  }
}

TEST_P(CoreDecompositionRandomTest, KCoreInducedMinDegreeAtLeastK) {
  const int seed = GetParam();
  Graph g = RandomGraph(70, 210, static_cast<std::uint64_t>(seed) + 200);
  auto core = CoreDecomposition(g);
  for (std::uint32_t k = 1; k <= MaxCoreNumber(core); ++k) {
    VertexList members = KCoreVertices(core, k);
    if (members.empty()) continue;
    auto degrees = InducedDegrees(g, &members);
    for (std::size_t d : degrees) EXPECT_GE(d, k) << "k=" << k;
  }
}

TEST_P(CoreDecompositionRandomTest, CoresAreNested) {
  const int seed = GetParam();
  Graph g = RandomGraph(50, 140, static_cast<std::uint64_t>(seed) + 300);
  auto core = CoreDecomposition(g);
  for (std::uint32_t k = 1; k <= MaxCoreNumber(core); ++k) {
    VertexList upper = KCoreVertices(core, k);
    VertexList lower = KCoreVertices(core, k - 1);
    EXPECT_TRUE(std::includes(lower.begin(), lower.end(), upper.begin(),
                              upper.end()))
        << "(k-1)-core must contain the k-core, k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CoreDecompositionRandomTest,
                         ::testing::Range(0, 12));

// --------------------------------------------------------------------------
// ConnectedKCore
// --------------------------------------------------------------------------

TEST(ConnectedKCoreTest, Figure5Components) {
  AttributedGraph ag = Figure5Graph();
  const Graph& g = ag.graph();
  auto core = CoreDecomposition(g);
  // 3-core component of A = {A,B,C,D}.
  EXPECT_EQ(ConnectedKCore(g, core, 0, 3), (VertexList{0, 1, 2, 3}));
  // 2-core component of A = {A,B,C,D,E}.
  EXPECT_EQ(ConnectedKCore(g, core, 0, 2), (VertexList{0, 1, 2, 3, 4}));
  // 1-core component of A = {A..G}.
  EXPECT_EQ(ConnectedKCore(g, core, 0, 1), (VertexList{0, 1, 2, 3, 4, 5, 6}));
  // H's 1-core component = {H, I}.
  EXPECT_EQ(ConnectedKCore(g, core, 7, 1), (VertexList{7, 8}));
  // E is not in the 3-core.
  EXPECT_TRUE(ConnectedKCore(g, core, 4, 3).empty());
  // J at k=0 is just {J}.
  EXPECT_EQ(ConnectedKCore(g, core, 9, 0), (VertexList{9}));
}

// --------------------------------------------------------------------------
// PeelToKCore
// --------------------------------------------------------------------------

TEST(PeelToKCoreTest, WholeGraphMatchesKCore) {
  Graph g = KarateClub();
  auto core = CoreDecomposition(g);
  VertexList all(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) all[v] = v;
  for (std::uint32_t k = 0; k <= MaxCoreNumber(core); ++k) {
    EXPECT_EQ(PeelToKCore(g, all, k), KCoreVertices(core, k)) << "k=" << k;
  }
}

TEST(PeelToKCoreTest, AnchorRestrictsToComponent) {
  // Two disjoint triangles.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(3, 5);
  Graph g = b.Build();
  VertexList all{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(PeelToKCore(g, all, 2, 0), (VertexList{0, 1, 2}));
  EXPECT_EQ(PeelToKCore(g, all, 2, 4), (VertexList{3, 4, 5}));
  EXPECT_EQ(PeelToKCore(g, all, 2), (VertexList{0, 1, 2, 3, 4, 5}));
}

TEST(PeelToKCoreTest, AnchorPeeledGivesEmpty) {
  // Star: center 0, leaves 1..4; k=2 peels everything.
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 4; ++leaf) b.AddEdge(0, leaf);
  Graph g = b.Build();
  EXPECT_TRUE(PeelToKCore(g, {0, 1, 2, 3, 4}, 2, 0).empty());
}

TEST(PeelToKCoreTest, SubsetRestrictsUniverse) {
  // K4 {0,1,2,3}: inside candidate subset {0,1,2} min degree is 2.
  GraphBuilder b;
  for (VertexId u = 0; u < 4; ++u) {
    for (VertexId v = u + 1; v < 4; ++v) b.AddEdge(u, v);
  }
  Graph g = b.Build();
  EXPECT_EQ(PeelToKCore(g, {0, 1, 2}, 2, 0), (VertexList{0, 1, 2}));
  EXPECT_TRUE(PeelToKCore(g, {0, 1, 2}, 3, 0).empty());
  EXPECT_EQ(PeelToKCore(g, {0, 1, 2, 3}, 3, 0), (VertexList{0, 1, 2, 3}));
}

TEST(PeelToKCoreTest, KZeroKeepsAnchorComponentOnly) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  Graph g = b.Build();  // {0,1} plus isolated 2, 3
  EXPECT_EQ(PeelToKCore(g, {0, 1, 2, 3}, 0, 0), (VertexList{0, 1}));
  EXPECT_EQ(PeelToKCore(g, {0, 1, 2, 3}, 0, 2), (VertexList{2}));
}

TEST(PeelToKCoreTest, MatchesGlobalCoreOnRandomSubsets) {
  Graph g = KarateClub();
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    VertexList subset;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rng.Bernoulli(0.6)) subset.push_back(v);
    }
    std::uint32_t k = 1 + rng.UniformU32(3);
    VertexList peeled = PeelToKCore(g, subset, k);
    // Oracle: core decomposition of the induced subgraph.
    Subgraph sub = InducedSubgraph(g, subset);
    auto sub_core = CoreDecomposition(sub.graph);
    VertexList expected;
    for (VertexId local = 0; local < sub.num_vertices(); ++local) {
      if (sub_core[local] >= k) expected.push_back(sub.to_parent[local]);
    }
    EXPECT_EQ(peeled, expected) << "trial " << trial << " k=" << k;
  }
}

/// The peel spelled out: drop candidates with fewer than k candidate
/// neighbours until none is left, keep the anchor's component by BFS (when
/// there is an anchor), then sort.
VertexList NaivePeel(const Graph& g, const VertexList& candidates,
                     std::uint32_t k, VertexId anchor) {
  std::set<VertexId> alive(candidates.begin(), candidates.end());
  for (bool changed = true; changed;) {
    changed = false;
    for (auto it = alive.begin(); it != alive.end();) {
      std::uint32_t degree = 0;
      for (VertexId w : g.Neighbors(*it)) degree += alive.count(w);
      if (degree < k) {
        it = alive.erase(it);
        changed = true;
      } else {
        ++it;
      }
    }
  }
  if (anchor == kInvalidVertex) return {alive.begin(), alive.end()};
  if (alive.count(anchor) == 0) return {};
  VertexList queue{anchor};
  std::set<VertexId> seen{anchor};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    for (VertexId w : g.Neighbors(queue[head])) {
      if (alive.count(w) != 0 && seen.insert(w).second) queue.push_back(w);
    }
  }
  std::sort(queue.begin(), queue.end());
  return queue;
}

TEST(PeelToKCoreTest, SortedMatchesNaiveReference) {
  const std::size_t n = 2000;
  const Graph g = RandomGraph(n, 7000, 41);
  Rng rng(43);
  // Sparse sets (fewer than one vertex per 64) are BFS balls, so they hold
  // some k-core structure; dense sets are random halves of the graph.
  std::vector<VertexList> sets;
  for (int i = 0; i < 6; ++i) {
    VertexList ball{rng.UniformU32(static_cast<std::uint32_t>(n))};
    std::set<VertexId> seen(ball.begin(), ball.end());
    for (std::size_t head = 0; head < ball.size() && ball.size() < 24;
         ++head) {
      for (VertexId w : g.Neighbors(ball[head])) {
        if (ball.size() < 24 && seen.insert(w).second) ball.push_back(w);
      }
    }
    std::sort(ball.begin(), ball.end());
    ASSERT_FALSE(IsDenseSubset(ball.size(), n));
    sets.push_back(std::move(ball));

    VertexList half;
    for (VertexId v = 0; v < n; ++v) {
      if (rng.Bernoulli(0.5)) half.push_back(v);
    }
    ASSERT_TRUE(IsDenseSubset(half.size(), n));
    sets.push_back(std::move(half));
  }

  for (PeelFrontierMode mode : {PeelFrontierMode::kAuto,
                                PeelFrontierMode::kStamps,
                                PeelFrontierMode::kBitset}) {
    SetPeelFrontierMode(mode);
    for (const VertexList& candidates : sets) {
      for (std::uint32_t k = 0; k <= 4; ++k) {
        const VertexId anchor = candidates[rng.UniformU32(
            static_cast<std::uint32_t>(candidates.size()))];
        for (VertexId a : {kInvalidVertex, anchor}) {
          EXPECT_EQ(PeelToKCoreSorted(g, candidates, k, a),
                    NaivePeel(g, candidates, k, a))
              << "mode " << static_cast<int>(mode) << " size "
              << candidates.size() << " k=" << k << " anchor " << a;
        }
      }
    }
  }
  SetPeelFrontierMode(PeelFrontierMode::kAuto);
}

}  // namespace
}  // namespace cexplorer
