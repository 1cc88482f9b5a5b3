// Tests for the comparison-analysis metrics: CPJ, CMF, community
// statistics, set similarity, NMI, and average F1.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "algos/clusterers.h"
#include "common/rng.h"
#include "graph/fixtures.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "metrics/quality.h"
#include "metrics/similarity.h"
#include "metrics/stats.h"

namespace cexplorer {
namespace {

AttributedGraph SmallAttributed() {
  AttributedGraphBuilder b;
  b.AddVertex("p", {"x", "y"});      // 0
  b.AddVertex("q", {"x", "y"});      // 1
  b.AddVertex("r", {"x"});           // 2
  b.AddVertex("s", {"a", "b", "c"});  // 3
  (void)b.AddEdge(0, 1);
  (void)b.AddEdge(1, 2);
  (void)b.AddEdge(2, 3);
  return b.Build();
}

// --------------------------------------------------------------------------
// Keyword Jaccard / CPJ
// --------------------------------------------------------------------------

TEST(KeywordJaccardTest, HandComputedValues) {
  AttributedGraph g = SmallAttributed();
  EXPECT_DOUBLE_EQ(KeywordJaccard(g, 0, 1), 1.0);        // {x,y} vs {x,y}
  EXPECT_DOUBLE_EQ(KeywordJaccard(g, 0, 2), 0.5);        // {x,y} vs {x}
  EXPECT_DOUBLE_EQ(KeywordJaccard(g, 0, 3), 0.0);        // disjoint
}

TEST(KeywordJaccardTest, EmptySetsGiveZero) {
  AttributedGraphBuilder b;
  b.AddVertex("a", {});
  b.AddVertex("b", {});
  AttributedGraph g = b.Build();
  EXPECT_DOUBLE_EQ(KeywordJaccard(g, 0, 1), 0.0);
}

TEST(CpjTest, HandComputedAverage) {
  AttributedGraph g = SmallAttributed();
  // Pairs (0,1)=1, (0,2)=.5, (1,2)=.5 -> mean 2/3.
  EXPECT_NEAR(Cpj(g, {0, 1, 2}), 2.0 / 3.0, 1e-12);
}

TEST(CpjTest, DegenerateCommunities) {
  AttributedGraph g = SmallAttributed();
  EXPECT_DOUBLE_EQ(Cpj(g, {}), 0.0);
  EXPECT_DOUBLE_EQ(Cpj(g, {0}), 0.0);
}

TEST(CpjTest, BoundedByOne) {
  AttributedGraph g = Figure5Graph();
  VertexList all;
  for (VertexId v = 0; v < g.num_vertices(); ++v) all.push_back(v);
  double cpj = Cpj(g, all);
  EXPECT_GE(cpj, 0.0);
  EXPECT_LE(cpj, 1.0);
}

TEST(CpjSampledTest, ExactForSmallCommunities) {
  AttributedGraph g = SmallAttributed();
  EXPECT_DOUBLE_EQ(CpjSampled(g, {0, 1, 2}), Cpj(g, {0, 1, 2}));
}

TEST(CpjSampledTest, EstimateNearExactForLarge) {
  // Build a community large enough to trigger sampling with a known
  // structure: half the vertices share {x}, half share {y}.
  AttributedGraphBuilder b;
  VertexList community;
  for (int i = 0; i < 300; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    community.push_back(b.AddVertex(name, {i % 2 == 0 ? "x" : "y"}));
  }
  AttributedGraph g = b.Build();
  double exact = Cpj(g, community);
  double sampled = CpjSampled(g, community, /*max_pairs=*/5000, /*seed=*/7);
  EXPECT_NEAR(sampled, exact, 0.03);
}

TEST(CpjSampledTest, DeterministicForSeed) {
  AttributedGraphBuilder b;
  VertexList community;
  for (int i = 0; i < 200; ++i) {
    std::string name = "v";
    name += std::to_string(i);
    std::string keyword = "k";
    keyword += std::to_string(i % 7);
    community.push_back(b.AddVertex(name, {keyword}));
  }
  AttributedGraph g = b.Build();
  EXPECT_DOUBLE_EQ(CpjSampled(g, community, 1000, 3),
                   CpjSampled(g, community, 1000, 3));
}

// --------------------------------------------------------------------------
// CMF
// --------------------------------------------------------------------------

TEST(CmfTest, HandComputedValues) {
  AttributedGraph g = SmallAttributed();
  // q=0, W(q)={x,y}. v0: 2/2, v1: 2/2, v2: 1/2 -> mean 5/6.
  EXPECT_NEAR(Cmf(g, {0, 1, 2}, 0), 5.0 / 6.0, 1e-12);
  // Against q=3 (disjoint keywords): members share nothing -> 0.
  EXPECT_DOUBLE_EQ(Cmf(g, {0, 1, 2}, 3), 1.0 / 9.0 * 0.0);
}

TEST(CmfTest, PerfectWhenAllMembersCarryAllQueryKeywords) {
  AttributedGraph g = SmallAttributed();
  EXPECT_DOUBLE_EQ(Cmf(g, {0, 1}, 0), 1.0);
}

TEST(CmfTest, DegenerateInputs) {
  AttributedGraph g = SmallAttributed();
  EXPECT_DOUBLE_EQ(Cmf(g, {}, 0), 0.0);
  AttributedGraphBuilder b;
  b.AddVertex("empty", {});
  AttributedGraph g2 = b.Build();
  EXPECT_DOUBLE_EQ(Cmf(g2, {0}, 0), 0.0);  // W(q) empty
}

// --------------------------------------------------------------------------
// CommunityStats
// --------------------------------------------------------------------------

TEST(StatsTest, KarateWholeGraph) {
  Graph g = KarateClub();
  VertexList all;
  for (VertexId v = 0; v < g.num_vertices(); ++v) all.push_back(v);
  CommunityStats stats = ComputeStats(g, all);
  EXPECT_EQ(stats.num_vertices, 34u);
  EXPECT_EQ(stats.num_edges, 78u);
  EXPECT_NEAR(stats.average_degree, 2.0 * 78 / 34, 1e-9);
  EXPECT_EQ(stats.min_degree, 1u);
  EXPECT_EQ(stats.max_degree, 17u);
  EXPECT_GE(stats.diameter, 4u);  // known diameter 5; double sweep >= 4
  EXPECT_GT(stats.density, 0.0);
  EXPECT_LT(stats.density, 1.0);
}

TEST(StatsTest, TriangleCommunity) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  CommunityStats stats = ComputeStats(b.Build(), {0, 1, 2});
  EXPECT_EQ(stats.num_vertices, 3u);
  EXPECT_EQ(stats.num_edges, 3u);
  EXPECT_DOUBLE_EQ(stats.average_degree, 2.0);
  EXPECT_DOUBLE_EQ(stats.density, 1.0);
  EXPECT_EQ(stats.diameter, 1u);
}

TEST(StatsTest, EmptyCommunity) {
  Graph g = KarateClub();
  CommunityStats stats = ComputeStats(g, {});
  EXPECT_EQ(stats.num_vertices, 0u);
  EXPECT_EQ(stats.num_edges, 0u);
}

TEST(StatsTest, SubsetCountsOnlyInducedEdges) {
  Graph g = KarateClub();
  CommunityStats stats = ComputeStats(g, {0, 33});  // hubs, not adjacent
  EXPECT_EQ(stats.num_vertices, 2u);
  EXPECT_EQ(stats.num_edges, 0u);
}

// --------------------------------------------------------------------------
// Oracles for the cold /community path. ComputeStats counts on the parent
// graph under a membership bitset, and Cpj/CpjSampled read the members'
// keyword rows from a compact copy. The references below are the
// materializing implementations they replaced (an induced subgraph plus
// DoubleSweepDiameter, and merge loops over the graph's own rows); every
// field must agree bit for bit.
// --------------------------------------------------------------------------

CommunityStats ReferenceStats(const Graph& g, const VertexList& community) {
  CommunityStats stats;
  if (community.empty()) return stats;
  Subgraph sub = InducedSubgraph(g, community);
  stats.num_vertices = sub.num_vertices();
  stats.num_edges = sub.graph.num_edges();
  stats.average_degree = sub.graph.AverageDegree();
  std::size_t min_deg = sub.graph.Degree(0);
  std::size_t max_deg = 0;
  for (VertexId v = 0; v < sub.num_vertices(); ++v) {
    min_deg = std::min(min_deg, sub.graph.Degree(v));
    max_deg = std::max(max_deg, sub.graph.Degree(v));
  }
  stats.min_degree = min_deg;
  stats.max_degree = max_deg;
  if (stats.num_vertices >= 2) {
    const double pairs = static_cast<double>(stats.num_vertices) *
                         static_cast<double>(stats.num_vertices - 1) / 2.0;
    stats.density = static_cast<double>(stats.num_edges) / pairs;
  }
  stats.diameter = DoubleSweepDiameter(sub.graph, 0);
  return stats;
}

double ReferenceJaccard(const AttributedGraph& g, VertexId a, VertexId b) {
  auto ka = g.Keywords(a);
  auto kb = g.Keywords(b);
  if (ka.empty() && kb.empty()) return 0.0;
  std::size_t inter = 0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ka.size() && j < kb.size()) {
    if (ka[i] < kb[j]) {
      ++i;
    } else if (ka[i] > kb[j]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  std::size_t uni = ka.size() + kb.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double ReferenceCpj(const AttributedGraph& g, const VertexList& community) {
  if (community.size() < 2) return 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < community.size(); ++i) {
    for (std::size_t j = i + 1; j < community.size(); ++j) {
      total += ReferenceJaccard(g, community[i], community[j]);
    }
  }
  const double pairs = static_cast<double>(community.size()) *
                       static_cast<double>(community.size() - 1) / 2.0;
  return total / pairs;
}

double ReferenceCpjSampled(const AttributedGraph& g,
                           const VertexList& community, std::size_t max_pairs,
                           std::uint64_t seed) {
  if (community.size() < 2) return 0.0;
  const double pairs = static_cast<double>(community.size()) *
                       static_cast<double>(community.size() - 1) / 2.0;
  if (pairs <= static_cast<double>(max_pairs)) {
    return ReferenceCpj(g, community);
  }
  Rng rng(seed);
  double total = 0.0;
  const std::uint32_t n = static_cast<std::uint32_t>(community.size());
  for (std::size_t s = 0; s < max_pairs; ++s) {
    VertexId a = community[rng.UniformU32(n)];
    VertexId b = community[rng.UniformU32(n)];
    while (b == a) b = community[rng.UniformU32(n)];
    total += ReferenceJaccard(g, a, b);
  }
  return total / static_cast<double>(max_pairs);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// `n` vertices with 0-5 keywords each from a 20-word vocabulary (so some
/// rows are empty) and `m` random edges, all inside one half of the
/// vertex range or the other: no edge joins the halves.
AttributedGraph OracleGraph(std::uint32_t n, std::size_t m,
                            std::uint64_t seed) {
  Rng rng(seed);
  AttributedGraphBuilder b;
  for (std::uint32_t v = 0; v < n; ++v) {
    std::vector<std::string> keywords;
    const std::uint32_t count = rng.UniformU32(6);
    for (std::uint32_t i = 0; i < count; ++i) {
      keywords.push_back("w" + std::to_string(rng.UniformU32(20)));
    }
    b.AddVertex("v" + std::to_string(v), keywords);
  }
  const std::uint32_t half = n / 2;
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint32_t side = rng.UniformU32(2) * half;
    (void)b.AddEdge(side + rng.UniformU32(half), side + rng.UniformU32(half));
  }
  return b.Build();
}

/// Member lists of every shape a click can hand the cold path.
std::vector<VertexList> OracleCommunities(const AttributedGraph& g,
                                          std::uint64_t seed) {
  Rng rng(seed);
  const std::uint32_t n = static_cast<std::uint32_t>(g.num_vertices());
  std::vector<VertexList> out;
  out.push_back({});                   // no members
  out.push_back({rng.UniformU32(n)});  // one member
  VertexList all(n);
  std::iota(all.begin(), all.end(), 0);
  out.push_back(all);  // both halves: two disconnected parts
  // A connected ball of radius 2 around a random vertex.
  const auto dist = BfsDistances(g.graph(), rng.UniformU32(n));
  VertexList ball;
  for (VertexId v = 0; v < n; ++v) {
    if (dist[v] <= 2) ball.push_back(v);
  }
  out.push_back(ball);
  // The same ball unsorted, with duplicates.
  VertexList messy = ball;
  const std::uint32_t ball_size = static_cast<std::uint32_t>(ball.size());
  for (std::uint32_t i = 0; i < ball_size / 3 + 1; ++i) {
    messy.push_back(ball[rng.UniformU32(ball_size)]);
  }
  for (std::size_t i = messy.size(); i > 1; --i) {
    std::swap(messy[i - 1],
              messy[rng.UniformU32(static_cast<std::uint32_t>(i))]);
  }
  out.push_back(messy);
  // A sparse random subset: mostly members without a member neighbour.
  VertexList sparse;
  for (VertexId v = 0; v < n; ++v) {
    if (rng.UniformU32(8) == 0) sparse.push_back(v);
  }
  out.push_back(sparse);
  return out;
}

TEST(ColdPathOracleTest, StatsMatchMaterializedSubgraph) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const AttributedGraph g = OracleGraph(300 + 100 * seed, 900 * seed, seed);
    for (const VertexList& c : OracleCommunities(g, seed)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(c.size()) + " members");
      const CommunityStats got = ComputeStats(g.graph(), c);
      const CommunityStats want = ReferenceStats(g.graph(), c);
      EXPECT_EQ(got.num_vertices, want.num_vertices);
      EXPECT_EQ(got.num_edges, want.num_edges);
      EXPECT_TRUE(SameBits(got.average_degree, want.average_degree));
      EXPECT_EQ(got.min_degree, want.min_degree);
      EXPECT_EQ(got.max_degree, want.max_degree);
      EXPECT_TRUE(SameBits(got.density, want.density));
      EXPECT_EQ(got.diameter, want.diameter);
    }
  }
}

TEST(ColdPathOracleTest, CpjMatchesMergeLoopsBitForBit) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const AttributedGraph g = OracleGraph(300 + 100 * seed, 900 * seed, seed);
    for (const VertexList& c : OracleCommunities(g, seed)) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(c.size()) + " members");
      EXPECT_TRUE(SameBits(Cpj(g, c), ReferenceCpj(g, c)));
      // The default cutover (the whole graph samples, the rest is exact),
      // then both sides of this community's own cutover, then a small
      // sample.
      const std::size_t pairs =
          c.size() < 2 ? 0 : c.size() * (c.size() - 1) / 2;
      std::vector<std::size_t> budgets = {200000, 37};
      if (pairs > 1) budgets.insert(budgets.end(), {pairs, pairs - 1});
      for (std::size_t max_pairs : budgets) {
        EXPECT_TRUE(SameBits(CpjSampled(g, c, max_pairs, seed),
                             ReferenceCpjSampled(g, c, max_pairs, seed)))
            << "max_pairs " << max_pairs;
      }
    }
  }
}

// --------------------------------------------------------------------------
// Vertex set similarity
// --------------------------------------------------------------------------

TEST(VertexJaccardTest, Values) {
  EXPECT_DOUBLE_EQ(VertexJaccard({1, 2, 3}, {2, 3, 4}), 0.5);
  EXPECT_DOUBLE_EQ(VertexJaccard({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(VertexJaccard({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(VertexJaccard({}, {}), 0.0);
}

TEST(VertexF1Test, Values) {
  // predicted {1,2,3,4} vs truth {3,4,5}: P=0.5, R=2/3, F1=4/7.
  EXPECT_NEAR(VertexF1({1, 2, 3, 4}, {3, 4, 5}), 4.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(VertexF1({1, 2}, {1, 2}), 1.0);
  EXPECT_DOUBLE_EQ(VertexF1({1}, {2}), 0.0);
  EXPECT_DOUBLE_EQ(VertexF1({}, {1}), 0.0);
}

// --------------------------------------------------------------------------
// NMI / AverageF1
// --------------------------------------------------------------------------

Clustering MakeClustering(std::vector<std::uint32_t> assignment) {
  Clustering c;
  c.assignment = std::move(assignment);
  c.Normalize();
  return c;
}

TEST(NmiTest, IdenticalPartitionsScoreOne) {
  Clustering a = MakeClustering({0, 0, 1, 1, 2, 2});
  EXPECT_NEAR(Nmi(a, a), 1.0, 1e-9);
}

TEST(NmiTest, RelabelledPartitionsScoreOne) {
  Clustering a = MakeClustering({0, 0, 1, 1, 2, 2});
  Clustering b = MakeClustering({2, 2, 0, 0, 1, 1});
  EXPECT_NEAR(Nmi(a, b), 1.0, 1e-9);
}

TEST(NmiTest, SymmetricAndBounded) {
  Rng rng(3);
  std::vector<std::uint32_t> x(64), y(64);
  for (std::size_t i = 0; i < 64; ++i) {
    x[i] = rng.UniformU32(4);
    y[i] = rng.UniformU32(4);
  }
  Clustering a = MakeClustering(x);
  Clustering b = MakeClustering(y);
  double ab = Nmi(a, b);
  double ba = Nmi(b, a);
  EXPECT_NEAR(ab, ba, 1e-12);
  EXPECT_GE(ab, 0.0);
  EXPECT_LE(ab, 1.0 + 1e-12);
  // Independent random labels: low agreement.
  EXPECT_LT(ab, 0.4);
}

TEST(NmiTest, MismatchedSizesGiveZero) {
  Clustering a = MakeClustering({0, 1});
  Clustering b = MakeClustering({0, 1, 1});
  EXPECT_DOUBLE_EQ(Nmi(a, b), 0.0);
}

TEST(AverageF1Test, IdenticalPartitionsScoreOne) {
  Clustering a = MakeClustering({0, 0, 1, 1});
  EXPECT_DOUBLE_EQ(AverageF1(a, a), 1.0);
}

TEST(AverageF1Test, CoarserPartitionScoresBelowOne) {
  Clustering truth = MakeClustering({0, 0, 1, 1});
  Clustering merged = MakeClustering({0, 0, 0, 0});
  double f1 = AverageF1(merged, truth);
  EXPECT_GT(f1, 0.0);
  EXPECT_LT(f1, 1.0);
}

}  // namespace
}  // namespace cexplorer
