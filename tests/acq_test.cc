// Tests for the ACQ query engine: the paper's worked example, algorithm
// equivalence against the brute-force oracle, result invariants, error
// handling, and the multi-vertex variant.

#include <gtest/gtest.h>

#include <algorithm>

#include "acq/acq.h"
#include "common/rng.h"
#include "core/kcore.h"
#include "graph/fixtures.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"

namespace cexplorer {
namespace {

AttributedGraph RandomAttributed(std::size_t n, std::size_t m,
                                 std::size_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  AttributedGraphBuilder b;
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<KeywordId> kws;
    std::size_t count = 2 + rng.UniformU32(4);
    for (std::size_t i = 0; i < count; ++i) {
      kws.push_back(b.mutable_vocabulary()->Intern(
          std::string("kw") + std::to_string(rng.UniformU32(static_cast<std::uint32_t>(vocab)))));
    }
    b.AddVertexWithIds(std::string("v") + std::to_string(v), std::move(kws));
  }
  for (std::size_t i = 0; i < m; ++i) {
    (void)b.AddEdge(rng.UniformU32(static_cast<std::uint32_t>(n)),
                    rng.UniformU32(static_cast<std::uint32_t>(n)));
  }
  return b.Build();
}

class Fig5Fixture : public ::testing::Test {
 protected:
  Fig5Fixture() : graph_(Figure5Graph()), tree_(ClTree::Build(graph_)) {}

  KeywordList Kw(const std::vector<std::string>& words) const {
    KeywordList out;
    for (const auto& w : words) {
      KeywordId id = graph_.vocabulary().Find(w);
      EXPECT_NE(id, kInvalidKeyword) << w;
      out.push_back(id);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  AttributedGraph graph_;
  ClTree tree_;
};

// --------------------------------------------------------------------------
// The paper's worked example: q=A, k=2, S={w,x,y} -> {A,C,D} sharing {x,y}.
// --------------------------------------------------------------------------

TEST_F(Fig5Fixture, PaperExampleAllAlgorithms) {
  AcqEngine engine(&graph_, &tree_);
  for (AcqAlgorithm algo :
       {AcqAlgorithm::kBruteForce, AcqAlgorithm::kIncS, AcqAlgorithm::kIncT,
        AcqAlgorithm::kDec}) {
    auto result = engine.Search(0, 2, Kw({"w", "x", "y"}), algo);
    ASSERT_TRUE(result.ok()) << AcqAlgorithmName(algo);
    ASSERT_EQ(result->communities.size(), 1u) << AcqAlgorithmName(algo);
    const auto& ac = result->communities[0];
    EXPECT_EQ(ac.vertices, (VertexList{0, 2, 3})) << AcqAlgorithmName(algo);
    EXPECT_EQ(ac.shared_keywords, Kw({"x", "y"})) << AcqAlgorithmName(algo);
  }
}

TEST_F(Fig5Fixture, SingleKeywordX) {
  // q=A, k=2, S={x}: vertices with x are {A,B,C,D,G,I,J}; the connected
  // 2-core of that set containing A is the K4 {A,B,C,D}.
  AcqEngine engine(&graph_, &tree_);
  auto result = engine.Search(0, 2, Kw({"x"}), AcqAlgorithm::kDec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->communities.size(), 1u);
  EXPECT_EQ(result->communities[0].vertices, (VertexList{0, 1, 2, 3}));
  EXPECT_EQ(result->communities[0].shared_keywords, Kw({"x"}));
}

TEST_F(Fig5Fixture, EmptyKeywordsFallsBackToKCore) {
  AcqEngine engine(&graph_, &tree_);
  auto result = engine.Search(0, 3, {}, AcqAlgorithm::kDec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->communities.size(), 1u);
  EXPECT_EQ(result->communities[0].vertices, (VertexList{0, 1, 2, 3}));
  EXPECT_TRUE(result->communities[0].shared_keywords.empty());
}

TEST_F(Fig5Fixture, UnsatisfiableKeywordsFallBackToKCore) {
  // S={w}: only A has w, so no 2-core of w-vertices exists; the answer
  // degrades to the plain connected 2-core of A.
  AcqEngine engine(&graph_, &tree_);
  auto result = engine.Search(0, 2, Kw({"w"}), AcqAlgorithm::kDec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->communities.size(), 1u);
  EXPECT_EQ(result->communities[0].vertices, (VertexList{0, 1, 2, 3, 4}));
  EXPECT_TRUE(result->communities[0].shared_keywords.empty());
}

TEST_F(Fig5Fixture, TooLargeKGivesNoCommunity) {
  AcqEngine engine(&graph_, &tree_);
  auto result = engine.Search(0, 4, Kw({"x"}), AcqAlgorithm::kDec);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->communities.empty());
}

TEST_F(Fig5Fixture, KeywordNotOnQueryVertexRejected) {
  AcqEngine engine(&graph_, &tree_);
  // 'z' is not in W(A).
  auto result = engine.Search(0, 2, Kw({"z"}), AcqAlgorithm::kDec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(Fig5Fixture, InvalidVertexRejected) {
  AcqEngine engine(&graph_, &tree_);
  auto result = engine.Search(99, 2, {}, AcqAlgorithm::kDec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(Fig5Fixture, SearchByNameResolvesAndValidates) {
  AcqEngine engine(&graph_, &tree_);
  auto ok = engine.SearchByName("a", 2, {"x", "y"});
  ASSERT_TRUE(ok.ok());
  ASSERT_EQ(ok->communities.size(), 1u);
  EXPECT_EQ(ok->communities[0].vertices, (VertexList{0, 2, 3}));

  EXPECT_EQ(engine.SearchByName("nobody", 2, {}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.SearchByName("a", 2, {"notakeyword"}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(Fig5Fixture, IsolatedVertexKZero) {
  // J is isolated; with k=0 its community is itself.
  AcqEngine engine(&graph_, &tree_);
  auto result = engine.Search(9, 0, Kw({"x"}), AcqAlgorithm::kDec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->communities.size(), 1u);
  EXPECT_EQ(result->communities[0].vertices, (VertexList{9}));
  EXPECT_EQ(result->communities[0].shared_keywords, Kw({"x"}));
}

// --------------------------------------------------------------------------
// Multi-vertex variant.
// --------------------------------------------------------------------------

TEST_F(Fig5Fixture, MultiVertexSharedCommunity) {
  AcqEngine engine(&graph_, &tree_);
  // Q={A, D}, S={x,y} (shared by both), k=2 -> {A,C,D}.
  auto result = engine.SearchMulti({0, 3}, 2, Kw({"x", "y"}));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->communities.size(), 1u);
  EXPECT_EQ(result->communities[0].vertices, (VertexList{0, 2, 3}));
}

TEST_F(Fig5Fixture, MultiVertexDifferentComponentsEmpty) {
  AcqEngine engine(&graph_, &tree_);
  // A and H are in different 1-core components.
  auto result = engine.SearchMulti({0, 7}, 1, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->communities.empty());
}

TEST_F(Fig5Fixture, MultiVertexKeywordMustBeShared) {
  AcqEngine engine(&graph_, &tree_);
  // 'w' is in W(A) but not W(D).
  auto result = engine.SearchMulti({0, 3}, 2, Kw({"w"}));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------------------
// Property tests: all algorithms equal the brute-force oracle, and results
// satisfy the ACQ definition.
// --------------------------------------------------------------------------

struct SweepParam {
  int seed;
  std::uint32_t k;
};

class AcqSweepTest : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AcqSweepTest, AllAlgorithmsMatchOracle) {
  const auto& param = GetParam();
  AttributedGraph g = RandomAttributed(
      36, 110, 6, static_cast<std::uint64_t>(param.seed) * 131 + 17);
  ClTree tree = ClTree::Build(g);
  AcqEngine engine(&g, &tree);
  Rng rng(param.seed * 977 + 5);

  for (int trial = 0; trial < 6; ++trial) {
    VertexId q = rng.UniformU32(static_cast<std::uint32_t>(g.num_vertices()));
    // S = random subset of W(q), up to 4 keywords.
    auto wq = g.Keywords(q);
    KeywordList S;
    for (KeywordId kw : wq) {
      if (rng.Bernoulli(0.7) && S.size() < 4) S.push_back(kw);
    }

    auto oracle = engine.Search(q, param.k, S, AcqAlgorithm::kBruteForce);
    ASSERT_TRUE(oracle.ok());
    for (AcqAlgorithm algo :
         {AcqAlgorithm::kIncS, AcqAlgorithm::kIncT, AcqAlgorithm::kDec}) {
      auto result = engine.Search(q, param.k, S, algo);
      ASSERT_TRUE(result.ok()) << AcqAlgorithmName(algo);
      ASSERT_EQ(result->communities.size(), oracle->communities.size())
          << AcqAlgorithmName(algo) << " q=" << q << " k=" << param.k;
      for (std::size_t i = 0; i < oracle->communities.size(); ++i) {
        EXPECT_EQ(result->communities[i], oracle->communities[i])
            << AcqAlgorithmName(algo) << " q=" << q << " k=" << param.k;
      }
    }
  }
}

TEST_P(AcqSweepTest, ResultsSatisfyAcqDefinition) {
  const auto& param = GetParam();
  AttributedGraph g = RandomAttributed(
      32, 100, 5, static_cast<std::uint64_t>(param.seed) * 389 + 29);
  ClTree tree = ClTree::Build(g);
  AcqEngine engine(&g, &tree);
  Rng rng(param.seed * 61 + 1);

  for (int trial = 0; trial < 6; ++trial) {
    VertexId q = rng.UniformU32(static_cast<std::uint32_t>(g.num_vertices()));
    auto wq = g.Keywords(q);
    KeywordList S(wq.begin(), wq.end());
    if (S.size() > 4) S.resize(4);

    auto result = engine.Search(q, param.k, S, AcqAlgorithm::kDec);
    ASSERT_TRUE(result.ok());
    for (const auto& ac : result->communities) {
      // Contains q.
      EXPECT_TRUE(std::binary_search(ac.vertices.begin(), ac.vertices.end(), q));
      // Connected.
      Subgraph sub = InducedSubgraph(g.graph(), ac.vertices);
      EXPECT_EQ(ConnectedComponents(sub.graph).num_components, 1u);
      // Structure cohesiveness: induced min degree >= k.
      VertexList copy = ac.vertices;
      for (std::size_t d : InducedDegrees(g.graph(), &copy)) {
        EXPECT_GE(d, param.k);
      }
      // Keyword cohesiveness: reported shared set == L(Gq, S).
      EXPECT_EQ(ac.shared_keywords, SharedKeywords(g, ac.vertices, S));
      // Every member carries all shared keywords.
      for (VertexId v : ac.vertices) {
        EXPECT_TRUE(g.HasAllKeywords(v, ac.shared_keywords));
      }
    }
    // All maximal sets have equal size.
    for (std::size_t i = 1; i < result->communities.size(); ++i) {
      EXPECT_EQ(result->communities[i].shared_keywords.size(),
                result->communities[0].shared_keywords.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AcqSweepTest,
    ::testing::Values(SweepParam{0, 1}, SweepParam{1, 1}, SweepParam{2, 2},
                      SweepParam{3, 2}, SweepParam{4, 3}, SweepParam{5, 3},
                      SweepParam{6, 2}, SweepParam{7, 4}, SweepParam{8, 0},
                      SweepParam{9, 2}));

class MultiVertexSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiVertexSweepTest, MultiVertexMatchesOracle) {
  const int seed = GetParam();
  AttributedGraph g = RandomAttributed(
      30, 90, 5, static_cast<std::uint64_t>(seed) * 613 + 41);
  ClTree tree = ClTree::Build(g);
  AcqEngine engine(&g, &tree);
  Rng rng(seed * 29 + 7);

  for (int trial = 0; trial < 5; ++trial) {
    // Pick an adjacent pair so a shared community is plausible.
    VertexId a = rng.UniformU32(static_cast<std::uint32_t>(g.num_vertices()));
    if (g.graph().Degree(a) == 0) continue;
    auto nbrs = g.graph().Neighbors(a);
    VertexId b = nbrs[rng.UniformU32(static_cast<std::uint32_t>(nbrs.size()))];
    // S = shared keywords of a and b (the multi-vertex requirement).
    KeywordList S;
    for (KeywordId kw : g.Keywords(a)) {
      if (g.HasKeyword(b, kw) && S.size() < 3) S.push_back(kw);
    }
    const std::uint32_t k = 1 + rng.UniformU32(3);

    auto oracle = engine.SearchMulti({a, b}, k, S, AcqAlgorithm::kBruteForce);
    ASSERT_TRUE(oracle.ok());
    for (AcqAlgorithm algo :
         {AcqAlgorithm::kIncS, AcqAlgorithm::kIncT, AcqAlgorithm::kDec}) {
      auto result = engine.SearchMulti({a, b}, k, S, algo);
      ASSERT_TRUE(result.ok()) << AcqAlgorithmName(algo);
      ASSERT_EQ(result->communities.size(), oracle->communities.size())
          << AcqAlgorithmName(algo) << " a=" << a << " b=" << b
          << " k=" << k;
      for (std::size_t i = 0; i < oracle->communities.size(); ++i) {
        EXPECT_EQ(result->communities[i], oracle->communities[i]);
      }
      // Every community contains both query vertices.
      for (const auto& ac : result->communities) {
        EXPECT_TRUE(
            std::binary_search(ac.vertices.begin(), ac.vertices.end(), a));
        EXPECT_TRUE(
            std::binary_search(ac.vertices.begin(), ac.vertices.end(), b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MultiVertexSweepTest, ::testing::Range(0, 8));

// --------------------------------------------------------------------------
// The fallback community (no non-empty keyword set qualifies): for k >= 1
// the indexed algorithms answer with the located CL-tree subtree, for k = 0
// (the root) with a peel of the whole graph.
// --------------------------------------------------------------------------

/// Runs every indexed algorithm against the brute-force oracle and returns
/// the oracle's answer. A fallback answer for k >= 1 must also equal the
/// subtree of the node LocateKCore finds.
std::vector<AttributedCommunity> ExpectIndexedMatchOracle(
    const AttributedGraph& g, const ClTree& tree, const VertexList& query,
    std::uint32_t k, const KeywordList& keywords) {
  AcqEngine engine(&g, &tree);
  auto oracle =
      engine.SearchMulti(query, k, keywords, AcqAlgorithm::kBruteForce);
  EXPECT_TRUE(oracle.ok());
  if (!oracle.ok()) return {};
  for (AcqAlgorithm algo :
       {AcqAlgorithm::kIncS, AcqAlgorithm::kIncT, AcqAlgorithm::kDec}) {
    auto result = engine.SearchMulti(query, k, keywords, algo);
    EXPECT_TRUE(result.ok()) << AcqAlgorithmName(algo);
    if (!result.ok()) continue;
    EXPECT_EQ(result->communities, oracle->communities)
        << AcqAlgorithmName(algo) << " q=" << query[0] << " k=" << k;
    if (k >= 1 && result->communities.size() == 1 &&
        result->communities[0].shared_keywords.empty()) {
      EXPECT_EQ(result->communities[0].vertices,
                tree.SubtreeVertices(tree.LocateKCore(query[0], k)))
          << AcqAlgorithmName(algo) << " q=" << query[0] << " k=" << k;
    }
  }
  return oracle->communities;
}

/// Triangles {0,1,2} and {3,4,5} bridged by edge 2-3 (all core 2), vertex
/// 6 hanging off 0 (core 1), a separate triangle {7,8,9} and an isolated
/// vertex 10. Keyword b sits on 0, 1, 4 and 5: enough support for k = 2,
/// but those four hold no 2-core. Keyword a sits on 0 alone.
AttributedGraph BridgedTriangles() {
  AttributedGraphBuilder b;
  const std::vector<std::vector<std::string>> keywords = {
      {"a", "b"}, {"b"}, {"c"}, {"c"}, {"b"}, {"b", "c"},
      {"c"},      {"c"}, {"c"}, {"c"}, {"c"}};
  for (std::size_t v = 0; v < keywords.size(); ++v) {
    b.AddVertex("v" + std::to_string(v), keywords[v]);
  }
  for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}, {2, 3}, {0, 6},
           {7, 8}, {8, 9}, {7, 9}}) {
    EXPECT_TRUE(b.AddEdge(u, v).ok());
  }
  return b.Build();
}

KeywordList KwOf(const AttributedGraph& g,
                 const std::vector<std::string>& words) {
  KeywordList out;
  for (const auto& w : words) out.push_back(g.vocabulary().Find(w));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(AcqFallbackTest, EmptyKeywordSetIsTheLocatedSubtree) {
  const AttributedGraph g = BridgedTriangles();
  const ClTree tree = ClTree::Build(g);
  const VertexList bridged = {0, 1, 2, 3, 4, 5};
  using Answer = std::vector<AttributedCommunity>;
  EXPECT_EQ(ExpectIndexedMatchOracle(g, tree, {0}, 2, {}),
            (Answer{{bridged, {}}}));
  EXPECT_EQ(ExpectIndexedMatchOracle(g, tree, {0}, 1, {}),
            (Answer{{{0, 1, 2, 3, 4, 5, 6}, {}}}));
  EXPECT_EQ(ExpectIndexedMatchOracle(g, tree, {8}, 2, {}),
            (Answer{{{7, 8, 9}, {}}}));
  EXPECT_TRUE(ExpectIndexedMatchOracle(g, tree, {6}, 2, {}).empty());
}

TEST(AcqFallbackTest, NoQualifyingKeywordIsTheLocatedSubtree) {
  const AttributedGraph g = BridgedTriangles();
  const ClTree tree = ClTree::Build(g);
  // a lacks support; b has support but its vertices hold no 2-core, so Dec
  // peels {b} and fails before falling back.
  EXPECT_EQ(ExpectIndexedMatchOracle(g, tree, {0}, 2, KwOf(g, {"a", "b"})),
            (std::vector<AttributedCommunity>{{{0, 1, 2, 3, 4, 5}, {}}}));
  // c is shared by every other member of the triangle {7,8,9}: it
  // qualifies there, so no fallback.
  EXPECT_EQ(ExpectIndexedMatchOracle(g, tree, {8}, 2, KwOf(g, {"c"})),
            (std::vector<AttributedCommunity>{
                {{7, 8, 9}, KwOf(g, {"c"})}}));
}

TEST(AcqFallbackTest, TwoQueryVerticesShareTheLocatedSubtree) {
  const AttributedGraph g = BridgedTriangles();
  const ClTree tree = ClTree::Build(g);
  using Answer = std::vector<AttributedCommunity>;
  EXPECT_EQ(ExpectIndexedMatchOracle(g, tree, {0, 5}, 2, KwOf(g, {"b"})),
            (Answer{{{0, 1, 2, 3, 4, 5}, {}}}));
  EXPECT_EQ(ExpectIndexedMatchOracle(g, tree, {5, 6}, 1, {}),
            (Answer{{{0, 1, 2, 3, 4, 5, 6}, {}}}));
  // Different components, or one vertex below k: no community.
  EXPECT_TRUE(ExpectIndexedMatchOracle(g, tree, {0, 8}, 2, {}).empty());
  EXPECT_TRUE(ExpectIndexedMatchOracle(g, tree, {0, 6}, 2, {}).empty());
}

TEST(AcqFallbackTest, KZeroOnADisconnectedGraphPeelsToTheComponent) {
  // Two triangles and an isolated vertex. At k = 0 LocateKCore returns the
  // root, whose subtree is all 7 vertices: the fallback must still cut out
  // the query vertex's own component.
  AttributedGraphBuilder b;
  for (int v = 0; v < 7; ++v) b.AddVertex("v" + std::to_string(v), {"x"});
  for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}}) {
    ASSERT_TRUE(b.AddEdge(u, v).ok());
  }
  const AttributedGraph g = b.Build();
  const ClTree tree = ClTree::Build(g);
  ASSERT_EQ(tree.LocateKCore(0, 0), tree.root());
  using Answer = std::vector<AttributedCommunity>;
  EXPECT_EQ(ExpectIndexedMatchOracle(g, tree, {0}, 0, {}),
            (Answer{{{0, 1, 2}, {}}}));
  EXPECT_EQ(ExpectIndexedMatchOracle(g, tree, {6}, 0, {}),
            (Answer{{{6}, {}}}));
  EXPECT_TRUE(ExpectIndexedMatchOracle(g, tree, {0, 4}, 0, {}).empty());
}

TEST(AcqFallbackTest, SparseRandomGraphsMatchOracleForEveryVertexAndK) {
  for (int seed = 0; seed < 4; ++seed) {
    // Few edges per vertex: several components and many core numbers.
    const AttributedGraph g = RandomAttributed(
        40, 60, 5, static_cast<std::uint64_t>(seed) * 7919 + 3);
    const ClTree tree = ClTree::Build(g);
    for (VertexId q = 0; q < g.num_vertices(); ++q) {
      for (std::uint32_t k = 0; k <= 3; ++k) {
        ExpectIndexedMatchOracle(g, tree, {q}, k, {});
        auto wq = g.Keywords(q);
        ExpectIndexedMatchOracle(g, tree, {q}, k,
                                 KeywordList(wq.begin(), wq.end()));
      }
    }
  }
}

// --------------------------------------------------------------------------
// Stats plumbing.
// --------------------------------------------------------------------------

TEST_F(Fig5Fixture, StatsCountWork) {
  AcqEngine engine(&graph_, &tree_);
  auto result = engine.Search(0, 2, Kw({"w", "x", "y"}), AcqAlgorithm::kDec);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->stats.candidates_generated, 0u);
  EXPECT_GT(result->stats.candidates_verified + result->stats.support_pruned,
            0u);
}

TEST_F(Fig5Fixture, MissingIndexRejectedForIndexedAlgorithms) {
  AcqEngine engine(&graph_, nullptr);
  auto result = engine.Search(0, 2, {}, AcqAlgorithm::kDec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // The oracle runs without an index.
  EXPECT_TRUE(engine.Search(0, 2, {}, AcqAlgorithm::kBruteForce).ok());
}

}  // namespace
}  // namespace cexplorer
