// Tests for the CL-tree index: structure invariants, equivalence of the
// basic and advanced builders, query correctness against direct
// computation, and serialization.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "cltree/cltree.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "core/kcore.h"
#include "graph/fixtures.h"
#include "graph/traversal.h"

namespace cexplorer {
namespace {

/// Random attributed graph for property tests: G(n, m) edges plus keywords
/// drawn from a small vocabulary.
AttributedGraph RandomAttributed(std::size_t n, std::size_t m,
                                 std::size_t vocab, std::uint64_t seed) {
  Rng rng(seed);
  AttributedGraphBuilder b;
  for (std::size_t v = 0; v < n; ++v) {
    std::vector<KeywordId> kws;
    std::size_t count = 1 + rng.UniformU32(4);
    for (std::size_t i = 0; i < count; ++i) {
      std::string word = "kw";
      word += std::to_string(rng.UniformU32(static_cast<std::uint32_t>(vocab)));
      kws.push_back(b.mutable_vocabulary()->Intern(word));
    }
    std::string name = "v";
    name += std::to_string(v);
    b.AddVertexWithIds(std::move(name), std::move(kws));
  }
  for (std::size_t i = 0; i < m; ++i) {
    (void)b.AddEdge(rng.UniformU32(static_cast<std::uint32_t>(n)),
                    rng.UniformU32(static_cast<std::uint32_t>(n)));
  }
  return b.Build();
}

/// Materializes a node's arena-backed span for gtest comparison.
std::vector<std::uint32_t> ToVec(std::span<const std::uint32_t> s) {
  return {s.begin(), s.end()};
}

/// Structural equality of two finalized trees (ids are canonical, so this
/// is plain array comparison).
void ExpectTreesEqual(const ClTree& a, const ClTree& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  for (ClNodeId i = 0; i < a.num_nodes(); ++i) {
    EXPECT_EQ(a.node(i).core, b.node(i).core) << "node " << i;
    EXPECT_EQ(a.node(i).parent, b.node(i).parent) << "node " << i;
    EXPECT_EQ(ToVec(a.node(i).children), ToVec(b.node(i).children))
        << "node " << i;
    EXPECT_EQ(ToVec(a.node(i).vertices), ToVec(b.node(i).vertices))
        << "node " << i;
    EXPECT_EQ(a.node(i).subtree_end, b.node(i).subtree_end) << "node " << i;
  }
}

/// Oracle for Finalize's inverted lists: every node's keywords, posting
/// lists, offsets and bloom, recomputed from its anchored vertices, and the
/// vertex -> node map.
void ExpectInvertedListsMatchAnchors(const AttributedGraph& g,
                                     const ClTree& tree) {
  std::size_t postings_before = 0;  // postings of the preceding nodes
  for (ClNodeId i = 0; i < tree.num_nodes(); ++i) {
    const ClTreeNode& node = tree.node(i);
    std::map<KeywordId, VertexList> expected;  // keywords ascending
    for (VertexId v : node.vertices) {
      for (KeywordId kw : g.Keywords(v)) expected[kw].push_back(v);
    }
    ASSERT_EQ(node.inv_keywords.size(), expected.size()) << "node " << i;
    ASSERT_EQ(node.inv_postings.size(), expected.size()) << "node " << i;
    EXPECT_EQ(node.inv_postings.offsets[0], postings_before) << "node " << i;
    std::uint64_t bloom = 0;
    std::size_t slot = 0;
    for (auto& [kw, list] : expected) {
      std::sort(list.begin(), list.end());
      EXPECT_EQ(node.inv_keywords[slot], kw) << "node " << i;
      EXPECT_EQ(ToVec(node.inv_postings[slot]), list)
          << "node " << i << " keyword " << kw;
      bloom |= simd::BloomMask(kw);
      postings_before += list.size();
      ++slot;
    }
    EXPECT_EQ(node.inv_postings.offsets[slot], postings_before)
        << "node " << i;
    EXPECT_EQ(tree.NodeKeywordBloom(i), bloom) << "node " << i;
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const ClNodeId id = tree.NodeOf(v);
    ASSERT_LT(id, tree.num_nodes()) << "vertex " << v;
    const auto anchors = tree.node(id).vertices;
    EXPECT_NE(std::find(anchors.begin(), anchors.end(), v), anchors.end())
        << "vertex " << v;
  }
}

TEST(ClTreeTest, EmptyGraphEmptyTree) {
  AttributedGraph g;
  ClTree tree = ClTree::Build(g);
  EXPECT_EQ(tree.num_nodes(), 0u);
  EXPECT_EQ(tree.root(), kInvalidClNode);
}

TEST(ClTreeTest, Figure5StructureMatchesPaper) {
  // Expected tree (paper Figure 5b): root(0):{J} -> 1:{F,G} -> 2:{E} ->
  // 3:{A,B,C,D}, plus root -> 1:{H,I}.
  AttributedGraph g = Figure5Graph();
  ClTree tree = ClTree::Build(g);
  ASSERT_EQ(tree.num_nodes(), 5u);

  const ClTreeNode& root = tree.node(0);
  EXPECT_EQ(root.core, 0u);
  EXPECT_EQ(ToVec(root.vertices), (VertexList{9}));  // J
  ASSERT_EQ(root.children.size(), 2u);

  // Children ordered by minimum subtree vertex: {A..G} side first.
  const ClTreeNode& n1 = tree.node(root.children[0]);
  EXPECT_EQ(n1.core, 1u);
  EXPECT_EQ(ToVec(n1.vertices), (VertexList{5, 6}));  // F, G
  ASSERT_EQ(n1.children.size(), 1u);

  const ClTreeNode& n2 = tree.node(n1.children[0]);
  EXPECT_EQ(n2.core, 2u);
  EXPECT_EQ(ToVec(n2.vertices), (VertexList{4}));  // E
  ASSERT_EQ(n2.children.size(), 1u);

  const ClTreeNode& n3 = tree.node(n2.children[0]);
  EXPECT_EQ(n3.core, 3u);
  EXPECT_EQ(ToVec(n3.vertices), (VertexList{0, 1, 2, 3}));  // A,B,C,D
  EXPECT_TRUE(n3.children.empty());

  const ClTreeNode& hi = tree.node(root.children[1]);
  EXPECT_EQ(hi.core, 1u);
  EXPECT_EQ(ToVec(hi.vertices), (VertexList{7, 8}));  // H, I
  EXPECT_TRUE(hi.children.empty());
}

TEST(ClTreeTest, Figure5VertexNodeMap) {
  AttributedGraph g = Figure5Graph();
  ClTree tree = ClTree::Build(g);
  auto core = CoreDecomposition(g.graph());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(tree.CoreOf(v), core[v]) << "vertex " << v;
    const ClTreeNode& node = tree.node(tree.NodeOf(v));
    EXPECT_TRUE(std::binary_search(node.vertices.begin(), node.vertices.end(), v));
  }
}

TEST(ClTreeTest, InvertedListsCoverAnchoredKeywords) {
  AttributedGraph g = Figure5Graph();
  ClTree tree = ClTree::Build(g);
  for (ClNodeId i = 0; i < tree.num_nodes(); ++i) {
    const ClTreeNode& node = tree.node(i);
    // Every anchored vertex's keyword appears in the node's postings.
    for (VertexId v : node.vertices) {
      for (KeywordId kw : g.Keywords(v)) {
        auto postings = node.Postings(kw);
        EXPECT_TRUE(std::binary_search(postings.begin(), postings.end(), v));
      }
    }
    // Postings only contain anchored vertices.
    for (std::size_t k = 0; k < node.inv_keywords.size(); ++k) {
      for (VertexId v : node.inv_postings[k]) {
        EXPECT_TRUE(
            std::binary_search(node.vertices.begin(), node.vertices.end(), v));
        EXPECT_TRUE(g.HasKeyword(v, node.inv_keywords[k]));
      }
    }
  }
}

class ClTreeRandomTest : public ::testing::TestWithParam<int> {
 protected:
  AttributedGraph graph_ = RandomAttributed(
      40 + GetParam() * 13, 80 + GetParam() * 29, 8,
      static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
};

TEST_P(ClTreeRandomTest, BasicAndAdvancedBuildersAgree) {
  ClTree basic = ClTree::Build(graph_, ClTreeBuildMethod::kBasic);
  ClTree advanced = ClTree::Build(graph_, ClTreeBuildMethod::kAdvanced);
  ExpectTreesEqual(basic, advanced);
}

TEST_P(ClTreeRandomTest, EveryVertexAnchoredExactlyOnceAtItsCore) {
  ClTree tree = ClTree::Build(graph_);
  auto core = CoreDecomposition(graph_.graph());
  std::vector<int> anchored(graph_.num_vertices(), 0);
  for (ClNodeId i = 0; i < tree.num_nodes(); ++i) {
    for (VertexId v : tree.node(i).vertices) {
      ++anchored[v];
      EXPECT_EQ(tree.node(i).core, core[v]) << "vertex " << v;
    }
  }
  for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
    EXPECT_EQ(anchored[v], 1) << "vertex " << v;
  }
}

TEST_P(ClTreeRandomTest, ChildCoresStrictlyIncrease) {
  ClTree tree = ClTree::Build(graph_);
  for (ClNodeId i = 0; i < tree.num_nodes(); ++i) {
    for (ClNodeId child : tree.node(i).children) {
      EXPECT_GT(tree.node(child).core, tree.node(i).core);
      EXPECT_EQ(tree.node(child).parent, i);
    }
  }
}

TEST_P(ClTreeRandomTest, SubtreeRangesArePreorderConsistent) {
  ClTree tree = ClTree::Build(graph_);
  for (ClNodeId i = 0; i < tree.num_nodes(); ++i) {
    const ClTreeNode& node = tree.node(i);
    EXPECT_GT(node.subtree_end, i);
    EXPECT_LE(node.subtree_end, tree.num_nodes());
    for (ClNodeId child : node.children) {
      EXPECT_GT(child, i);
      EXPECT_LT(child, node.subtree_end);
      EXPECT_LE(tree.node(child).subtree_end, node.subtree_end);
    }
    EXPECT_EQ(tree.SubtreeVertices(i).size(), tree.SubtreeSize(i));
  }
}

TEST_P(ClTreeRandomTest, LocateKCoreMatchesDirectComputation) {
  ClTree tree = ClTree::Build(graph_);
  auto core = CoreDecomposition(graph_.graph());
  const std::uint32_t kmax = MaxCoreNumber(core);
  for (VertexId q = 0; q < graph_.num_vertices(); ++q) {
    for (std::uint32_t k = 1; k <= kmax + 1; ++k) {
      ClNodeId node = tree.LocateKCore(q, k);
      VertexList expected = ConnectedKCore(graph_.graph(), core, q, k);
      if (expected.empty()) {
        EXPECT_EQ(node, kInvalidClNode) << "q=" << q << " k=" << k;
      } else {
        ASSERT_NE(node, kInvalidClNode) << "q=" << q << " k=" << k;
        EXPECT_EQ(tree.SubtreeVertices(node), expected)
            << "q=" << q << " k=" << k;
      }
    }
  }
}

TEST_P(ClTreeRandomTest, CollectWithKeywordsMatchesScan) {
  ClTree tree = ClTree::Build(graph_);
  Rng rng(GetParam() * 31 + 5);
  for (int trial = 0; trial < 10; ++trial) {
    ClNodeId node = static_cast<ClNodeId>(
        rng.UniformU32(static_cast<std::uint32_t>(tree.num_nodes())));
    KeywordList kws;
    std::size_t count = 1 + rng.UniformU32(3);
    for (std::size_t i = 0; i < count; ++i) {
      kws.push_back(rng.UniformU32(
          static_cast<std::uint32_t>(graph_.vocabulary().size())));
    }
    std::sort(kws.begin(), kws.end());
    kws.erase(std::unique(kws.begin(), kws.end()), kws.end());

    VertexList expected;
    for (VertexId v : tree.SubtreeVertices(node)) {
      if (graph_.HasAllKeywords(v, kws)) expected.push_back(v);
    }
    EXPECT_EQ(tree.CollectWithKeywords(node, kws), expected);
  }
}

TEST_P(ClTreeRandomTest, CountKeywordMatchesScan) {
  ClTree tree = ClTree::Build(graph_);
  for (KeywordId kw = 0; kw < graph_.vocabulary().size(); ++kw) {
    std::size_t expected = 0;
    for (VertexId v : tree.SubtreeVertices(tree.root())) {
      if (graph_.HasKeyword(v, kw)) ++expected;
    }
    EXPECT_EQ(tree.CountKeyword(tree.root(), kw), expected);
  }
}

TEST_P(ClTreeRandomTest, InvertedListsMatchAnchoredKeywords) {
  for (ClTreeBuildMethod method :
       {ClTreeBuildMethod::kBasic, ClTreeBuildMethod::kAdvanced}) {
    ClTree tree = ClTree::Build(graph_, method);
    ExpectInvertedListsMatchAnchors(graph_, tree);
  }
}

TEST_P(ClTreeRandomTest, SerializationRoundTrip) {
  ClTree tree = ClTree::Build(graph_);
  auto restored = ClTree::Deserialize(graph_, tree.Serialize());
  ASSERT_TRUE(restored.ok()) << restored.status();
  ExpectTreesEqual(tree, restored.value());
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClTreeRandomTest, ::testing::Range(0, 10));

/// A K4, a keyword-less pair and a triangle, plus an isolated keyword-less
/// vertex that leaves the root without keywords. With `keywords` false no
/// vertex carries a keyword and the vocabulary is empty; otherwise the
/// vocabulary also holds words that no vertex carries, at its first and
/// last ids.
AttributedGraph SparseKeywordGraph(bool keywords) {
  AttributedGraphBuilder b;
  auto kws = [&](std::vector<std::string> words) {
    return keywords ? words : std::vector<std::string>{};
  };
  if (keywords) b.mutable_vocabulary()->Intern("unused-first");
  b.AddVertex("iso", {});
  b.AddVertex("k0", kws({"db"}));
  b.AddVertex("k1", kws({"db", "ml"}));
  b.AddVertex("k2", kws({"ml"}));
  b.AddVertex("k3", kws({"db"}));
  b.AddVertex("p0", {});
  b.AddVertex("p1", {});
  b.AddVertex("t0", kws({"ir"}));
  b.AddVertex("t1", kws({"db", "ir"}));
  b.AddVertex("t2", {});
  if (keywords) b.mutable_vocabulary()->Intern("unused-last");
  for (VertexId u = 1; u <= 4; ++u) {
    for (VertexId v = u + 1; v <= 4; ++v) (void)b.AddEdge(u, v);
  }
  (void)b.AddEdge(5, 6);
  (void)b.AddEdge(7, 8);
  (void)b.AddEdge(8, 9);
  (void)b.AddEdge(7, 9);
  return b.Build();
}

TEST(ClTreeInvertedListTest, KeywordLessNodesAndUnusedWords) {
  const AttributedGraph g = SparseKeywordGraph(true);
  ASSERT_EQ(g.vocabulary().size(), 5u);
  for (ClTreeBuildMethod method :
       {ClTreeBuildMethod::kBasic, ClTreeBuildMethod::kAdvanced}) {
    ClTree tree = ClTree::Build(g, method);
    ASSERT_EQ(tree.num_nodes(), 4u);
    EXPECT_EQ(ToVec(tree.node(0).vertices), (VertexList{0}));
    EXPECT_TRUE(tree.node(0).inv_keywords.empty());
    EXPECT_EQ(tree.NodeKeywordBloom(0), 0u);
    // Preorder puts the keyword-less pair between two nodes with keywords.
    EXPECT_EQ(ToVec(tree.node(2).vertices), (VertexList{5, 6}));
    EXPECT_TRUE(tree.node(2).inv_keywords.empty());
    ExpectInvertedListsMatchAnchors(g, tree);
    for (const char* word : {"unused-first", "unused-last"}) {
      const KeywordId kw = g.vocabulary().Find(word);
      EXPECT_EQ(tree.CountKeyword(tree.root(), kw), 0u) << word;
    }
    auto restored = ClTree::Deserialize(g, tree.Serialize());
    ASSERT_TRUE(restored.ok()) << restored.status();
    ExpectInvertedListsMatchAnchors(g, restored.value());
  }
}

TEST(ClTreeInvertedListTest, EmptyVocabulary) {
  const AttributedGraph g = SparseKeywordGraph(false);
  ASSERT_EQ(g.vocabulary().size(), 0u);
  ClTree tree = ClTree::Build(g);
  ASSERT_EQ(tree.num_nodes(), 4u);
  ExpectInvertedListsMatchAnchors(g, tree);
  for (ClNodeId i = 0; i < tree.num_nodes(); ++i) {
    EXPECT_TRUE(tree.node(i).inv_keywords.empty()) << "node " << i;
    EXPECT_EQ(tree.NodeKeywordBloom(i), 0u) << "node " << i;
  }
}

TEST(ClTreeSerializeTest, RejectsCorruptDocuments) {
  AttributedGraph g = Figure5Graph();
  ClTree tree = ClTree::Build(g);
  EXPECT_FALSE(ClTree::Deserialize(g, "").ok());
  EXPECT_FALSE(ClTree::Deserialize(g, "bogus 1 2\n").ok());
  EXPECT_FALSE(ClTree::Deserialize(g, "cltree 1 10\nn 0 5\n").ok());  // parent
  // Vertex anchored twice.
  EXPECT_FALSE(
      ClTree::Deserialize(g, "cltree 2 10\nn 0 - 0 1 2 3 4 5 6 7 8 9\nn 1 0 0\n")
          .ok());
  // Documents that pass the range and anchoring checks but are not in the
  // preorder form Serialize writes, or whose header lies about its size.
  for (const char* doc : {
           // Nodes 1 and 2 name each other as parent.
           "cltree 3 10\nn 0 - 0 1 2 3\nn 2 2 4 5 6\nn 3 1 7 8 9\n",
           // Node 1 is its own parent.
           "cltree 2 10\nn 0 - 0 1 2 3\nn 2 1 4 5 6 7 8 9\n",
           // Node 1's parent follows it.
           "cltree 3 10\nn 0 - 9\nn 2 2 0 1 2 3 4\nn 1 0 5 6 7 8\n",
           // A second root.
           "cltree 2 10\nn 0 - 0 1 2 3 4\nn 0 - 5 6 7 8 9\n",
           // A child whose core is not above its parent's.
           "cltree 2 10\nn 1 - 9\nn 1 0 0 1 2 3 4 5 6 7 8\n",
           // Anchors out of order, and repeated within one node.
           "cltree 2 10\nn 0 - 0 1 2 3\nn 2 0 9 8 7 6 5 4\n",
           "cltree 2 10\nn 0 - 0 1 2 3\nn 2 0 4 4 5 6 7 8 9\n",
           // A node count no allocation could hold.
           "cltree 4000000000000000 10\nn 0 - 0 1 2 3\n",
       }) {
    EXPECT_FALSE(ClTree::Deserialize(g, doc).ok()) << doc;
  }
  // What Serialize writes still loads.
  EXPECT_TRUE(ClTree::Deserialize(g, tree.Serialize()).ok());
  // Wrong graph (vertex count mismatch).
  AttributedGraphBuilder b;
  b.AddVertex("solo", {});
  AttributedGraph tiny = b.Build();
  EXPECT_FALSE(ClTree::Deserialize(tiny, tree.Serialize()).ok());
}

TEST(ClTreeSerializeTest, MissingVertexRejected) {
  AttributedGraph g = Figure5Graph();
  // A document anchoring only one vertex.
  EXPECT_FALSE(ClTree::Deserialize(g, "cltree 1 10\nn 0 - 0\n").ok());
}

TEST(ClTreeMemoryTest, MemoryGrowsWithGraph) {
  AttributedGraph small = RandomAttributed(50, 100, 8, 1);
  AttributedGraph large = RandomAttributed(500, 1000, 8, 1);
  ClTree ts = ClTree::Build(small);
  ClTree tl = ClTree::Build(large);
  EXPECT_GT(tl.MemoryBytes(), ts.MemoryBytes());
}

}  // namespace
}  // namespace cexplorer
