// Unit tests for the graph substrate: CSR construction, attributed graphs,
// traversal, subgraph induction, I/O formats, fixtures.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "explorer/dataset.h"
#include "graph/attributed_graph.h"
#include "graph/fixtures.h"
#include "graph/graph.h"
#include "graph/io.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"

namespace cexplorer {
namespace {

Graph Triangle() {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  return b.Build();
}

// --------------------------------------------------------------------------
// Graph / GraphBuilder
// --------------------------------------------------------------------------

TEST(GraphBuilderTest, EmptyGraph) {
  GraphBuilder b;
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.AverageDegree(), 0.0);
  EXPECT_EQ(g.MaxDegree(), 0u);
}

TEST(GraphBuilderTest, DropsSelfLoopsAndDuplicates) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // duplicate, reversed
  b.AddEdge(0, 1);  // duplicate
  b.AddEdge(2, 2);  // self loop
  b.AddEdge(1, 2);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.Degree(0), 1u);
  EXPECT_EQ(g.Degree(1), 2u);
  EXPECT_EQ(g.Degree(2), 1u);
}

TEST(GraphBuilderTest, EnsureVerticesCreatesIsolated) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.EnsureVertices(5);
  Graph g = b.Build();
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.Degree(4), 0u);
}

TEST(GraphTest, NeighborsSortedAscending) {
  GraphBuilder b;
  b.AddEdge(3, 1);
  b.AddEdge(3, 0);
  b.AddEdge(3, 2);
  Graph g = b.Build();
  auto nbrs = g.Neighbors(3);
  ASSERT_EQ(nbrs.size(), 3u);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
}

TEST(GraphTest, HasEdgeBothDirections) {
  Graph g = Triangle();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
  EXPECT_FALSE(g.HasEdge(0, 99));
}

TEST(GraphTest, EdgesReturnsCanonicalPairs) {
  Graph g = Triangle();
  auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 3u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(GraphTest, DegreeStatistics) {
  Graph g = Triangle();
  EXPECT_DOUBLE_EQ(g.AverageDegree(), 2.0);
  EXPECT_EQ(g.MaxDegree(), 2u);
  EXPECT_GT(g.MemoryBytes(), 0u);
}

TEST(GraphTest, LargeRandomGraphDegreeSum) {
  Rng rng(99);
  GraphBuilder b(2000);
  for (int i = 0; i < 6000; ++i) {
    b.AddEdge(rng.UniformU32(2000), rng.UniformU32(2000));
  }
  Graph g = b.Build();
  std::size_t degree_sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) degree_sum += g.Degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
}

// --------------------------------------------------------------------------
// AttributedGraph
// --------------------------------------------------------------------------

/// `g` as a snapshot save and reload serves it. The returned copy shares
/// the mapping, which outlives the dataset that loaded it.
AttributedGraph Reloaded(AttributedGraph g, const std::string& file) {
  auto built = Dataset::Build(std::move(g));
  const std::string path = ::testing::TempDir() + "/" + file;
  if (!built.ok() || !built.value()->SaveSnapshot(path).ok()) {
    ADD_FAILURE() << "cannot save " << path;
    return AttributedGraph();
  }
  auto loaded = Dataset::FromSnapshotFile(path);
  if (!loaded.ok()) {
    ADD_FAILURE() << loaded.status().ToString();
    return AttributedGraph();
  }
  return loaded.value()->graph();
}

TEST(VocabularyTest, InternIsIdempotent) {
  AttributedGraphBuilder b;
  KeywordInterner* interner = b.mutable_vocabulary();
  const KeywordId data = interner->Intern("data");
  const KeywordId system = interner->Intern("system");
  EXPECT_NE(data, system);
  EXPECT_EQ(interner->Intern("data"), data);
  EXPECT_EQ(interner->Intern("database"), 2u);  // ids in first-seen order
  EXPECT_EQ(interner->Intern("caf\xC3\xA9"), 3u);
  b.AddVertexWithIds("v", {system, data});
  const AttributedGraph built = b.Build();
  for (const AttributedGraph& g : {built, Reloaded(built, "vocab.snap")}) {
    const Vocabulary& vocab = g.vocabulary();
    ASSERT_EQ(vocab.size(), 4u);
    EXPECT_EQ(vocab.Word(data), "data");
    for (KeywordId kw = 0; kw < vocab.size(); ++kw) {
      EXPECT_EQ(vocab.Find(vocab.Word(kw)), kw) << vocab.Word(kw);
    }
    EXPECT_EQ(vocab.Find("nope"), kInvalidKeyword);
    EXPECT_EQ(vocab.Find("dat"), kInvalidKeyword);  // a prefix of a word
    EXPECT_EQ(vocab.Find(""), kInvalidKeyword);
  }
}

TEST(AttributedGraphTest, KeywordsSortedAndDeduped) {
  AttributedGraphBuilder b;
  VertexId v = b.AddVertex("alice", {"z", "a", "z", "m"});
  AttributedGraph g = b.Build();
  auto kws = g.Keywords(v);
  EXPECT_EQ(kws.size(), 3u);
  EXPECT_TRUE(std::is_sorted(kws.begin(), kws.end()));
}

TEST(AttributedGraphTest, HasKeywordAndHasAll) {
  AttributedGraphBuilder b;
  VertexId v = b.AddVertex("alice", {"x", "y", "z"});
  b.AddVertex("bob", {"x"});
  AttributedGraph g = b.Build();
  KeywordId x = g.vocabulary().Find("x");
  KeywordId y = g.vocabulary().Find("y");
  KeywordId z = g.vocabulary().Find("z");
  EXPECT_TRUE(g.HasKeyword(v, x));
  KeywordList xy{x, y};
  std::sort(xy.begin(), xy.end());
  EXPECT_TRUE(g.HasAllKeywords(v, xy));
  KeywordList xyz{x, y, z};
  std::sort(xyz.begin(), xyz.end());
  EXPECT_TRUE(g.HasAllKeywords(v, xyz));
  EXPECT_FALSE(g.HasAllKeywords(1, xy));
}

TEST(AttributedGraphTest, FindByNameCaseInsensitive) {
  AttributedGraphBuilder b;
  b.AddVertex("Jim Gray", {"data"});
  b.AddVertex("Michael Stonebraker", {"system"});
  // Vertex 2 repeats vertex 0's name in another case, 3 is unnamed, 4 is a
  // prefix of another name, and 6 holds bytes of 0x80 and above, so it
  // sorts after every ASCII name.
  b.AddVertex("JIM GRAY", {"web"});
  b.AddVertex("", {"data"});
  b.AddVertex("Jim", {});
  b.AddVertex("Zoe", {});
  b.AddVertex("\xC3\x89mile", {});
  b.AddVertex("Ana", {});
  const AttributedGraph built = b.Build();
  for (const AttributedGraph& g : {built, Reloaded(built, "names.snap")}) {
    EXPECT_EQ(g.FindByName("jim gray"), 0u);
    EXPECT_EQ(g.FindByName("JIM GRAY"), 0u);
    EXPECT_EQ(g.FindByName("michael stonebraker"), 1u);
    EXPECT_EQ(g.FindByName("nobody"), kInvalidVertex);
    EXPECT_EQ(g.FindByName(""), kInvalidVertex);
    EXPECT_EQ(g.FindByName("JIM"), 4u);
    EXPECT_EQ(g.FindByName("Jim Gra"), kInvalidVertex);
    EXPECT_EQ(g.FindByName("zoe"), 5u);
    EXPECT_EQ(g.FindByName("\xC3\x89MILE"), 6u);
    EXPECT_EQ(g.FindByName("\xC3\xA9mile"), kInvalidVertex);
    EXPECT_EQ(g.FindByName("ana"), 7u);
  }
}

TEST(AttributedGraphTest, EdgeValidation) {
  AttributedGraphBuilder b;
  b.AddVertex("a", {});
  b.AddVertex("b", {});
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  EXPECT_FALSE(b.AddEdge(0, 5).ok());
}

TEST(AttributedGraphTest, KeywordStringsRoundTrip) {
  AttributedGraphBuilder b;
  VertexId v = b.AddVertex("a", {"data", "web"});
  AttributedGraph g = b.Build();
  auto strings = g.KeywordStrings(v);
  std::sort(strings.begin(), strings.end());
  EXPECT_EQ(strings, (std::vector<std::string>{"data", "web"}));
}

// --------------------------------------------------------------------------
// Traversal
// --------------------------------------------------------------------------

TEST(TraversalTest, ConnectedComponentsOfDisconnectedGraph) {
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(3, 4);
  Graph g = b.Build();  // component {0,1,2}, {3,4}, {5}
  auto cc = ConnectedComponents(g);
  EXPECT_EQ(cc.num_components, 3u);
  EXPECT_EQ(cc.label[0], cc.label[1]);
  EXPECT_EQ(cc.label[1], cc.label[2]);
  EXPECT_EQ(cc.label[3], cc.label[4]);
  EXPECT_NE(cc.label[0], cc.label[3]);
  EXPECT_NE(cc.label[0], cc.label[5]);
  EXPECT_EQ(cc.LargestComponentSize(), 3u);
  EXPECT_EQ(cc.ComponentVertices(cc.label[3]), (VertexList{3, 4}));
}

TEST(TraversalTest, ReachableFromRespectsComponents) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  EXPECT_EQ(ReachableFrom(g, 0), (VertexList{0, 1}));
  EXPECT_EQ(ReachableFrom(g, 3), (VertexList{2, 3}));
  EXPECT_EQ(ReachableFrom(g, 4), (VertexList{4}));
}

TEST(TraversalTest, ReachableWithinFiltersVertices) {
  // Path 0-1-2-3; block vertex 1.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  Bitset allowed(4);
  allowed.Set(0);
  allowed.Set(2);
  allowed.Set(3);
  EXPECT_EQ(ReachableWithin(g, 0, allowed), (VertexList{0}));
  EXPECT_EQ(ReachableWithin(g, 2, allowed), (VertexList{2, 3}));
  // Source not allowed -> empty.
  Bitset none(4);
  EXPECT_TRUE(ReachableWithin(g, 0, none).empty());
}

TEST(TraversalTest, BfsDistances) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 2u);
  EXPECT_EQ(dist[3], 3u);
  EXPECT_EQ(dist[4], std::numeric_limits<std::uint32_t>::max());
}

TEST(TraversalTest, DoubleSweepFindsPathDiameter) {
  GraphBuilder b;
  for (VertexId v = 0; v + 1 < 10; ++v) b.AddEdge(v, v + 1);
  Graph g = b.Build();
  EXPECT_EQ(DoubleSweepDiameter(g, 5), 9u);
}

// --------------------------------------------------------------------------
// Subgraph
// --------------------------------------------------------------------------

TEST(SubgraphTest, InducedSubgraphKeepsInternalEdges) {
  Graph g = KarateClub();
  VertexList members{0, 1, 2, 3};
  Subgraph sub = InducedSubgraph(g, members);
  EXPECT_EQ(sub.num_vertices(), 4u);
  // 0-1,0-2,0-3,1-2,1-3,2-3 all exist in karate.
  EXPECT_EQ(sub.graph.num_edges(), 6u);
  EXPECT_EQ(sub.ToLocal(0), 0u);
  EXPECT_EQ(sub.ToLocal(3), 3u);
  EXPECT_EQ(sub.ToLocal(10), kInvalidVertex);
}

TEST(SubgraphTest, HandlesUnsortedDuplicates) {
  Graph g = Triangle();
  Subgraph sub = InducedSubgraph(g, {2, 0, 2});
  EXPECT_EQ(sub.num_vertices(), 2u);
  EXPECT_EQ(sub.graph.num_edges(), 1u);
  EXPECT_EQ(sub.to_parent, (VertexList{0, 2}));
}

TEST(SubgraphTest, CountInducedEdgesMatchesMaterialized) {
  Graph g = KarateClub();
  VertexList members{0, 1, 2, 3, 7, 13, 33};
  EXPECT_EQ(CountInducedEdges(g, members),
            InducedSubgraph(g, members).graph.num_edges());
}

TEST(SubgraphTest, InducedDegreesMatchSubgraph) {
  Graph g = KarateClub();
  VertexList members{0, 1, 2, 3, 7};
  auto degrees = InducedDegrees(g, &members);
  Subgraph sub = InducedSubgraph(g, members);
  ASSERT_EQ(degrees.size(), sub.num_vertices());
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    EXPECT_EQ(degrees[i], sub.graph.Degree(static_cast<VertexId>(i)));
  }
}

// --------------------------------------------------------------------------
// IO
// --------------------------------------------------------------------------

TEST(IoTest, EdgeListParseBasics) {
  auto g = ParseEdgeList("# comment\n0 1\n1 2\n\n2 0\n");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 3u);
  EXPECT_EQ(g->num_edges(), 3u);
}

TEST(IoTest, EdgeListRejectsBadLines) {
  EXPECT_FALSE(ParseEdgeList("0 1 2\n").ok());
  EXPECT_FALSE(ParseEdgeList("a b\n").ok());
  EXPECT_FALSE(ParseEdgeList("-1 2\n").ok());
  // Ids at or above 2^32 - 1 would wrap in the cast to VertexId.
  EXPECT_FALSE(ParseEdgeList("4294967297 2\n").ok());
  EXPECT_FALSE(ParseEdgeList("0 4294967295\n").ok());
  EXPECT_FALSE(ParseEdgeList("9000000000000000000 1\n").ok());
}

TEST(IoTest, EdgeListRoundTrip) {
  Graph g = KarateClub();
  auto parsed = ParseEdgeList(ToEdgeList(g));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vertices(), g.num_vertices());
  EXPECT_EQ(parsed->Edges(), g.Edges());
}

TEST(IoTest, EdgeListFileRoundTrip) {
  Graph g = Triangle();
  const std::string path = ::testing::TempDir() + "/triangle.edges";
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->Edges(), g.Edges());
}

TEST(IoTest, LoadMissingFileFails) {
  EXPECT_EQ(LoadEdgeList("/nonexistent/x.edges").status().code(),
            StatusCode::kIoError);
  EXPECT_EQ(LoadAttributed("/nonexistent/x.attr").status().code(),
            StatusCode::kIoError);
}

TEST(IoTest, AttributedRoundTrip) {
  AttributedGraph g = Figure5Graph();
  auto parsed = ParseAttributed(ToAttributedText(g));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_vertices(), g.num_vertices());
  EXPECT_EQ(parsed->graph().Edges(), g.graph().Edges());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(parsed->Name(v), g.Name(v));
    EXPECT_EQ(parsed->KeywordStrings(v), g.KeywordStrings(v));
  }
}

TEST(IoTest, AttributedRejectsMalformed) {
  EXPECT_FALSE(ParseAttributed("x\t0\ta\n").ok());             // bad record
  EXPECT_FALSE(ParseAttributed("v\t0\ta\nv\t0\tb\n").ok());    // dup id
  EXPECT_FALSE(ParseAttributed("v\t1\ta\n").ok());             // gap (no 0)
  EXPECT_FALSE(ParseAttributed("v\t0\ta\ne\t0\t9\n").ok());    // bad endpoint
  EXPECT_FALSE(ParseAttributed("e\t0\n").ok());                // short edge
  // Out-of-range ids: an endpoint that would wrap to vertex 1, and
  // declared ids past the record count (the table is never sized by them).
  EXPECT_FALSE(
      ParseAttributed("v\t0\ta\nv\t1\tb\nv\t2\tc\ne\t4294967297\t2\n").ok());
  EXPECT_FALSE(ParseAttributed("v\t9000000000000000000\tb\n").ok());
  EXPECT_FALSE(ParseAttributed("v\t0\ta\nv\t4294967294\tb\n").ok());
  EXPECT_FALSE(ParseAttributed("v\t4294967295\ta\n").ok());
  // Dense ids in any order still parse.
  auto shuffled = ParseAttributed("v\t1\tb\nv\t0\ta\ne\t0\t1\n");
  ASSERT_TRUE(shuffled.ok());
  EXPECT_EQ(shuffled->Name(0), "a");
  EXPECT_EQ(shuffled->Name(1), "b");
}

TEST(IoTest, AttributedFileRoundTrip) {
  AttributedGraph g = Figure5Graph();
  const std::string path = ::testing::TempDir() + "/fig5.attr";
  ASSERT_TRUE(SaveAttributed(g, path).ok());
  auto loaded = LoadAttributed(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_vertices(), g.num_vertices());
}

// --------------------------------------------------------------------------
// Fixtures
// --------------------------------------------------------------------------

TEST(FixturesTest, KarateClubShape) {
  Graph g = KarateClub();
  EXPECT_EQ(g.num_vertices(), 34u);
  EXPECT_EQ(g.num_edges(), 78u);
  // The two hubs have the highest degrees (16 and 17).
  EXPECT_EQ(g.Degree(kKarateInstructor), 16u);
  EXPECT_EQ(g.Degree(kKaratePresident), 17u);
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
}

TEST(FixturesTest, Figure5GraphShape) {
  AttributedGraph g = Figure5Graph();
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.graph().num_edges(), 11u);
  EXPECT_EQ(g.FindByName("A"), 0u);
  EXPECT_EQ(g.FindByName("J"), 9u);
  // A has keywords {w, x, y}.
  EXPECT_EQ(g.Keywords(0).size(), 3u);
  // J is isolated.
  EXPECT_EQ(g.graph().Degree(9), 0u);
}

}  // namespace
}  // namespace cexplorer
