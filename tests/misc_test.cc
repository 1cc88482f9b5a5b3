// Coverage for corners not exercised elsewhere: Timer, deep/degenerate
// JSON, Local's tuning knobs, CL-tree behaviour at k=0 and on the root,
// URL codec edge cases, and memory accounting monotonicity.

#include <gtest/gtest.h>

#include <algorithm>

#include "algos/local.h"
#include "cltree/cltree.h"
#include "common/json.h"
#include "common/timer.h"
#include "core/kcore.h"
#include "graph/fixtures.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "server/http.h"

namespace cexplorer {
namespace {

// --------------------------------------------------------------------------
// Timer
// --------------------------------------------------------------------------

TEST(TimerTest, MonotoneNonNegative) {
  Timer timer;
  double t1 = timer.ElapsedSeconds();
  EXPECT_GE(t1, 0.0);
  // Burn a little CPU.
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  double t2 = timer.ElapsedSeconds();
  EXPECT_GE(t2, t1);
}

TEST(TimerTest, RestartResets) {
  Timer timer;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  double before = timer.ElapsedMicros();
  timer.Restart();
  EXPECT_LT(timer.ElapsedMicros(), before + 1e5);
}

TEST(TimerTest, UnitConversionsConsistent) {
  Timer timer;
  double s = timer.ElapsedSeconds();
  double ms = timer.ElapsedMillis();
  // ms read slightly later, so it is at least s * 1e3.
  EXPECT_GE(ms, s * 1e3 - 1e-6);
}

// --------------------------------------------------------------------------
// JSON corners
// --------------------------------------------------------------------------

TEST(JsonCornerTest, DeepNesting) {
  std::string doc;
  const int depth = 64;
  for (int i = 0; i < depth; ++i) doc += "[";
  doc += "1";
  for (int i = 0; i < depth; ++i) doc += "]";
  auto v = JsonValue::Parse(doc);
  ASSERT_TRUE(v.ok());
  const JsonValue* cursor = &v.value();
  for (int i = 0; i < depth; ++i) {
    ASSERT_EQ(cursor->Items().size(), 1u);
    cursor = &cursor->Items()[0];
  }
  EXPECT_EQ(cursor->AsInt(), 1);
}

TEST(JsonCornerTest, NestingPastTheLimitIsRejected) {
  // 64 levels parse (DeepNesting above, and objects here); one more is a
  // ParseError, and so is hostile depth, which must not blow the stack.
  auto nested_objects = [](int depth) {
    std::string doc;
    for (int i = 0; i < depth; ++i) doc += "{\"a\":";
    doc += "1";
    for (int i = 0; i < depth; ++i) doc += "}";
    return doc;
  };
  EXPECT_TRUE(JsonValue::Parse(nested_objects(64)).ok());
  const std::string too_deep[] = {
      std::string(65, '[') + "1" + std::string(65, ']'),
      nested_objects(65),
      "{\"a\":" + std::string(64, '[') + "]" + std::string(63, ']') + "}",
      std::string(100000, '['),
  };
  for (const std::string& doc : too_deep) {
    EXPECT_EQ(JsonValue::Parse(doc).status().code(), StatusCode::kParseError)
        << doc.substr(0, 80);
  }
}

TEST(JsonCornerTest, UnicodeEscapes) {
  auto v = JsonValue::Parse(R"("Aé中")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "A\xC3\xA9\xE4\xB8\xAD");  // A, é, 中 in UTF-8
}

TEST(JsonCornerTest, SurrogatePairDecodesToOneCodePoint) {
  auto v = JsonValue::Parse(R"("\ud83d\ude00")");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->AsString(), "\xF0\x9F\x98\x80");  // U+1F600, not CESU-8
  auto mixed = JsonValue::Parse(R"("a\uD83D\uDE00 \udbff\udfff")");
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  EXPECT_EQ(mixed->AsString(), "a\xF0\x9F\x98\x80 \xF4\x8F\xBF\xBF");
}

TEST(JsonCornerTest, LoneSurrogatesRejected) {
  for (const char* doc :
       {R"("\ud83d")", R"("\ude00")", R"("\ud83dx")", R"("\ud83dA")",
        R"("\ud83d\u0041")", R"("\ude00\ud83d")", R"("\ud83d\n")"}) {
    EXPECT_FALSE(JsonValue::Parse(doc).ok()) << doc;
  }
}

TEST(JsonCornerTest, BmpEscapesUnchanged) {
  auto v = JsonValue::Parse(R"("\u0041\u00e9\u4e2d\u007f\ud7ff\ue000\uffff")");
  ASSERT_TRUE(v.ok()) << v.status();
  EXPECT_EQ(v->AsString(),
            "A\xC3\xA9\xE4\xB8\xAD\x7F\xED\x9F\xBF\xEE\x80\x80\xEF\xBF\xBF");
}

TEST(JsonCornerTest, NumbersRoundTrip) {
  for (const char* doc : {"0", "-0.5", "1e10", "2.25", "-3"}) {
    auto v = JsonValue::Parse(doc);
    ASSERT_TRUE(v.ok()) << doc;
    auto again = JsonValue::Parse(v->Dump());
    ASSERT_TRUE(again.ok()) << doc;
    EXPECT_DOUBLE_EQ(v->AsDouble(), again->AsDouble()) << doc;
  }
}

TEST(JsonCornerTest, EmptyContainers) {
  EXPECT_EQ(JsonValue::Parse("{}")->Dump(), "{}");
  EXPECT_EQ(JsonValue::Parse("[]")->Dump(), "[]");
  EXPECT_EQ(JsonValue::Parse(" [ ] ")->Dump(), "[]");
}

TEST(JsonCornerTest, TypeMismatchFallbacks) {
  auto v = JsonValue::Parse(R"({"s":"x"})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("s").AsInt(42), 42);
  EXPECT_EQ(v->Get("s").AsBool(true), true);
  EXPECT_TRUE(v->Get("s").Items().empty());
  EXPECT_EQ(v->AsString(), "");  // object, not string
  // A number with no int64 value reads as the fallback; others truncate.
  EXPECT_EQ(JsonValue::Parse("1e30")->AsInt(42), 42);
  EXPECT_EQ(JsonValue::Parse("-1e300")->AsInt(42), 42);
  EXPECT_EQ(JsonValue::Parse("-4.9")->AsInt(42), -4);
}

// --------------------------------------------------------------------------
// Local options
// --------------------------------------------------------------------------

TEST(LocalOptionsTest, GrowthFactorControlsPeelCadence) {
  Graph g = BarabasiAlbert(2000, 4, 17);
  LocalOptions eager;
  eager.test_growth_factor = 1.01;  // test almost every step
  LocalOptions lazy;
  lazy.test_growth_factor = 3.0;  // test rarely
  LocalResult r_eager = LocalSearch(g, 0, 3, eager);
  LocalResult r_lazy = LocalSearch(g, 0, 3, lazy);
  ASSERT_FALSE(r_eager.vertices.empty());
  ASSERT_FALSE(r_lazy.vertices.empty());
  EXPECT_GE(r_eager.peel_tests, r_lazy.peel_tests);
  // Both results are valid k-cores containing q.
  for (const auto& r : {r_eager, r_lazy}) {
    EXPECT_TRUE(std::binary_search(r.vertices.begin(), r.vertices.end(), 0u));
  }
}

TEST(LocalOptionsTest, EagerTestingFindsSmallerCommunity) {
  // More frequent testing can only stop earlier (smaller or equal result).
  Graph g = BarabasiAlbert(2000, 4, 19);
  LocalOptions eager;
  eager.test_growth_factor = 1.01;
  LocalOptions lazy;
  lazy.test_growth_factor = 4.0;
  LocalResult r_eager = LocalSearch(g, 5, 3, eager);
  LocalResult r_lazy = LocalSearch(g, 5, 3, lazy);
  if (!r_eager.vertices.empty() && !r_lazy.vertices.empty()) {
    EXPECT_LE(r_eager.candidates_explored, r_lazy.candidates_explored);
  }
}

// --------------------------------------------------------------------------
// CL-tree at the boundaries
// --------------------------------------------------------------------------

TEST(ClTreeBoundaryTest, LocateAtKZeroReturnsRootRegion) {
  AttributedGraph g = Figure5Graph();
  ClTree tree = ClTree::Build(g);
  // k=0 climbs to the root: the subtree is the entire graph. (The ACQ
  // engine then peels to the anchored component, so queries stay correct.)
  ClNodeId node = tree.LocateKCore(0, 0);
  ASSERT_NE(node, kInvalidClNode);
  EXPECT_EQ(node, tree.root());
  EXPECT_EQ(tree.SubtreeVertices(node).size(), g.num_vertices());
}

TEST(ClTreeBoundaryTest, SingleVertexGraph) {
  AttributedGraphBuilder b;
  b.AddVertex("solo", {"x"});
  AttributedGraph g = b.Build();
  ClTree tree = ClTree::Build(g);
  ASSERT_EQ(tree.num_nodes(), 1u);
  EXPECT_EQ(tree.node(0).core, 0u);
  EXPECT_EQ(tree.NodeOf(0), 0u);
  EXPECT_EQ(tree.CountKeyword(0, g.vocabulary().Find("x")), 1u);
}

TEST(ClTreeBoundaryTest, CompleteGraphSingleChain) {
  // K6: every vertex has core 5; tree = root(0) -> node(5).
  AttributedGraphBuilder b;
  for (int v = 0; v < 6; ++v) {
    b.AddVertex(std::string(1, static_cast<char>('a' + v)), {});
  }
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) (void)b.AddEdge(u, v);
  }
  AttributedGraph g = b.Build();
  ClTree tree = ClTree::Build(g);
  ASSERT_EQ(tree.num_nodes(), 2u);
  EXPECT_EQ(tree.node(0).core, 0u);
  EXPECT_TRUE(tree.node(0).vertices.empty());
  EXPECT_EQ(tree.node(1).core, 5u);
  EXPECT_EQ(tree.node(1).vertices.size(), 6u);
  // Compression: the node answers every k in 1..5.
  for (std::uint32_t k = 1; k <= 5; ++k) {
    EXPECT_EQ(tree.LocateKCore(0, k), 1u) << "k=" << k;
  }
  EXPECT_EQ(tree.LocateKCore(0, 6), kInvalidClNode);
}

// --------------------------------------------------------------------------
// URL codec corners
// --------------------------------------------------------------------------

TEST(UrlCodecCornerTest, EncodeSpecials) {
  EXPECT_EQ(UrlEncode("a b"), "a+b");
  EXPECT_EQ(UrlEncode("a&b=c"), "a%26b%3Dc");
  EXPECT_EQ(UrlEncode("~safe-chars_.x"), "~safe-chars_.x");
  EXPECT_EQ(UrlEncode(""), "");
}

TEST(UrlCodecCornerTest, DecodeMixedCaseHex) {
  EXPECT_EQ(UrlDecode("%2f%2F"), "//");
  EXPECT_EQ(UrlDecode("%C3%A9"), "\xC3\xA9");
}

TEST(UrlCodecCornerTest, RoundTripBinaryish) {
  std::string original;
  for (int c = 1; c < 128; ++c) original += static_cast<char>(c);
  EXPECT_EQ(UrlDecode(UrlEncode(original)), original);
}

// --------------------------------------------------------------------------
// Memory accounting
// --------------------------------------------------------------------------

TEST(MemoryAccountingTest, GraphBytesGrowWithEdges) {
  Graph small = ErdosRenyi(100, 200, 1);
  Graph large = ErdosRenyi(100, 2000, 1);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
}

TEST(MemoryAccountingTest, TreeBytesIncludePostings) {
  // More keywords per vertex -> bigger inverted lists -> more bytes.
  auto build = [](std::size_t kws_per_vertex) {
    AttributedGraphBuilder b;
    for (VertexId v = 0; v < 200; ++v) {
      std::vector<KeywordId> kws;
      for (std::size_t i = 0; i < kws_per_vertex; ++i) {
        kws.push_back(static_cast<KeywordId>(
            b.mutable_vocabulary()->Intern(std::to_string(i))));
      }
      std::string name = "v";
      name += std::to_string(v);
      b.AddVertexWithIds(std::move(name), std::move(kws));
    }
    for (VertexId v = 0; v + 1 < 200; ++v) (void)b.AddEdge(v, v + 1);
    AttributedGraph g = b.Build();
    return ClTree::Build(g).MemoryBytes();
  };
  EXPECT_GT(build(16), build(2));
}

}  // namespace
}  // namespace cexplorer
