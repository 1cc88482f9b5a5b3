// Tests for the extension features: Girvan-Newman detection, SVG export,
// display zoom, and the query-form/export server endpoints.

#include <gtest/gtest.h>

#include <algorithm>

#include "algos/girvan_newman.h"
#include "common/json.h"
#include "data/planted.h"
#include "explorer/explorer.h"
#include "graph/fixtures.h"
#include "layout/svg.h"
#include "server/server.h"

namespace cexplorer {
namespace {

// --------------------------------------------------------------------------
// Edge betweenness
// --------------------------------------------------------------------------

TEST(EdgeBetweennessTest, BridgeCarriesAllPairs) {
  // Two triangles joined by a bridge: the bridge carries 3x3=9 pairs.
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);  // bridge
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(3, 5);
  Graph g = b.Build();
  auto bet = EdgeBetweenness(g);
  auto edges = g.Edges();
  std::size_t bridge = 0;
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (edges[e] == std::make_pair<VertexId, VertexId>(2, 3)) {
      bridge = e;
    }
  }
  // The bridge has the strictly largest betweenness, and carries exactly
  // the 9 cross pairs.
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (e != bridge) {
      EXPECT_LT(bet[e], bet[bridge]);
    }
  }
  EXPECT_NEAR(bet[bridge], 9.0, 1e-9);
}

TEST(EdgeBetweennessTest, PathEdgesOrdered) {
  // On a path, the middle edge carries the most shortest paths.
  GraphBuilder b;
  for (VertexId v = 0; v + 1 < 7; ++v) b.AddEdge(v, v + 1);
  Graph g = b.Build();
  auto bet = EdgeBetweenness(g);
  // Edge (3,4) is central-ish; compare with the first edge.
  EXPECT_GT(bet[3], bet[0]);
}

TEST(EdgeBetweennessTest, SymmetricStarUniform) {
  GraphBuilder b;
  for (VertexId leaf = 1; leaf <= 5; ++leaf) b.AddEdge(0, leaf);
  auto bet = EdgeBetweenness(b.Build());
  for (double x : bet) EXPECT_NEAR(x, bet[0], 1e-9);
}

// --------------------------------------------------------------------------
// Girvan-Newman
// --------------------------------------------------------------------------

TEST(GirvanNewmanTest, SplitsTwoTriangles) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  b.AddEdge(2, 3);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(3, 5);
  GirvanNewmanResult result = GirvanNewman(b.Build());
  EXPECT_EQ(result.clustering.num_clusters, 2u);
  EXPECT_EQ(result.clustering.assignment[0], result.clustering.assignment[1]);
  EXPECT_EQ(result.clustering.assignment[0], result.clustering.assignment[2]);
  EXPECT_EQ(result.clustering.assignment[3], result.clustering.assignment[4]);
  EXPECT_NE(result.clustering.assignment[0], result.clustering.assignment[3]);
  EXPECT_GT(result.modularity, 0.2);
}

TEST(GirvanNewmanTest, KarateRecoversFactionsApproximately) {
  Graph g = KarateClub();
  GirvanNewmanOptions options;
  options.target_communities = 2;
  GirvanNewmanResult result = GirvanNewman(g, options);
  EXPECT_EQ(result.clustering.num_clusters, 2u);
  // The two hubs must land in different communities.
  EXPECT_NE(result.clustering.assignment[kKarateInstructor],
            result.clustering.assignment[kKaratePresident]);
  EXPECT_GT(result.modularity, 0.3);
}

TEST(GirvanNewmanTest, ModularityOptimalAtLeastTargeted) {
  Graph g = KarateClub();
  GirvanNewmanResult best = GirvanNewman(g);
  GirvanNewmanOptions two;
  two.target_communities = 2;
  GirvanNewmanResult targeted = GirvanNewman(g, two);
  EXPECT_GE(best.modularity, targeted.modularity - 1e-9);
  EXPECT_GE(best.clustering.num_clusters, 2u);
}

TEST(GirvanNewmanTest, MaxRemovalsCapRespected) {
  Graph g = KarateClub();
  GirvanNewmanOptions options;
  options.max_removals = 3;
  GirvanNewmanResult result = GirvanNewman(g, options);
  EXPECT_LE(result.edges_removed, 3u);
}

TEST(GirvanNewmanTest, EmptyAndEdgelessGraphs) {
  Graph empty;
  EXPECT_EQ(GirvanNewman(empty).clustering.num_clusters, 0u);
  GraphBuilder b;
  b.EnsureVertices(3);
  GirvanNewmanResult result = GirvanNewman(b.Build());
  EXPECT_EQ(result.clustering.num_clusters, 3u);
}

TEST(GirvanNewmanDetectTest, RegisteredWithSizeGuard) {
  Explorer explorer;
  PlantedOptions po;
  po.num_vertices = 120;
  po.num_communities = 4;
  PlantedGraph planted = GeneratePlanted(po);
  ASSERT_TRUE(explorer.UploadGraph(std::move(planted.graph)).ok());
  auto clustering = explorer.Detect("GirvanNewman");
  ASSERT_TRUE(clustering.ok()) << clustering.status();
  EXPECT_GT(clustering->num_clusters, 1u);

  auto louvain = explorer.Detect("Louvain");
  ASSERT_TRUE(louvain.ok());
  auto lp = explorer.Detect("LabelProp");
  ASSERT_TRUE(lp.ok());
}

// --------------------------------------------------------------------------
// SVG export
// --------------------------------------------------------------------------

TEST(SvgTest, WellFormedDocument) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  Layout layout = CircleLayout(3);
  std::string svg = RenderCommunitySvg(g, layout, {"a", "b", "c"});
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  // 2 edges, 3 circles, 3 labels.
  std::size_t lines = 0;
  std::size_t circles = 0;
  for (std::size_t pos = 0; (pos = svg.find("<line", pos)) != std::string::npos;
       ++pos) {
    ++lines;
  }
  for (std::size_t pos = 0;
       (pos = svg.find("<circle", pos)) != std::string::npos; ++pos) {
    ++circles;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_EQ(circles, 3u);
  EXPECT_NE(svg.find(">a</text>"), std::string::npos);
}

TEST(SvgTest, EscapesXmlSpecials) {
  GraphBuilder b;
  b.EnsureVertices(1);
  Graph g = b.Build();
  std::string svg =
      RenderCommunitySvg(g, CircleLayout(1), {"a<b>&\"c'"});
  EXPECT_EQ(svg.find("<b>"), std::string::npos);
  EXPECT_NE(svg.find("a&lt;b&gt;&amp;&quot;c&apos;"), std::string::npos);
}

TEST(SvgTest, HighlightedVertexLarger) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  Graph g = b.Build();
  SvgOptions options;
  options.highlight = 0;
  std::string svg = RenderCommunitySvg(g, CircleLayout(2), {}, options);
  EXPECT_NE(svg.find("#e63946"), std::string::npos);  // highlight colour
}

TEST(SvgTest, MismatchedLayoutGivesEmptyDocument) {
  GraphBuilder b;
  b.AddEdge(0, 1);
  std::string svg = RenderCommunitySvg(b.Build(), Layout{}, {});
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_EQ(svg.find("<circle"), std::string::npos);
}

TEST(ExplorerSvgTest, ExportHighlightsQueryVertex) {
  Explorer explorer;
  ASSERT_TRUE(explorer.UploadGraph(Figure5Graph()).ok());
  Community community;
  community.vertices = {0, 2, 3};
  auto svg = explorer.ExportSvg(community, 0);
  ASSERT_TRUE(svg.ok());
  EXPECT_NE(svg->find("#e63946"), std::string::npos);
  EXPECT_NE(svg->find(">A</text>"), std::string::npos);
  // Invalid community rejected.
  community.vertices = {0, 99};
  EXPECT_FALSE(explorer.ExportSvg(community).ok());
}

// --------------------------------------------------------------------------
// Display zoom
// --------------------------------------------------------------------------

TEST(DisplayZoomTest, ZoomInClipsBorderVertices) {
  Explorer explorer;
  ASSERT_TRUE(explorer.UploadGraph(Figure5Graph()).ok());
  Community community;
  community.vertices = {0, 1, 2, 3, 4, 5, 6};

  DisplayOptions normal;
  auto base = explorer.Display(community, normal);
  ASSERT_TRUE(base.ok());

  DisplayOptions zoomed;
  zoomed.zoom = 3.0;
  auto zoom = explorer.Display(community, zoomed);
  ASSERT_TRUE(zoom.ok());
  // Same layout topology, scaled: the rendering differs.
  EXPECT_NE(base->ascii, zoom->ascii);
  // Layout coordinates scale by 3 about the centroid.
  double base_span = 0.0;
  double zoom_span = 0.0;
  for (std::size_t i = 0; i < base->layout.size(); ++i) {
    for (std::size_t j = i + 1; j < base->layout.size(); ++j) {
      base_span = std::max(base_span,
                           std::abs(base->layout[i].x - base->layout[j].x));
      zoom_span = std::max(zoom_span,
                           std::abs(zoom->layout[i].x - zoom->layout[j].x));
    }
  }
  EXPECT_NEAR(zoom_span, 3.0 * base_span, 1e-6);
}

TEST(DisplayZoomTest, InvalidZoomRejected) {
  Explorer explorer;
  ASSERT_TRUE(explorer.UploadGraph(Figure5Graph()).ok());
  Community community;
  community.vertices = {0, 1};
  DisplayOptions options;
  options.zoom = 0.0;
  EXPECT_EQ(explorer.Display(community, options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DisplayZoomTest, CustomViewportSize) {
  Explorer explorer;
  ASSERT_TRUE(explorer.UploadGraph(Figure5Graph()).ok());
  Community community;
  community.vertices = {0, 1, 2};
  DisplayOptions options;
  options.cols = 40;
  options.rows = 10;
  auto display = explorer.Display(community, options);
  ASSERT_TRUE(display.ok());
  // 10 rows of 40 chars + newlines.
  EXPECT_EQ(display->ascii.size(), 10u * 41u);
}

// --------------------------------------------------------------------------
// New server endpoints
// --------------------------------------------------------------------------

class EndpointFixture : public ::testing::Test {
 protected:
  EndpointFixture() {
    EXPECT_TRUE(server_.UploadGraph(Figure5Graph()).ok());
  }
  CExplorerServer server_;
};

TEST_F(EndpointFixture, AuthorFormPopulation) {
  HttpResponse r = server_.Handle("GET /v1/author?name=a");
  ASSERT_EQ(r.code, 200) << r.body;
  auto v = JsonValue::Parse(r.body);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("name").AsString(), "A");
  // A has core number 3: degree constraints 1..3.
  EXPECT_EQ(v->Get("degree_constraints").Items().size(), 3u);
  EXPECT_EQ(v->Get("keywords").Items().size(), 3u);
  EXPECT_EQ(server_.Handle("GET /v1/author?name=zzz").code, 404);
  EXPECT_EQ(server_.Handle("GET /v1/author").code, 400);
}

TEST_F(EndpointFixture, ExportSvgEndpoint) {
  ASSERT_EQ(server_.Handle("GET /v1/search?name=a&k=2&keywords=x,y").code,
            200);
  HttpResponse r = server_.Handle("GET /v1/export?id=0");
  ASSERT_EQ(r.code, 200);
  EXPECT_NE(r.body.find("<svg"), std::string::npos);
  EXPECT_EQ(server_.Handle("GET /v1/export?id=9").code, 404);
}

}  // namespace
}  // namespace cexplorer
