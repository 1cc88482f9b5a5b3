// Tests for the classic random-graph generators and the /detect and
// /cluster server endpoints.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/json.h"
#include "core/kcore.h"
#include "data/planted.h"
#include "graph/generators.h"
#include "graph/traversal.h"
#include "server/server.h"

namespace cexplorer {
namespace {

// --------------------------------------------------------------------------
// Erdos-Renyi
// --------------------------------------------------------------------------

TEST(ErdosRenyiTest, SizeAndDeterminism) {
  Graph a = ErdosRenyi(500, 1500, 11);
  Graph b = ErdosRenyi(500, 1500, 11);
  EXPECT_EQ(a.num_vertices(), 500u);
  // Some duplicate draws collapse; the realized count is close to m.
  EXPECT_GT(a.num_edges(), 1400u);
  EXPECT_LE(a.num_edges(), 1500u);
  EXPECT_EQ(a.Edges(), b.Edges());
  EXPECT_NE(a.Edges(), ErdosRenyi(500, 1500, 12).Edges());
}

TEST(ErdosRenyiTest, DegeneratesGracefully) {
  EXPECT_EQ(ErdosRenyi(0, 10, 1).num_vertices(), 0u);
  EXPECT_EQ(ErdosRenyi(1, 10, 1).num_edges(), 0u);
}

TEST(ErdosRenyiTest, NearUniformDegrees) {
  Graph g = ErdosRenyi(2000, 10000, 5);
  // Poisson-ish degrees: the maximum should not be a hub.
  EXPECT_LT(static_cast<double>(g.MaxDegree()), 4.0 * g.AverageDegree());
}

// --------------------------------------------------------------------------
// Barabasi-Albert
// --------------------------------------------------------------------------

TEST(BarabasiAlbertTest, SizeAndConnectivity) {
  Graph g = BarabasiAlbert(1000, 3, 21);
  EXPECT_EQ(g.num_vertices(), 1000u);
  // Each non-seed vertex contributes ~3 edges.
  EXPECT_GT(g.num_edges(), 2800u);
  EXPECT_EQ(ConnectedComponents(g).num_components, 1u);
}

TEST(BarabasiAlbertTest, HeavyTailedDegrees) {
  Graph g = BarabasiAlbert(2000, 3, 23);
  EXPECT_GT(static_cast<double>(g.MaxDegree()), 6.0 * g.AverageDegree());
}

TEST(BarabasiAlbertTest, Deterministic) {
  EXPECT_EQ(BarabasiAlbert(300, 2, 3).Edges(),
            BarabasiAlbert(300, 2, 3).Edges());
}

TEST(BarabasiAlbertTest, TinyGraphs) {
  EXPECT_EQ(BarabasiAlbert(0, 3, 1).num_vertices(), 0u);
  Graph g = BarabasiAlbert(2, 3, 1);  // seed clique truncated to n
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

// --------------------------------------------------------------------------
// Watts-Strogatz
// --------------------------------------------------------------------------

TEST(WattsStrogatzTest, LatticeWhenNoRewiring) {
  Graph g = WattsStrogatz(100, 4, 0.0, 7);
  EXPECT_EQ(g.num_vertices(), 100u);
  EXPECT_EQ(g.num_edges(), 200u);  // n * k/2
  for (VertexId v = 0; v < 100; ++v) EXPECT_EQ(g.Degree(v), 4u);
  // Ring neighbours present.
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(0, 2));
  EXPECT_TRUE(g.HasEdge(0, 99));
}

TEST(WattsStrogatzTest, RewiringShrinksDiameter) {
  Graph lattice = WattsStrogatz(400, 4, 0.0, 9);
  Graph small_world = WattsStrogatz(400, 4, 0.2, 9);
  EXPECT_GT(DoubleSweepDiameter(lattice, 0),
            DoubleSweepDiameter(small_world, 0));
}

TEST(WattsStrogatzTest, FullRewireKeepsDegreeSum) {
  Graph g = WattsStrogatz(200, 6, 1.0, 13);
  // Rewiring never loses edge slots (only duplicate collapses can).
  EXPECT_GT(g.num_edges(), 500u);
  EXPECT_LE(g.num_edges(), 600u);
}

// --------------------------------------------------------------------------
// Cores of generated graphs (cross-module sanity)
// --------------------------------------------------------------------------

TEST(GeneratorCoreTest, BarabasiAlbertCoreEqualsAttachment) {
  // In a BA graph with m = 3, the 3-core is (almost) everything: every
  // late vertex arrives with degree 3.
  Graph g = BarabasiAlbert(500, 3, 31);
  auto core = CoreDecomposition(g);
  std::size_t in_3core = KCoreVertices(core, 3).size();
  EXPECT_GT(in_3core, 450u);
}

// --------------------------------------------------------------------------
// /detect and /cluster endpoints
// --------------------------------------------------------------------------

class DetectFixture : public ::testing::Test {
 protected:
  DetectFixture() {
    PlantedOptions po;
    po.num_vertices = 300;
    po.num_communities = 6;
    PlantedGraph planted = GeneratePlanted(po);
    EXPECT_TRUE(server_.UploadGraph(std::move(planted.graph)).ok());
  }
  CExplorerServer server_;
};

TEST_F(DetectFixture, DetectSummarizesClustering) {
  HttpResponse r = server_.Handle("GET /v1/detect?algo=Louvain");
  ASSERT_EQ(r.code, 200) << r.body;
  auto v = JsonValue::Parse(r.body);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("algorithm").AsString(), "Louvain");
  EXPECT_GT(v->Get("num_clusters").AsInt(), 1);
  EXPECT_GT(v->Get("modularity").AsDouble(), 0.1);
  EXPECT_TRUE(v->Has("size_histogram"));
}

TEST_F(DetectFixture, ClusterViewAfterDetect) {
  ASSERT_EQ(server_.Handle("GET /v1/detect?algo=Louvain").code, 200);
  HttpResponse r = server_.Handle("GET /v1/cluster?id=0");
  ASSERT_EQ(r.code, 200) << r.body;
  auto v = JsonValue::Parse(r.body);
  ASSERT_TRUE(v.ok());
  EXPECT_GE(v->Get("community").Get("size").AsInt(), 1);
  EXPECT_GT(v->Get("stats").Get("vertices").AsInt(), 0);
}

TEST_F(DetectFixture, ClusterErrors) {
  // No detection yet.
  EXPECT_EQ(server_.Handle("GET /v1/cluster?id=0").code, 404);
  ASSERT_EQ(server_.Handle("GET /v1/detect?algo=Louvain").code, 200);
  EXPECT_EQ(server_.Handle("GET /v1/cluster?id=99999").code, 404);
}

TEST_F(DetectFixture, DetectErrors) {
  EXPECT_EQ(server_.Handle("GET /v1/detect?algo=Bogus").code, 404);
  CExplorerServer empty;
  EXPECT_EQ(empty.Handle("GET /v1/detect").code, 409);
}

TEST_F(DetectFixture, DetectRecordedInHistory) {
  ASSERT_EQ(server_.Handle("GET /v1/detect?algo=Louvain").code, 200);
  HttpResponse r = server_.Handle("GET /v1/history");
  auto v = JsonValue::Parse(r.body);
  ASSERT_TRUE(v.ok());
  ASSERT_EQ(v->Get("history").Items().size(), 1u);
  EXPECT_EQ(v->Get("history").Items()[0].AsString(), "detect:Louvain");
}

}  // namespace
}  // namespace cexplorer
