// Robustness property sweeps: every parser in the system (JSON, edge list,
// attributed graph, HTTP requests and their bodies) must either succeed
// or return a clean error on randomly mutated input — never crash, hang,
// or corrupt state. Plus tests for the distance-bounded Global variant and
// the TSV chart export.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algos/global.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/rng.h"
#include "core/kcore.h"
#include "explorer/explorer.h"
#include "graph/fixtures.h"
#include "graph/io.h"
#include "graph/traversal.h"
#include "server/http.h"
#include "server/server.h"

namespace cexplorer {
namespace {

/// Applies `count` random byte-level mutations (replace, insert, delete,
/// truncate) to `text`.
std::string Mutate(std::string text, Rng* rng, int count) {
  for (int i = 0; i < count; ++i) {
    if (text.empty()) {
      text.push_back(static_cast<char>(rng->UniformU32(128)));
      continue;
    }
    std::size_t pos = rng->UniformU32(static_cast<std::uint32_t>(text.size()));
    switch (rng->UniformU32(4)) {
      case 0:
        text[pos] = static_cast<char>(32 + rng->UniformU32(95));
        break;
      case 1:
        text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                    static_cast<char>(32 + rng->UniformU32(95)));
        break;
      case 2:
        text.erase(text.begin() + static_cast<std::ptrdiff_t>(pos));
        break;
      case 3:
        text.resize(pos);
        break;
    }
  }
  return text;
}

class FuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(FuzzSweep, JsonParserNeverCrashes) {
  Rng rng(GetParam() * 7919 + 1);
  const std::string seed_doc =
      R"({"name":"jim gray","k":4,"xs":[1,2.5,null,true],"nested":{"a":"b"}})";
  for (int trial = 0; trial < 200; ++trial) {
    std::string doc = Mutate(seed_doc, &rng, 1 + GetParam());
    auto parsed = JsonValue::Parse(doc);
    if (parsed.ok()) {
      // Round trip must also hold for anything accepted.
      auto again = JsonValue::Parse(parsed->Dump());
      EXPECT_TRUE(again.ok()) << doc;
    }
  }
}

TEST_P(FuzzSweep, EdgeListParserNeverCrashes) {
  Rng rng(GetParam() * 104729 + 2);
  const std::string seed_doc = ToEdgeList(KarateClub());
  for (int trial = 0; trial < 100; ++trial) {
    std::string doc = Mutate(seed_doc, &rng, 1 + GetParam() * 2);
    auto parsed = ParseEdgeList(doc);
    if (parsed.ok()) {
      EXPECT_LE(parsed->num_edges(), 10000u);
    }
  }
}

TEST_P(FuzzSweep, AttributedParserNeverCrashes) {
  Rng rng(GetParam() * 31337 + 3);
  const std::string seed_doc = ToAttributedText(Figure5Graph());
  for (int trial = 0; trial < 100; ++trial) {
    std::string doc = Mutate(seed_doc, &rng, 1 + GetParam() * 2);
    auto parsed = ParseAttributed(doc);
    if (parsed.ok()) {
      // Accepted documents must yield a self-consistent graph.
      EXPECT_EQ(parsed->num_vertices(), parsed->graph().num_vertices());
    }
  }
}

/// Well-formed requests the HTTP sweeps mutate: a query-string search
/// with a %-escape and the three body-carrying POST routes (bodies are the
/// only payload form).
const std::vector<std::string>& RequestSeeds() {
  static const std::vector<std::string> seeds = {
      "GET /v1/search?name=a&k=2&keywords=x%2Cy&algo=ACQ",
      "POST /v1/batch\n\n[{\"name\": \"a\", \"k\": 2, \"keywords\": "
      "[\"x\", \"y\"]}, {\"vertex\": 2, \"k\": 3, \"algo\": \"Global\"}]",
      "POST /v1/edges\n\n{\"edges\": [[8, 9], [7, 9]]}",
      "POST /v1/vertices\n\n"
      "{\"vertices\": [{\"name\": \"k\", \"keywords\": [\"x\", \"y\"]}]}",
  };
  return seeds;
}

TEST_P(FuzzSweep, HttpParserNeverCrashes) {
  Rng rng(GetParam() * 193 + 5);
  const std::vector<std::string>& seeds = RequestSeeds();
  for (int trial = 0; trial < 200; ++trial) {
    const std::string& seed_doc = seeds[trial % seeds.size()];
    std::string line = Mutate(seed_doc, &rng, 1 + GetParam());
    auto parsed = ParseRequest(line);
    if (parsed.ok()) {
      EXPECT_FALSE(parsed->path.empty());
      EXPECT_EQ(parsed->path[0], '/');
    }
  }
}

TEST_P(FuzzSweep, ServerSurvivesArbitraryRequests) {
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());
  Rng rng(GetParam() * 997 + 6);
  const std::vector<std::string>& seeds = RequestSeeds();
  int routed = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const std::string& seed_doc = seeds[trial % seeds.size()];
    std::string line = Mutate(seed_doc, &rng, 1 + GetParam());
    HttpResponse response = server.Handle(line);
    if (response.body.find("no route for") == std::string::npos) ++routed;
    EXPECT_GE(response.code, 200);
    EXPECT_LT(response.code, 600);
    // Every response body (even errors) is valid JSON or SVG.
    if (response.body.rfind("<svg", 0) != 0) {
      EXPECT_TRUE(JsonValue::Parse(response.body).ok()) << response.body;
    }
  }
  // Most mutations keep a routable path, so the sweep reaches handlers.
  EXPECT_GT(routed, 50);
  // The session must still work afterwards.
  EXPECT_EQ(server.Handle("GET /v1/search?name=a&k=2").code, 200);
}

INSTANTIATE_TEST_SUITE_P(Mutations, FuzzSweep, ::testing::Range(0, 6));

// --------------------------------------------------------------------------
// Distance-bounded Global
// --------------------------------------------------------------------------

TEST(GlobalRadiusTest, InfinityMatchesUnbounded) {
  Graph g = KarateClub();
  auto core = CoreDecomposition(g);
  for (std::uint32_t k = 1; k <= 4; ++k) {
    GlobalResult bounded = GlobalSearchWithinRadius(g, 0, k, 1000);
    GlobalResult unbounded = GlobalSearch(g, core, 0, k);
    EXPECT_EQ(bounded.vertices, unbounded.vertices) << "k=" << k;
  }
}

TEST(GlobalRadiusTest, SmallerRadiusSmallerCommunity) {
  Graph g = KarateClub();
  GlobalResult r1 = GlobalSearchWithinRadius(g, 0, 2, 1);
  GlobalResult r2 = GlobalSearchWithinRadius(g, 0, 2, 2);
  ASSERT_FALSE(r1.vertices.empty());
  EXPECT_LE(r1.vertices.size(), r2.vertices.size());
  // Monotone containment.
  EXPECT_TRUE(std::includes(r2.vertices.begin(), r2.vertices.end(),
                            r1.vertices.begin(), r1.vertices.end()));
}

TEST(GlobalRadiusTest, ResultRespectsRadiusAndDegree) {
  Graph g = KarateClub();
  const std::uint32_t radius = 1;
  const std::uint32_t k = 3;
  GlobalResult r = GlobalSearchWithinRadius(g, kKaratePresident, k, radius);
  ASSERT_FALSE(r.vertices.empty());
  auto dist = BfsDistances(g, kKaratePresident);
  for (VertexId v : r.vertices) EXPECT_LE(dist[v], radius);
  EXPECT_GE(r.min_degree, k);
}

TEST(GlobalRadiusTest, RadiusZeroIsQueryAloneOrEmpty) {
  Graph g = KarateClub();
  EXPECT_TRUE(GlobalSearchWithinRadius(g, 0, 1, 0).vertices.empty());
  GlobalResult r = GlobalSearchWithinRadius(g, 0, 0, 0);
  EXPECT_EQ(r.vertices, (VertexList{0}));
}

// --------------------------------------------------------------------------
// TSV chart export
// --------------------------------------------------------------------------

TEST(ComparisonTsvTest, HeaderAndRows) {
  Explorer explorer;
  ASSERT_TRUE(explorer.UploadGraph(Figure5Graph()).ok());
  Query query;
  query.name = "a";
  query.k = 2;
  query.keywords = {"x", "y"};
  auto report = explorer.Compare(query, {"Global", "ACQ"});
  ASSERT_TRUE(report.ok());
  std::string tsv = report->ToTsv();
  EXPECT_EQ(tsv.rfind("method\tcommunities\tvertices\tedges\tdegree\tcpj\tcmf\n",
                      0),
            0u);
  // Header + 2 data rows.
  EXPECT_EQ(std::count(tsv.begin(), tsv.end(), '\n'), 3);
  EXPECT_NE(tsv.find("Global\t"), std::string::npos);
  EXPECT_NE(tsv.find("ACQ\t"), std::string::npos);
  // Each data line has 7 fields.
  auto lines = Split(tsv, '\n');
  for (std::size_t i = 1; i + 1 < lines.size(); ++i) {
    EXPECT_EQ(std::count(lines[i].begin(), lines[i].end(), '\t'), 6)
        << lines[i];
  }
}

}  // namespace
}  // namespace cexplorer
