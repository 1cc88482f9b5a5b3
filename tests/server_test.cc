// Tests for the browser-server simulation: request parsing, routing, the
// exploration session loop of Figures 1-2, and the comparison endpoint of
// Figure 6.

#include <gtest/gtest.h>

#include "common/json.h"
#include "graph/fixtures.h"
#include "graph/io.h"
#include "server/http.h"
#include "server/server.h"

namespace cexplorer {
namespace {

// --------------------------------------------------------------------------
// URL / request parsing
// --------------------------------------------------------------------------

TEST(UrlCodecTest, DecodeBasics) {
  EXPECT_EQ(UrlDecodeStrict("jim+gray").value(), "jim gray");
  EXPECT_EQ(UrlDecodeStrict("a%20b").value(), "a b");
  EXPECT_EQ(UrlDecodeStrict("%2Fpath").value(), "/path");
  EXPECT_EQ(UrlDecodeStrict("plain").value(), "plain");
  EXPECT_FALSE(UrlDecodeStrict("bad%2").ok());  // truncated escape
}

TEST(UrlCodecTest, EncodeDecodeRoundTrip) {
  const std::string original = "jim gray & co/sons #1";
  EXPECT_EQ(UrlDecodeStrict(UrlEncode(original)).value(), original);
}

TEST(ParseRequestTest, PathAndParams) {
  auto req =
      ParseRequest("GET /v1/search?name=jim+gray&k=4&keywords=data,web");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/v1/search");
  EXPECT_EQ(req->Param("name"), "jim gray");
  EXPECT_EQ(req->IntParam("k", 0), 4);
  EXPECT_EQ(req->Param("keywords"), "data,web");
  EXPECT_EQ(req->Param("missing"), "");
  EXPECT_EQ(req->IntParam("missing", 7), 7);
}

TEST(ParseRequestTest, RejectsMalformed) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("GET").ok());
  EXPECT_FALSE(ParseRequest("PUT /x").ok());
  EXPECT_FALSE(ParseRequest("GET nopath").ok());
  EXPECT_FALSE(ParseRequest("GET /v1/x extra").ok());
}

TEST(ParseRequestTest, EmptyAndValuelessParams) {
  auto req = ParseRequest("GET /v1/x?flag&k=");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->Param("flag"), "");
  EXPECT_EQ(req->Param("k"), "");
}

TEST(ParseRequestTest, QueryEdgeCases) {
  // Empty query and trailing/duplicate '&' separators are fine.
  EXPECT_TRUE(ParseRequest("GET /v1/x?").ok());
  auto req = ParseRequest("GET /v1/x?a=1&&b=2&");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->Param("a"), "1");
  EXPECT_EQ(req->Param("b"), "2");
  // Duplicate keys: the last occurrence wins (documented contract).
  auto dup = ParseRequest("GET /v1/x?k=1&k=2&k=3");
  ASSERT_TRUE(dup.ok());
  EXPECT_EQ(dup->Param("k"), "3");
}

TEST(ParseRequestTest, RejectsMalformedEscapes) {
  // Malformed %-escapes are a parse error, not silently decoded garbage.
  EXPECT_FALSE(ParseRequest("GET /v1/x?name=%zz").ok());
  EXPECT_FALSE(ParseRequest("GET /v1/x?name=bad%2").ok());
  EXPECT_FALSE(ParseRequest("GET /v1/x?%GG=1").ok());
  // The decoder surfaces the error directly.
  EXPECT_FALSE(UrlDecodeStrict("bad%zz").ok());
  EXPECT_EQ(UrlDecodeStrict("a%20b").value(), "a b");
}

TEST(ParseRequestTest, PostBody) {
  auto req = ParseRequest("POST /v1/batch\n\n[{\"vertex\": 3}]");
  ASSERT_TRUE(req.ok());
  EXPECT_EQ(req->method, "POST");
  EXPECT_EQ(req->path, "/v1/batch");
  EXPECT_EQ(req->body, "[{\"vertex\": 3}]");
  // CRLF separator and no blank line both work.
  EXPECT_EQ(ParseRequest("POST /v1/x\r\n\r\nhello")->body, "hello");
  EXPECT_EQ(ParseRequest("POST /v1/x\nhello")->body, "hello");
  // GET requests simply carry no body.
  EXPECT_EQ(ParseRequest("GET /v1/x")->body, "");
}

// --------------------------------------------------------------------------
// Server routing
// --------------------------------------------------------------------------

class ServerFixture : public ::testing::Test {
 protected:
  ServerFixture() {
    EXPECT_TRUE(server_.UploadGraph(Figure5Graph()).ok());
  }

  JsonValue GetJson(const std::string& request, int expected_code = 200) {
    HttpResponse response = server_.Handle(request);
    EXPECT_EQ(response.code, expected_code) << request << " -> "
                                            << response.body;
    auto parsed = JsonValue::Parse(response.body);
    EXPECT_TRUE(parsed.ok()) << response.body;
    return parsed.value_or(JsonValue{});
  }

  CExplorerServer server_;
};

TEST_F(ServerFixture, IndexListsAlgorithms) {
  JsonValue v = GetJson("GET /v1/index");
  EXPECT_EQ(v.Get("system").AsString(), "C-Explorer");
  EXPECT_TRUE(v.Get("graph_loaded").AsBool());
  EXPECT_EQ(v.Get("vertices").AsInt(), 10);
  EXPECT_EQ(v.Get("edges").AsInt(), 11);
  EXPECT_EQ(v.Get("cs_algorithms").Items().size(), 5u);  // incl. KTruss
}

TEST_F(ServerFixture, UnknownRouteIs404) {
  HttpResponse r = server_.Handle("GET /nope");
  EXPECT_EQ(r.code, 404);
  auto v = JsonValue::Parse(r.body);
  ASSERT_TRUE(v.ok());
  // Structured error envelope: {"error":{"code","message"}}.
  EXPECT_EQ(v->Get("error").Get("code").AsString(), "NOT_FOUND");
  EXPECT_FALSE(v->Get("error").Get("message").AsString().empty());
}

TEST_F(ServerFixture, BadRequestLineIs400) {
  EXPECT_EQ(server_.Handle("garbage").code, 400);
}

TEST_F(ServerFixture, SearchFlowReturnsCommunities) {
  JsonValue v = GetJson("GET /v1/search?name=a&k=2&keywords=w,x,y&algo=ACQ");
  EXPECT_EQ(v.Get("algorithm").AsString(), "ACQ");
  EXPECT_EQ(v.Get("num_communities").AsInt(), 1);
  const auto& communities = v.Get("communities").Items();
  ASSERT_EQ(communities.size(), 1u);
  const auto& members = communities[0].Get("members").Items();
  ASSERT_EQ(members.size(), 3u);
  EXPECT_EQ(members[0].Get("name").AsString(), "A");
  // Theme = shared keywords {x, y}.
  EXPECT_EQ(communities[0].Get("theme").Items().size(), 2u);
}

TEST_F(ServerFixture, SearchErrors) {
  EXPECT_EQ(server_.Handle("GET /v1/search?k=2").code, 400);          // no name
  EXPECT_EQ(server_.Handle("GET /v1/search?name=zzz&k=2").code,
            404);  // unknown
  EXPECT_EQ(server_.Handle("GET /v1/search?name=a&algo=Nope").code, 404);
}

TEST_F(ServerFixture, CommunityViewHasLayoutAndAscii) {
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&algo=ACQ");
  JsonValue v = GetJson("GET /v1/community?id=0");
  EXPECT_EQ(v.Get("community").Get("size").AsInt(), 3);
  const auto& layout = v.Get("layout").Items();
  ASSERT_EQ(layout.size(), 3u);
  for (const auto& p : layout) {
    EXPECT_GE(p.Get("x").AsDouble(), 0.0);
    EXPECT_GE(p.Get("y").AsDouble(), 0.0);
  }
  EXPECT_NE(v.Get("ascii").AsString().find('*'), std::string::npos);
  EXPECT_GT(v.Get("stats").Get("avg_degree").AsDouble(), 1.9);
}

TEST_F(ServerFixture, CommunityViewWithoutSearchIs404) {
  EXPECT_EQ(server_.Handle("GET /v1/community?id=0").code, 404);
}

TEST_F(ServerFixture, ProfilePopup) {
  JsonValue v = GetJson("GET /v1/profile?name=a");
  EXPECT_EQ(v.Get("name").AsString(), "A");
  EXPECT_FALSE(v.Get("institute").AsString().empty());
  EXPECT_EQ(v.Get("keywords").Items().size(), 3u);  // {w,x,y}
  // By vertex id too.
  JsonValue v2 = GetJson("GET /v1/profile?vertex=0");
  EXPECT_EQ(v2.Get("name").AsString(), "A");
  EXPECT_EQ(server_.Handle("GET /v1/profile?name=zzz").code, 404);
  EXPECT_EQ(server_.Handle("GET /v1/profile?vertex=99").code, 404);
}

TEST_F(ServerFixture, ExplorationLoopFigures1And2) {
  // Figure 1: search for 'a'.
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&algo=ACQ");
  // Figure 2: open the profile of member C (vertex 2), then explore C.
  JsonValue profile = GetJson("GET /v1/profile?vertex=2");
  EXPECT_EQ(profile.Get("name").AsString(), "C");
  JsonValue explored = GetJson("GET /v1/explore?vertex=2&k=2");
  EXPECT_GE(explored.Get("num_communities").AsInt(), 1);
  // History recorded both steps.
  JsonValue history = GetJson("GET /v1/history");
  EXPECT_EQ(history.Get("history").Items().size(), 2u);
}

TEST_F(ServerFixture, ExploreValidatesVertex) {
  EXPECT_EQ(server_.Handle("GET /v1/explore?vertex=99").code, 404);
  // 'vertex' is declared required in the route schema: missing it is an
  // invalid argument.
  EXPECT_EQ(server_.Handle("GET /v1/explore").code, 400);
}

TEST_F(ServerFixture, CompareEndpointFigure6) {
  JsonValue v =
      GetJson("GET /v1/compare?name=a&k=2&keywords=x,y&algos=Global,Local,ACQ");
  const auto& rows = v.Get("rows").Items();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].Get("method").AsString(), "Global");
  EXPECT_GE(rows[0].Get("vertices").AsDouble(),
            rows[2].Get("vertices").AsDouble());
  EXPECT_NE(v.Get("table").AsString().find("CPJ"), std::string::npos);
}

TEST_F(ServerFixture, CompareRequiresName) {
  EXPECT_EQ(server_.Handle("GET /v1/compare?k=2").code, 400);
}

// --------------------------------------------------------------------------
// Multi-session routing over one shared dataset
// --------------------------------------------------------------------------

TEST_F(ServerFixture, SessionNewCreatesIsolatedSessions) {
  JsonValue s1 = GetJson("GET /v1/session/new");
  JsonValue s2 = GetJson("GET /v1/session/new");
  const std::string id1 = s1.Get("session").AsString();
  const std::string id2 = s2.Get("session").AsString();
  EXPECT_FALSE(id1.empty());
  EXPECT_NE(id1, id2);

  // Both sessions interleave search/explore against the one uploaded graph.
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&algo=ACQ&session=" + id1);
  GetJson("GET /v1/search?name=b&k=3&algo=Global&session=" + id2);
  GetJson("GET /v1/explore?vertex=2&k=2&session=" + id1);

  // Community caches and history are per-session.
  JsonValue h1 = GetJson("GET /v1/history?session=" + id1);
  JsonValue h2 = GetJson("GET /v1/history?session=" + id2);
  EXPECT_EQ(h1.Get("history").Items().size(), 2u);
  EXPECT_EQ(h2.Get("history").Items().size(), 1u);
  EXPECT_EQ(GetJson("GET /v1/community?id=0&session=" + id2)
                .Get("community")
                .Get("method")
                .AsString(),
            "Global");

  // The default session (no ?session=) is yet another isolated session.
  EXPECT_EQ(server_.Handle("GET /v1/community?id=0").code, 404);
}

TEST_F(ServerFixture, UnknownSessionIs404) {
  EXPECT_EQ(server_.Handle("GET /v1/search?name=a&session=nope").code, 404);
}

TEST_F(ServerFixture, SessionsEndpointListsState) {
  const std::string id =
      GetJson("GET /v1/session/new").Get("session").AsString();
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&session=" + id);
  JsonValue v = GetJson("GET /v1/sessions");
  const auto& sessions = v.Get("sessions").Items();
  ASSERT_GE(sessions.size(), 1u);
  bool found = false;
  for (const auto& s : sessions) {
    if (s.Get("id").AsString() != id) continue;
    found = true;
    EXPECT_EQ(s.Get("cached_communities").AsInt(), 1);
    EXPECT_EQ(s.Get("history_length").AsInt(), 1);
    EXPECT_GT(s.Get("dataset_id").AsInt(), 0);
  }
  EXPECT_TRUE(found);
}

TEST_F(ServerFixture, HistoryKeepsTheLastThousandSteps) {
  const std::string id =
      GetJson("GET /v1/session/new").Get("session").AsString();
  // k = i tells the steps apart; a k above every core number still counts
  // as a search (with no community).
  for (int i = 0; i < 1005; ++i) {
    ASSERT_EQ(server_
                  .Handle("GET /v1/search?name=a&k=" + std::to_string(i) +
                          "&session=" + id)
                  .code,
              200);
  }
  const JsonValue history = GetJson("GET /v1/history?session=" + id);
  const auto& steps = history.Get("history").Items();
  ASSERT_EQ(steps.size(), 1000u);
  EXPECT_EQ(steps.front().AsString(), "ACQ:a:k=5");
  EXPECT_EQ(steps.back().AsString(), "ACQ:a:k=1004");
  const JsonValue sessions = GetJson("GET /v1/sessions");
  bool found = false;
  for (const auto& s : sessions.Get("sessions").Items()) {
    if (s.Get("id").AsString() != id) continue;
    found = true;
    EXPECT_EQ(s.Get("history_length").AsInt(), 1000);
  }
  EXPECT_TRUE(found);
}

TEST_F(ServerFixture, UploadInvalidatesCachedCommunitiesAcrossSessions) {
  const std::string id =
      GetJson("GET /v1/session/new").Get("session").AsString();
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&session=" + id);
  GetJson("GET /v1/detect?algo=CODICIL&session=" + id);
  GetJson("GET /v1/community?id=0&session=" + id);
  GetJson("GET /v1/cluster?id=0&session=" + id);

  // Another session re-uploads the graph: the dataset pointer is swapped.
  const std::string path = ::testing::TempDir() + "/fig5_reload.attr";
  ASSERT_TRUE(SaveAttributed(Figure5Graph(), path).ok());
  GetJson("GET /v1/upload?path=" + UrlEncode(path));

  // The first session's cached results were computed against the old
  // snapshot and must not be served against the new one.
  EXPECT_EQ(server_.Handle("GET /v1/community?id=0&session=" + id).code, 404);
  EXPECT_EQ(server_.Handle("GET /v1/cluster?id=0&session=" + id).code, 404);
  EXPECT_EQ(server_.Handle("GET /v1/export?id=0&session=" + id).code, 404);

  // A fresh search against the new snapshot works again.
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&session=" + id);
  GetJson("GET /v1/community?id=0&session=" + id);
}

TEST(ServerSessionTest, SessionLimitAndRemoval) {
  SessionManager manager(/*max_sessions=*/2);
  auto first = manager.Create();
  EXPECT_NE(first, nullptr);
  EXPECT_NE(manager.Create(), nullptr);
  EXPECT_EQ(manager.Create(), nullptr);  // at the cap
  // Deleting frees a slot.
  EXPECT_TRUE(manager.Remove(first->id));
  EXPECT_FALSE(manager.Remove(first->id));
  EXPECT_NE(manager.Create(), nullptr);
  // The implicit default session bypasses the cap check.
  EXPECT_EQ(manager.Create(), nullptr);
  EXPECT_NE(manager.GetOrCreate("default"), nullptr);
}

TEST_F(ServerFixture, SessionDeleteEndpoint) {
  const std::string id =
      GetJson("GET /v1/session/new").Get("session").AsString();
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&session=" + id);
  JsonValue deleted = GetJson("GET /v1/session/delete?id=" + id);
  EXPECT_EQ(deleted.Get("deleted").AsString(), id);
  // The session is gone: routed requests 404, re-delete 404.
  EXPECT_EQ(server_.Handle("GET /v1/search?name=a&session=" + id).code, 404);
  EXPECT_EQ(server_.Handle("GET /v1/session/delete?id=" + id).code, 404);
  EXPECT_EQ(server_.Handle("GET /v1/session/delete").code, 400);
}

TEST(ServerSessionTest, SessionsShareOneIndexBuild) {
  CExplorerServer server;
  const std::uint64_t builds_before = Dataset::TotalIndexBuilds();
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());
  // Creating sessions and querying must not rebuild the CL-tree.
  for (int i = 0; i < 8; ++i) {
    HttpResponse created = server.Handle("GET /v1/session/new");
    ASSERT_EQ(created.code, 200);
    auto v = JsonValue::Parse(created.body);
    ASSERT_TRUE(v.ok());
    const std::string id = v->Get("session").AsString();
    EXPECT_EQ(server
                  .Handle("GET /v1/search?name=a&k=2&algo=Global&session=" + id)
                  .code,
              200);
  }
  EXPECT_EQ(Dataset::TotalIndexBuilds(), builds_before + 1);
  EXPECT_EQ(server.num_sessions(), 8u);
}

TEST(ServerUploadTest, UploadEndpointLoadsFile) {
  const std::string path = ::testing::TempDir() + "/fig5_server.attr";
  ASSERT_TRUE(SaveAttributed(Figure5Graph(), path).ok());
  CExplorerServer server;
  HttpResponse before = server.Handle("GET /v1/search?name=a");
  EXPECT_EQ(before.code, 409);  // no graph yet
  HttpResponse up = server.Handle("GET /v1/upload?path=" + UrlEncode(path));
  EXPECT_EQ(up.code, 200);
  auto v = JsonValue::Parse(up.body);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("vertices").AsInt(), 10);
  // Every upload serves a fresh snapshot with the next dataset id.
  auto again = JsonValue::Parse(
      server.Handle("GET /v1/upload?path=" + UrlEncode(path)).body);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->Get("dataset_id").AsInt(),
            v->Get("dataset_id").AsInt() + 1);
  EXPECT_EQ(server.Handle("GET /v1/search?name=a&k=2").code, 200);
  EXPECT_EQ(server.Handle("GET /v1/upload?path=%2Fnope").code, 400);
  EXPECT_EQ(server.Handle("GET /v1/upload").code, 400);
}

}  // namespace
}  // namespace cexplorer
