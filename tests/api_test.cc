// Tests for the typed, versioned query API: the /v1 route table and its
// schema validation, the GET /v1/api self-description, structured error
// envelopes, member-list pagination with stable cursors, the POST /v1/batch
// body, and the QueryService facade used directly as a typed embedder API.

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "api/query_service.h"
#include "api/routes.h"
#include "common/json.h"
#include "common/simd/simd.h"
#include "graph/attributed_graph.h"
#include "graph/fixtures.h"
#include "graph/io.h"
#include "server/http.h"
#include "server/server.h"

namespace cexplorer {
namespace {

class ApiFixture : public ::testing::Test {
 protected:
  ApiFixture() { EXPECT_TRUE(server_.UploadGraph(Figure5Graph()).ok()); }

  HttpResponse Get(const std::string& request, int expected_code = 200) {
    HttpResponse response = server_.Handle(request);
    EXPECT_EQ(response.code, expected_code)
        << request << " -> " << response.body;
    return response;
  }

  JsonValue GetJson(const std::string& request, int expected_code = 200) {
    HttpResponse response = Get(request, expected_code);
    auto parsed = JsonValue::Parse(response.body);
    EXPECT_TRUE(parsed.ok()) << response.body;
    return parsed.value_or(JsonValue{});
  }

  /// The error code string of an error envelope response.
  std::string ErrorCode(const std::string& request, int expected_code) {
    return GetJson(request, expected_code)
        .Get("error")
        .Get("code")
        .AsString();
  }

  CExplorerServer server_;
};

// --------------------------------------------------------------------------
// GET /v1/api self-description
// --------------------------------------------------------------------------

TEST_F(ApiFixture, SelfDescriptionListsEveryRoute) {
  JsonValue v = GetJson("GET /v1/api");
  EXPECT_EQ(v.Get("version").AsString(), "v1");

  std::size_t count = 0;
  const api::RouteSpec* table = api::Routes(&count);
  const auto& routes = v.Get("routes").Items();
  ASSERT_EQ(routes.size(), count);
  EXPECT_EQ(count, 28u);  // one spelling per route, /v1/<name>

  std::set<std::string> described;
  for (const auto& route : routes) {
    described.insert(route.Get("path").AsString());
    EXPECT_FALSE(route.Get("doc").AsString().empty());
    EXPECT_GE(route.Get("methods").Items().size(), 1u);
    // Exactly these keys: no alias path or per-alias method list.
    std::set<std::string> keys;
    for (const auto& [key, value] : route.Members()) keys.insert(key);
    EXPECT_EQ(keys, (std::set<std::string>{"doc", "methods", "name", "params",
                                           "path"}))
        << route.Get("name").AsString();
  }
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(described.count(table[i].V1Path()))
        << table[i].V1Path() << " missing from /v1/api";
  }

  // The error taxonomy is part of the self-description.
  const auto& codes = v.Get("error_codes").Items();
  std::set<std::string> names;
  for (const auto& code : codes) names.insert(code.Get("code").AsString());
  EXPECT_TRUE(names.count("INVALID_ARGUMENT"));
  EXPECT_TRUE(names.count("NOT_FOUND"));
  EXPECT_TRUE(names.count("CONFLICT"));
  EXPECT_TRUE(names.count("UNAVAILABLE"));
  EXPECT_TRUE(names.count("CANCELLED"));
  EXPECT_TRUE(names.count("DEADLINE_EXCEEDED"));
}

TEST_F(ApiFixture, SelfDescriptionMatchesAlgorithmRegistry) {
  // The algorithms section of /v1/api is generated from the registry's
  // descriptors; cross-check every algorithm, parameter, and capability
  // flag against a reference registry.
  JsonValue v = GetJson("GET /v1/api");
  Explorer reference;
  const auto descriptors = reference.Descriptors();
  const auto& described = v.Get("algorithms").Items();
  ASSERT_EQ(described.size(), descriptors.size());
  for (std::size_t i = 0; i < descriptors.size(); ++i) {
    const AlgorithmDescriptor& want = *descriptors[i];
    const JsonValue& got = described[i];
    EXPECT_EQ(got.Get("name").AsString(), want.name);
    EXPECT_EQ(got.Get("kind").AsString(), AlgorithmKindName(want.kind));
    EXPECT_FALSE(got.Get("doc").AsString().empty()) << want.name;
    EXPECT_EQ(got.Get("capabilities").Get("cancel").AsBool(),
              want.caps.cancel);
    EXPECT_EQ(got.Get("capabilities").Get("progress").AsBool(),
              want.caps.progress);
    EXPECT_EQ(got.Get("capabilities").Get("indexed").AsBool(),
              want.caps.indexed);
    const auto& params = got.Get("params").Items();
    ASSERT_EQ(params.size(), want.params.size()) << want.name;
    for (std::size_t p = 0; p < want.params.size(); ++p) {
      EXPECT_EQ(params[p].Get("name").AsString(), want.params[p].name);
      EXPECT_EQ(params[p].Get("type").AsString(),
                AlgoParamTypeName(want.params[p].type));
      EXPECT_EQ(params[p].Get("default").AsString(),
                want.params[p].default_value);
      EXPECT_EQ(params[p].Has("min"), want.params[p].has_range);
    }
  }

  // A plug-in registered on a session appears in that session's /v1/api.
  JsonValue session = GetJson("GET /v1/session/new");
  const std::string id = session.Get("session").AsString();
  // (Registration is programmatic; the HTTP surface only reads. Check the
  // built-in count stays per-session-consistent instead.)
  JsonValue scoped = GetJson("GET /v1/api?session=" + id);
  EXPECT_EQ(scoped.Get("algorithms").Items().size(), descriptors.size());
}

// --------------------------------------------------------------------------
// /v1/healthz and /v1/version
// --------------------------------------------------------------------------

TEST_F(ApiFixture, HealthzReportsSnapshotAndUptime) {
  JsonValue v = GetJson("GET /v1/healthz");
  EXPECT_EQ(v.Get("status").AsString(), "ok");
  EXPECT_GE(v.Get("uptime_ms").AsInt(), 0);
  EXPECT_TRUE(v.Get("graph_loaded").AsBool());
  EXPECT_GT(v.Get("dataset_id").AsInt(), 0);
  EXPECT_GE(v.Get("sessions").AsInt(), 0);
  EXPECT_EQ(v.Get("jobs").AsInt(), 0);

  // Liveness holds before any upload too.
  CExplorerServer empty;
  HttpResponse r = empty.Handle("GET /v1/healthz");
  EXPECT_EQ(r.code, 200);
  auto parsed = JsonValue::Parse(r.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Get("graph_loaded").AsBool());
}

TEST_F(ApiFixture, StatsReportKernelSelection) {
  // /v1/stats surfaces what the process resolved at startup: the widest
  // usable intersection ISA.
  JsonValue v = GetJson("GET /v1/stats");
  const JsonValue kernels = v.Get("kernels");
  EXPECT_EQ(kernels.Get("isa").AsString(),
            simd::IsaName(simd::ActiveIsa()));

  // The ISA is a process property, reported even before any upload.
  CExplorerServer empty;
  auto parsed = JsonValue::Parse(empty.Handle("GET /v1/stats").body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Get("kernels").Get("isa").AsString().empty());
}

TEST_F(ApiFixture, StatsReportAcqMemo) {
  const auto memo = [&] { return GetJson("GET /v1/stats").Get("acq_memo"); };
  EXPECT_EQ(memo().Get("entries").AsInt(), 0);
  // A and C sit in one 2-core component and share {x, y}: the first search
  // peels {A, C, D} with labels, the second reads it.
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  Get("GET /v1/search?name=C&k=2&keywords=x,y");
  const JsonValue after = memo();
  EXPECT_EQ(after.Get("entries").AsInt(), 1);
  EXPECT_EQ(after.Get("survivors").AsInt(), 3);
  EXPECT_EQ(after.Get("hits").AsInt(), 1);
  EXPECT_EQ(after.Get("misses").AsInt(), 1);
  EXPECT_EQ(after.Get("drops").AsInt(), 0);
}

TEST_F(ApiFixture, StatsReportMutationsBlock) {
  // The mutations block is always present, zeroed before any mutation.
  const JsonValue zero = GetJson("GET /v1/stats").Get("mutations");
  ASSERT_TRUE(zero.is_object());
  for (const char* field :
       {"active", "overlay_edges", "pending_batches", "batches",
        "patched_vertices", "tail_vertices", "edges_added", "edges_removed",
        "vertices_added", "compactions", "last_compaction_ms",
        "core_repair_visited", "core_repair_changed"}) {
    EXPECT_TRUE(zero.Has(field)) << field;
  }
  EXPECT_FALSE(zero.Get("active").AsBool());
  EXPECT_EQ(zero.Get("batches").AsInt(), 0);

  Get("POST /v1/edges\n\n{\"edges\": [[8, 9]]}");
  JsonValue after = GetJson("GET /v1/stats").Get("mutations");
  EXPECT_TRUE(after.Get("active").AsBool());
  EXPECT_EQ(after.Get("batches").AsInt(), 1);
  EXPECT_EQ(after.Get("overlay_edges").AsInt(), 1);
  EXPECT_EQ(after.Get("edges_added").AsInt(), 1);
  EXPECT_EQ(after.Get("pending_batches").AsInt(), 1);

  Get("POST /v1/compact");
  JsonValue folded = GetJson("GET /v1/stats").Get("mutations");
  EXPECT_FALSE(folded.Get("active").AsBool());
  EXPECT_EQ(folded.Get("pending_batches").AsInt(), 0);
  EXPECT_EQ(folded.Get("compactions").AsInt(), 1);
}

TEST_F(ApiFixture, VersionReportsApiAndBuild) {
  JsonValue v = GetJson("GET /v1/version");
  EXPECT_EQ(v.Get("server").AsString(), "C-Explorer");
  EXPECT_EQ(v.Get("api_version").AsString(), "v1");
  EXPECT_FALSE(v.Get("version").AsString().empty());
  EXPECT_FALSE(v.Get("build").Get("compiler").AsString().empty());
}

TEST_F(ApiFixture, SelfDescriptionSchemaDetails) {
  JsonValue v = GetJson("GET /v1/api");
  for (const auto& route : v.Get("routes").Items()) {
    if (route.Get("name").AsString() != "search") continue;
    bool saw_k = false;
    for (const auto& param : route.Get("params").Items()) {
      if (param.Get("name").AsString() != "k") continue;
      saw_k = true;
      EXPECT_EQ(param.Get("type").AsString(), "int");
      EXPECT_FALSE(param.Get("required").AsBool());
      EXPECT_EQ(param.Get("default").AsString(), "4");
    }
    EXPECT_TRUE(saw_k);
  }
}

TEST_F(ApiFixture, EveryTableRouteIsReachable) {
  // A request to each declared /v1 path must be recognized by the router:
  // whatever the handler decides, it is never the "no route" 404.
  const auto is_no_route = [](const HttpResponse& r) {
    auto v = JsonValue::Parse(r.body);
    return r.code == 404 && v.ok() &&
           v->Get("error").Get("message").AsString().rfind("no route", 0) == 0;
  };
  std::size_t count = 0;
  const api::RouteSpec* table = api::Routes(&count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_FALSE(is_no_route(server_.Handle("GET " + table[i].V1Path())))
        << table[i].V1Path();
    // Without the /v1 prefix a route name is not a path.
    EXPECT_TRUE(
        is_no_route(server_.Handle("GET /" + std::string(table[i].name))))
        << table[i].name;
  }
  // The unversioned spellings of earlier releases, and the deleted text
  // CL-tree index routes, are unknown paths under every method.
  for (const char* path :
       {"/", "/api", "/session/new", "/session/delete", "/sessions",
        "/upload", "/search", "/community", "/profile", "/explore",
        "/compare", "/history", "/detect", "/cluster", "/author", "/export",
        "/save_index", "/load_index", "/batch", "/v1/save_index",
        "/v1/load_index"}) {
    for (const char* method : {"GET ", "POST "}) {
      EXPECT_TRUE(is_no_route(server_.Handle(method + std::string(path))))
          << method << path;
    }
  }
}

// --------------------------------------------------------------------------
// Schema validation
// --------------------------------------------------------------------------

TEST_F(ApiFixture, MissingRequiredParams) {
  EXPECT_EQ(ErrorCode("GET /v1/author", 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("GET /v1/upload", 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("POST /v1/snapshot/save", 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("POST /v1/snapshot/load", 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("GET /v1/session/delete", 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("GET /v1/explore", 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("GET /v1/compare", 400), "INVALID_ARGUMENT");
  // An empty value does not satisfy a required parameter.
  EXPECT_EQ(ErrorCode("GET /v1/author?name=", 400), "INVALID_ARGUMENT");
}

TEST_F(ApiFixture, TypedWrongParams) {
  EXPECT_EQ(ErrorCode("GET /v1/search?name=a&k=abc", 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("GET /v1/community?id=xyz", 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("GET /v1/explore?vertex=two", 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("POST /v1/batch\n\nnotjson", 400), "INVALID_ARGUMENT");
}

TEST_F(ApiFixture, OutOfRangeIdsRejectedNotWrapped) {
  // Every explicit vertex and k must be an integer in [0, 2^32 - 1].
  // Narrowed unchecked, 2^32 would wrap to vertex 0, 2^32 + 1 to k = 1 and
  // -1 to k = 2^32 - 1; a JSON 4.9 would truncate to 4, and 1e30 has no
  // integer value at all.
  const std::vector<std::string> rejected = {
      "GET /v1/search?vertex=4294967296&k=4",
      "GET /v1/search?vertex=0&k=4294967297",
      "GET /v1/search?vertex=0&k=-1",
      "GET /v1/explore?vertex=4294967296",
      "GET /v1/explore?vertex=2&k=4294967297",
      "GET /v1/explore?vertex=2&k=-1",
      "GET /v1/compare?name=a&k=4294967297",
      "GET /v1/compare?name=a&k=-1",
      "GET /v1/profile?vertex=4294967296",
      "POST /v1/jobs\n\n{\"algo\": \"ACQ\", \"vertex\": 4294967296}",
      "POST /v1/jobs\n\n{\"algo\": \"ACQ\", \"vertex\": 0, \"k\": 1e30}",
      "POST /v1/jobs\n\n{\"algo\": \"ACQ\", \"vertex\": 0, \"k\": 4.9}",
      "POST /v1/jobs\n\n{\"algo\": \"ACQ\", \"vertex\": 0, \"k\": -1}",
      "POST /v1/edges\n\n{\"edges\": [[4294967296, 1]]}",
      "POST /v1/edges\n\n{\"edges\": [[0.5, 1]]}",
  };
  for (const std::string& request : rejected) {
    EXPECT_EQ(ErrorCode(request, 400), "INVALID_ARGUMENT") << request;
  }

  // Inside /v1/batch each bad entry fails on its own slot.
  const std::vector<std::string> bad_entries = {
      "{\"vertex\": 4294967296}",       "{\"vertex\": -1}",
      "{\"vertex\": 0, \"k\": 1e30}",   "{\"vertex\": 0, \"k\": 4.9}",
      "{\"vertex\": 0, \"k\": -1}",     "{\"vertex\": 0, \"k\": 4294967297}",
      "{\"vertex\": 0, \"k\": \"2\"}",
  };
  std::string body = "[{\"vertex\": 0, \"k\": 2}";
  for (const std::string& entry : bad_entries) body += ", " + entry;
  const JsonValue batch = GetJson("POST /v1/batch\n\n" + body + "]");
  const auto& results = batch.Get("results").Items();
  ASSERT_EQ(results.size(), bad_entries.size() + 1);
  EXPECT_EQ(results[0].Get("num_communities").AsInt(), 1);
  for (std::size_t i = 0; i < bad_entries.size(); ++i) {
    EXPECT_EQ(results[i + 1].Get("error").Get("code").AsString(),
              "INVALID_ARGUMENT")
        << bad_entries[i];
  }

  // An absent k on /v1/explore still reuses the last query's k.
  Get("GET /v1/search?vertex=2&k=2");
  const HttpResponse reused = Get("GET /v1/explore?vertex=2");
  EXPECT_EQ(reused.body, Get("GET /v1/explore?vertex=2&k=2").body);
  EXPECT_NE(reused.body, Get("GET /v1/explore?vertex=2&k=4").body);
}

TEST_F(ApiFixture, UnknownParamsRejectedOnV1Only) {
  EXPECT_EQ(ErrorCode("GET /v1/search?name=a&bogus=1", 400),
            "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("GET /v1/history?extra=param", 400), "INVALID_ARGUMENT");
  // 'session' is universal and always accepted.
  EXPECT_EQ(Get("GET /v1/history?session=").code, 200);

  // Payloads travel only in the body: the query-string forms of earlier
  // releases are unknown parameters.
  const std::string entries = UrlEncode("[{\"name\": \"a\", \"k\": 2}]");
  const std::string spec = UrlEncode("{\"algo\": \"Louvain\"}");
  for (const std::string& request :
       {"POST /v1/batch?requests=" + entries,
        "POST /v1/batch?requests=" + entries + "\n\n" +
            "[{\"name\": \"a\", \"k\": 2}]",
        "POST /v1/jobs?request=" + spec, "GET /v1/jobs?request=" + spec}) {
    JsonValue error = GetJson(request, 400).Get("error");
    EXPECT_EQ(error.Get("code").AsString(), "INVALID_ARGUMENT") << request;
    EXPECT_EQ(error.Get("message").AsString().rfind("unknown parameter", 0), 0u)
        << request;
  }
  // A GET on /v1/jobs only lists: nothing was submitted above.
  EXPECT_TRUE(GetJson("GET /v1/jobs").Get("jobs").Items().empty());
  EXPECT_EQ(GetJson("GET /v1/healthz").Get("jobs").AsInt(), 0);
}

TEST_F(ApiFixture, MethodPolicy) {
  EXPECT_EQ(ErrorCode("POST /v1/search?name=a", 405), "INVALID_ARGUMENT");
  // /v1/batch takes its entries in a POST body; there is no GET form.
  EXPECT_EQ(ErrorCode("GET /v1/batch", 405), "INVALID_ARGUMENT");
}

// --------------------------------------------------------------------------
// Mutation routes: POST/DELETE /v1/edges, POST /v1/vertices, /v1/compact
// --------------------------------------------------------------------------

TEST_F(ApiFixture, MutationRoutes) {
  JsonValue added =
      GetJson("POST /v1/edges\n\n{\"edges\": [[8, 9], [7, 9]]}");
  EXPECT_TRUE(added.Get("applied").AsBool());
  EXPECT_EQ(added.Get("edges_added").AsInt(), 2);
  EXPECT_GT(added.Get("graph_epoch").AsInt(), 0);

  JsonValue removed = GetJson("DELETE /v1/edges\n\n{\"edges\": [[8, 9]]}");
  EXPECT_EQ(removed.Get("edges_removed").AsInt(), 1);
  EXPECT_GT(removed.Get("graph_epoch").AsInt(),
            added.Get("graph_epoch").AsInt());

  JsonValue vertex = GetJson(
      "POST /v1/vertices\n\n"
      "{\"vertices\": [{\"name\": \"K\", \"keywords\": [\"x\"]}]}");
  EXPECT_EQ(vertex.Get("vertices_added").AsInt(), 1);
  EXPECT_EQ(vertex.Get("vertices").AsInt(), 11);

  JsonValue compacted = GetJson("POST /v1/compact");
  EXPECT_TRUE(compacted.Get("compacted").AsBool());
  EXPECT_EQ(compacted.Get("storage").AsString(), "owned");

  // The body is the one payload form, in one shape per route: the
  // query-string form is an unknown parameter, and a bare array is not a
  // mutation batch. None of these changes the graph.
  const std::string edges = "[[8, 9]]";
  const std::string vertices = "[{\"name\": \"L\"}]";
  for (const std::string& request :
       {"POST /v1/edges?edges=" + UrlEncode(edges),
        "DELETE /v1/edges?edges=" + UrlEncode(edges),
        "POST /v1/vertices?vertices=" + UrlEncode(vertices)}) {
    JsonValue error = GetJson(request, 400).Get("error");
    EXPECT_EQ(error.Get("message").AsString().rfind("unknown parameter", 0), 0u)
        << request;
  }
  for (const std::string& request :
       {"POST /v1/edges\n\n" + edges, "DELETE /v1/edges\n\n" + edges,
        "POST /v1/vertices\n\n" + vertices}) {
    EXPECT_EQ(ErrorCode(request, 400), "INVALID_ARGUMENT") << request;
  }
  JsonValue index = GetJson("GET /v1/index");
  EXPECT_EQ(index.Get("vertices").AsInt(), 11);
  EXPECT_EQ(index.Get("edges").AsInt(), 12);
}

TEST_F(ApiFixture, MutationMethodPolicyAndErrors) {
  EXPECT_EQ(ErrorCode("GET /v1/edges", 405), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("GET /v1/vertices", 405), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("GET /v1/compact", 405), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("DELETE /v1/vertices", 405), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("POST /v1/edges\n\nnot json", 400),
            "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("POST /v1/edges\n\n{\"edges\": [[0, 99]]}", 400),
            "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("POST /v1/edges\n\n{\"edges\": [[0, 0]]}", 400),
            "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("POST /v1/edges", 400), "INVALID_ARGUMENT");

  // Mutating before any upload is a CONFLICT, like every other query.
  CExplorerServer empty;
  EXPECT_EQ(empty.Handle("POST /v1/edges\n\n{\"edges\": [[0, 1]]}").code,
            409);
}

TEST_F(ApiFixture, DeeplyNestedBodiesAnswer400) {
  // Nesting past the JSON reader's bound is a parse error like any other
  // malformed body; the process keeps serving.
  const std::string deep(100000, '[');
  EXPECT_EQ(ErrorCode("POST /v1/batch\n\n" + deep, 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("POST /v1/edges\n\n" + deep, 400), "INVALID_ARGUMENT");
  EXPECT_EQ(ErrorCode("POST /v1/vertices\n\n" + deep, 400), "INVALID_ARGUMENT");
  Get("GET /v1/healthz");
}

// --------------------------------------------------------------------------
// Structured error envelopes with correct HTTP statuses
// --------------------------------------------------------------------------

TEST_F(ApiFixture, ErrorEnvelopeTaxonomy) {
  EXPECT_EQ(ErrorCode("GET /v1/search?name=zzz", 404), "NOT_FOUND");
  EXPECT_EQ(ErrorCode("GET /v1/search?name=a&algo=Nope", 404), "NOT_FOUND");
  EXPECT_EQ(ErrorCode("GET /v1/community?id=7", 404), "NOT_FOUND");
  EXPECT_EQ(ErrorCode("GET /v1/search?name=a&session=nope", 404), "NOT_FOUND");
  EXPECT_EQ(ErrorCode("GET /nope", 404), "NOT_FOUND");
  EXPECT_EQ(ErrorCode("GET /v1/search?k=4", 400), "INVALID_ARGUMENT");

  CExplorerServer empty;
  HttpResponse r = empty.Handle("GET /v1/search?name=a");
  EXPECT_EQ(r.code, 409);
  auto v = JsonValue::Parse(r.body);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("error").Get("code").AsString(), "CONFLICT");
  EXPECT_FALSE(v->Get("error").Get("message").AsString().empty());
}

TEST_F(ApiFixture, OutOfRangeGraphFileIdsAnswer400) {
  // Graph-file vertex ids must lie below 2^32 - 1. Cast unchecked,
  // 4294967297 wrapped to vertex 1; sized by, a huge declared id aborted
  // the process (std::length_error) and one below 2^32 asked for a
  // 4-billion-entry table.
  const std::vector<std::string> files = {
      "v\t0\ta\nv\t1\tb\nv\t2\tc\ne\t4294967297\t2\n",
      "v\t9000000000000000000\tb\n",
      "v\t0\ta\nv\t4294967294\tb\n",
  };
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::string path =
        ::testing::TempDir() + "/api_bad_ids_" + std::to_string(i) + ".attr";
    {
      std::ofstream out(path);
      out << files[i];
    }
    EXPECT_EQ(ErrorCode("GET /v1/upload?path=" + UrlEncode(path), 400),
              "INVALID_ARGUMENT")
        << files[i];
    Get("GET /v1/healthz");
  }
  EXPECT_EQ(GetJson("GET /v1/index").Get("vertices").AsInt(), 10);
}

TEST_F(ApiFixture, SurrogatePairNameRoundTrip) {
  // The JSON body spells U+1F600 as a surrogate pair; the stored name is
  // its 4-byte UTF-8 encoding, which a percent-encoded lookup finds.
  JsonValue added = GetJson(
      "POST /v1/vertices\n\n"
      "{\"vertices\": [{\"name\": \"\\ud83d\\ude00 ada\"}]}");
  EXPECT_EQ(added.Get("vertices_added").AsInt(), 1);
  JsonValue author = GetJson("GET /v1/author?name=%F0%9F%98%80%20ada");
  EXPECT_EQ(author.Get("name").AsString(), "\xF0\x9F\x98\x80 ada");
}

// --------------------------------------------------------------------------
// Pagination: /v1/community and /v1/cluster with limit/cursor
// --------------------------------------------------------------------------

TEST_F(ApiFixture, CommunityPaginationRoundTrip) {
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&algo=ACQ");
  JsonValue full = GetJson("GET /v1/community?id=0");
  const auto& all = full.Get("community").Get("members").Items();
  ASSERT_EQ(all.size(), 3u);

  // Page through with limit=2: 2 + 1 members, in the same stable order.
  JsonValue page0 = GetJson("GET /v1/community?id=0&limit=2");
  EXPECT_EQ(page0.Get("page").Get("offset").AsInt(), 0);
  EXPECT_EQ(page0.Get("page").Get("returned").AsInt(), 2);
  EXPECT_EQ(page0.Get("page").Get("total").AsInt(), 3);
  ASSERT_TRUE(page0.Get("page").Has("next_cursor"));
  const std::string cursor = page0.Get("page").Get("next_cursor").AsString();

  JsonValue page1 =
      GetJson("GET /v1/community?id=0&limit=2&cursor=" + UrlEncode(cursor));
  EXPECT_EQ(page1.Get("page").Get("offset").AsInt(), 2);
  EXPECT_EQ(page1.Get("page").Get("returned").AsInt(), 1);
  EXPECT_FALSE(page1.Get("page").Has("next_cursor"));

  std::vector<std::string> paged;
  for (const auto& m : page0.Get("community").Get("members").Items()) {
    paged.push_back(m.Get("name").AsString());
  }
  for (const auto& m : page1.Get("community").Get("members").Items()) {
    paged.push_back(m.Get("name").AsString());
  }
  ASSERT_EQ(paged.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(paged[i], all[i].Get("name").AsString());
  }

  // The paginated shape skips the whole-community layout/ascii rendering.
  EXPECT_FALSE(page0.Has("layout"));
  EXPECT_TRUE(full.Has("layout"));
}

TEST_F(ApiFixture, CursorStabilityAcrossIdenticalSnapshots) {
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&algo=ACQ");
  JsonValue page0 = GetJson("GET /v1/community?id=0&limit=1");
  const std::string cursor = page0.Get("page").Get("next_cursor").AsString();
  // Replaying the same cursor against the same snapshot returns the same
  // page, byte for byte.
  HttpResponse a =
      Get("GET /v1/community?id=0&limit=1&cursor=" + UrlEncode(cursor));
  HttpResponse b =
      Get("GET /v1/community?id=0&limit=1&cursor=" + UrlEncode(cursor));
  EXPECT_EQ(a.body, b.body);
}

TEST_F(ApiFixture, CursorValidation) {
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&algo=ACQ");
  EXPECT_EQ(ErrorCode("GET /v1/community?id=0&cursor=garbage", 400),
            "INVALID_ARGUMENT");

  JsonValue page0 = GetJson("GET /v1/community?id=0&limit=1");
  const std::string cursor = page0.Get("page").Get("next_cursor").AsString();

  // A cursor minted for a different community id is rejected.
  auto token = api::PageToken::Decode(cursor);
  ASSERT_TRUE(token.ok());
  api::PageToken foreign = token.value();
  foreign.object_id = 1;
  EXPECT_EQ(ErrorCode("GET /v1/community?id=0&cursor=" +
                          UrlEncode(foreign.Encode()),
                      400),
            "INVALID_ARGUMENT");

  // A community cursor cannot page a cluster, even with matching ids.
  GetJson("GET /v1/detect?algo=CODICIL");
  EXPECT_EQ(
      ErrorCode("GET /v1/cluster?id=0&cursor=" + UrlEncode(cursor), 400),
      "INVALID_ARGUMENT");

  // A negative limit is rejected instead of silently degrading to the
  // unpaginated full response.
  EXPECT_EQ(ErrorCode("GET /v1/community?id=0&limit=-5", 400),
            "INVALID_ARGUMENT");
}

TEST_F(ApiFixture, CursorConflictAfterNewSearch) {
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&algo=ACQ");
  JsonValue page0 = GetJson("GET /v1/community?id=0&limit=1");
  const std::string cursor = page0.Get("page").Get("next_cursor").AsString();

  // A second search replaces the session's cached result set (same graph,
  // same epoch). The outstanding cursor must not silently page into the
  // new communities: it answers kConflict.
  GetJson("GET /v1/search?name=b&k=2&algo=Global");
  EXPECT_EQ(
      ErrorCode("GET /v1/community?id=0&cursor=" + UrlEncode(cursor), 409),
      "CONFLICT");

  // Fresh pagination of the new result set works.
  EXPECT_EQ(Get("GET /v1/community?id=0&limit=1").code, 200);
}

TEST_F(ApiFixture, CursorConflictAfterUpload) {
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&algo=ACQ");
  JsonValue page0 = GetJson("GET /v1/community?id=0&limit=1");
  const std::string stale = page0.Get("page").Get("next_cursor").AsString();

  // Swap the graph (new graph epoch), then rebuild the session cache.
  const std::string path = ::testing::TempDir() + "/api_cursor_reload.attr";
  ASSERT_TRUE(SaveAttributed(Figure5Graph(), path).ok());
  GetJson("GET /v1/upload?path=" + UrlEncode(path));
  GetJson("GET /v1/search?name=a&k=2&keywords=x,y&algo=ACQ");

  // The fresh cache serves fresh pages, but the pre-upload cursor refers
  // to a superseded snapshot: kConflict, not silently wrong members.
  EXPECT_EQ(Get("GET /v1/community?id=0&limit=1").code, 200);
  EXPECT_EQ(
      ErrorCode("GET /v1/community?id=0&cursor=" + UrlEncode(stale), 409),
      "CONFLICT");
}

TEST_F(ApiFixture, ClusterPagination) {
  GetJson("GET /v1/detect?algo=CODICIL");
  JsonValue full = GetJson("GET /v1/cluster?id=0");
  const auto& all = full.Get("community").Get("members").Items();
  ASSERT_GE(all.size(), 1u);

  std::vector<std::string> paged;
  std::string request = "GET /v1/cluster?id=0&limit=1";
  for (;;) {
    JsonValue page = GetJson(request);
    for (const auto& m : page.Get("community").Get("members").Items()) {
      paged.push_back(m.Get("name").AsString());
    }
    if (!page.Get("page").Has("next_cursor")) break;
    request = "GET /v1/cluster?id=0&limit=1&cursor=" +
              UrlEncode(page.Get("page").Get("next_cursor").AsString());
  }
  ASSERT_EQ(paged.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(paged[i], all[i].Get("name").AsString());
  }
}

// The shapes that lay out a whole community (/v1/community without a page,
// /v1/export) refuse one above 2,000 members: the all-pairs force layout
// would run for seconds to minutes under the session lock. A ring of
// 2,100 authors, each linked to its next four and all sharing one keyword,
// is one ACQ community at k=4 (every author has degree 8).
TEST(FullShapeLimitTest, CommunityAboveTheLimitNeedsAPage) {
  constexpr std::uint32_t kRing = 2100;
  AttributedGraphBuilder b;
  for (std::uint32_t v = 0; v < kRing; ++v) {
    b.AddVertex("author" + std::to_string(v), {"db"});
  }
  for (std::uint32_t v = 0; v < kRing; ++v) {
    for (std::uint32_t step = 1; step <= 4; ++step) {
      ASSERT_TRUE(b.AddEdge(v, (v + step) % kRing).ok());
    }
  }
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(std::move(b).Build()).ok());
  ASSERT_EQ(server.Handle("GET /v1/search?vertex=0&k=4&keywords=db").code, 200);

  for (const char* request :
       {"GET /v1/community?id=0", "GET /v1/export?id=0"}) {
    HttpResponse refused = server.Handle(request);
    EXPECT_EQ(refused.code, 400) << request;
    auto error = JsonValue::Parse(refused.body);
    ASSERT_TRUE(error.ok()) << refused.body;
    EXPECT_EQ(error->Get("error").Get("code").AsString(), "INVALID_ARGUMENT");
    const std::string message = error->Get("error").Get("message").AsString();
    EXPECT_NE(message.find("2100"), std::string::npos) << message;
    EXPECT_NE(message.find("limit="), std::string::npos) << message;
  }

  HttpResponse page = server.Handle("GET /v1/community?id=0&limit=50");
  ASSERT_EQ(page.code, 200) << page.body;
  auto v = JsonValue::Parse(page.body);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("page").Get("total").AsInt(), kRing);
  EXPECT_EQ(v->Get("stats").Get("vertices").AsInt(), kRing);
  EXPECT_EQ(v->Get("stats").Get("edges").AsInt(), 4 * kRing);
}

// --------------------------------------------------------------------------
// POST /v1/batch with a JSON body
// --------------------------------------------------------------------------

TEST_F(ApiFixture, BatchPostBody) {
  const std::string body =
      "[{\"name\": \"a\", \"k\": 2, \"keywords\": [\"x\", \"y\"]},"
      " {\"name\": \"nobody\"}]";
  HttpResponse post = Get("POST /v1/batch\n\n" + body);
  auto v = JsonValue::Parse(post.body);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("count").AsInt(), 2);
  const auto& results = v->Get("results").Items();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].Get("num_communities").AsInt(), 1);
  // Per-slot failures carry the structured envelope value.
  EXPECT_EQ(results[1].Get("error").Get("code").AsString(), "NOT_FOUND");

  // An empty payload is an invalid argument.
  EXPECT_EQ(ErrorCode("POST /v1/batch", 400), "INVALID_ARGUMENT");
}

TEST_F(ApiFixture, MistypedSearchFieldsRejected) {
  const std::string good =
      "{\"name\": \"a\", \"k\": 2, \"keywords\": [\"x\", \"y\"]}";
  for (const std::string bad : {
           "{\"name\": \"a\", \"k\": 2, \"keywords\": 7}",
           "{\"name\": \"a\", \"k\": 2, \"keywords\": {\"x\": 1}}",
           "{\"name\": \"a\", \"k\": 2, \"keywords\": [\"x\", 7]}",
           "{\"name\": \"a\", \"k\": 2, \"algo\": 5}",
           "{\"name\": 5, \"vertex\": 0, \"k\": 2}"}) {
    const JsonValue v =
        GetJson("POST /v1/batch\n\n[" + good + ", " + bad + ", " + good + "]");
    const auto& results = v.Get("results").Items();
    ASSERT_EQ(results.size(), 3u) << bad;
    EXPECT_EQ(results[1].Get("error").Get("code").AsString(),
              "INVALID_ARGUMENT")
        << bad;
    for (std::size_t i : {0u, 2u}) {
      EXPECT_FALSE(results[i].Has("error")) << bad;
      EXPECT_EQ(results[i].Get("num_communities").AsInt(), 1) << bad;
    }
  }
  // An absent or null `keywords` still means none.
  const JsonValue v = GetJson(
      "POST /v1/batch\n\n[{\"name\": \"a\", \"k\": 2},"
      " {\"name\": \"a\", \"k\": 2, \"keywords\": null}]");
  for (const JsonValue& result : v.Get("results").Items()) {
    EXPECT_FALSE(result.Has("error")) << result.Dump();
  }
  // A job spec decodes its keywords the same way.
  EXPECT_EQ(ErrorCode("POST /v1/jobs\n\n{\"algo\": \"ACQ\", \"name\": \"a\","
                      " \"keywords\": 7}",
                      400),
            "INVALID_ARGUMENT");
}

// --------------------------------------------------------------------------
// QueryService as the typed embedder API
// --------------------------------------------------------------------------

TEST(QueryServiceTest, TypedRequestsSharedWithHttp) {
  api::QueryService service;
  ASSERT_TRUE(service.UploadGraph(Figure5Graph()).ok());

  api::SearchRequest search;
  search.name = "a";
  search.k = 2;
  search.keywords = {"x", "y"};
  auto result = service.Search(search);
  ASSERT_TRUE(result.ok());
  auto v = JsonValue::Parse(result.value());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("num_communities").AsInt(), 1);

  // Multi-vertex queries are first-class in the typed API.
  api::SearchRequest multi;
  multi.vertices = {0, 2};
  multi.k = 2;
  multi.keywords = {"x", "y"};
  ASSERT_TRUE(service.Search(multi).ok());

  // Cross-field validation lives in the facade, not the HTTP layer.
  auto invalid = service.Search(api::SearchRequest{});
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.error().code, api::ApiCode::kInvalidArgument);

  api::SearchRequest ghost;
  ghost.name = "a";
  ghost.session = "nope";
  auto unknown = service.Search(ghost);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.error().code, api::ApiCode::kNotFound);
}

TEST(QueryServiceTest, PageTokenRoundTrip) {
  api::PageToken token;
  token.graph_epoch = 42;
  token.kind = api::PageToken::Kind::kCluster;
  token.object_id = 7;
  token.generation = 3;
  token.offset = 1900;
  auto decoded = api::PageToken::Decode(token.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->graph_epoch, 42u);
  EXPECT_EQ(decoded->kind, api::PageToken::Kind::kCluster);
  EXPECT_EQ(decoded->object_id, 7u);
  EXPECT_EQ(decoded->generation, 3u);
  EXPECT_EQ(decoded->offset, 1900u);

  EXPECT_FALSE(api::PageToken::Decode("").ok());
  EXPECT_FALSE(api::PageToken::Decode("g1-t0-i2").ok());
  EXPECT_FALSE(api::PageToken::Decode("g1-t0-i2-o3").ok());  // no generation
  EXPECT_FALSE(api::PageToken::Decode("gx-t0-iy-r1-oz").ok());
  EXPECT_FALSE(api::PageToken::Decode("g1-t9-i2-r1-o3").ok());  // bad kind
  EXPECT_FALSE(api::PageToken::Decode("g1-t0-i2-r1-o-3").ok());
}

TEST(QueryServiceTest, PageTokenRejectsTrailingAndPaddedBytes) {
  // Regression: fields are digits-only to their exact boundaries. Bytes
  // after the offset field (or whitespace padding anywhere) used to be
  // silently ignored by the integer parser; every deviation is now a
  // malformed cursor.
  ASSERT_TRUE(api::PageToken::Decode("g1-t0-i2-r1-o3").ok());
  EXPECT_FALSE(api::PageToken::Decode("g1-t0-i2-r1-o3 ").ok());
  EXPECT_FALSE(api::PageToken::Decode("g1-t0-i2-r1-o3\n").ok());
  EXPECT_FALSE(api::PageToken::Decode("g1-t0-i2-r1-o3junk").ok());
  EXPECT_FALSE(api::PageToken::Decode("g1-t0-i2-r1-o 3").ok());
  EXPECT_FALSE(api::PageToken::Decode(" g1-t0-i2-r1-o3").ok());
  EXPECT_FALSE(api::PageToken::Decode("g 1-t0-i2-r1-o3").ok());
  EXPECT_FALSE(api::PageToken::Decode("g1-t0-i2-r1-o+3").ok());
  EXPECT_FALSE(api::PageToken::Decode("g1-t0-i2-r1-o").ok());  // empty field
  // Overflow-sized fields are rejected, not wrapped.
  EXPECT_FALSE(
      api::PageToken::Decode("g1-t0-i2-r1-o99999999999999999999999").ok());
}

TEST(QueryServiceTest, ErrorEnvelopeJson) {
  api::ApiError error =
      api::ApiError::Conflict("snapshot superseded", "retry the request");
  auto v = JsonValue::Parse(error.ToJson());
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Get("error").Get("code").AsString(), "CONFLICT");
  EXPECT_EQ(v->Get("error").Get("message").AsString(), "snapshot superseded");
  EXPECT_EQ(v->Get("error").Get("detail").AsString(), "retry the request");
  EXPECT_EQ(api::HttpStatus(api::ApiCode::kConflict), 409);
}

}  // namespace
}  // namespace cexplorer
