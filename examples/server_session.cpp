// A scripted browser session against the in-process C-Explorer server —
// the browser-server loop of the paper's Figure 3 without Tomcat. Each
// request line is printed with its JSON response, walking through the
// whole demo: upload, search, view, profile, explore, compare, history —
// then a second act: two sessions created via /v1/session/new interleave
// their own explorations of the same shared dataset (the graph is indexed
// exactly once, at upload).
//
//   $ ./server_session
//
// Exits 1 when any scripted request other than the deliberate unknown
// route answers a non-2xx status.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "data/dblp.h"
#include "explorer/dataset.h"
#include "server/http.h"
#include "server/server.h"

namespace {

/// Scripted requests that answered a non-2xx status.
int g_failures = 0;

void Show(cexplorer::CExplorerServer* server, const std::string& request,
          bool expect_ok = true) {
  cexplorer::HttpResponse response = server->Handle(request);
  if (expect_ok && (response.code < 200 || response.code >= 300)) {
    ++g_failures;
  }
  std::printf(">>> %s\n<<< [%d] ", request.c_str(), response.code);
  // Truncate very long bodies for readability.
  if (response.body.size() > 900) {
    std::printf("%s... (%zu bytes)\n\n", response.body.substr(0, 900).c_str(),
                response.body.size());
  } else {
    std::printf("%s\n\n", response.body.c_str());
  }
}

}  // namespace

int main() {
  using namespace cexplorer;

  CExplorerServer server;

  // Stage the dataset in-memory (/v1/upload also accepts files).
  DblpOptions options;
  options.num_authors = 5000;
  options.num_areas = 16;
  options.vocabulary_size = 800;
  options.seed = 2017;
  DblpDataset data = GenerateDblp(options);
  if (Status st = server.UploadGraph(std::move(data.graph));
      !st.ok()) {
    std::printf("upload failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Choose the demo author (best embedded).
  DatasetPtr dataset = server.dataset();
  const AttributedGraph& graph = dataset->graph();
  VertexId q = 0;
  for (VertexId v = 1; v < graph.num_vertices(); ++v) {
    if (dataset->core_numbers()[v] > dataset->core_numbers()[q]) {
      q = v;
    }
  }
  const std::string name = UrlEncode(graph.Name(q));
  auto kws = graph.KeywordStrings(q);
  std::string keywords;
  for (std::size_t i = 0; i < kws.size() && i < 4; ++i) {
    if (i) keywords += ',';
    keywords += UrlEncode(kws[i]);
  }

  // GET /v1/api describes every route and its parameter schema, and
  // /v1/batch takes a POST body (a JSON array of search entries).
  const std::vector<std::string> session = {
      "GET /v1/api",
      "GET /v1/index",
      "GET /v1/search?name=" + name + "&k=4&keywords=" + keywords +
          "&algo=ACQ",
      "GET /v1/community?id=0&limit=5",
      "GET /v1/profile?vertex=" + std::to_string(q),
      "GET /v1/explore?vertex=" + std::to_string(q) + "&k=3&algo=Global",
      "GET /v1/compare?name=" + name + "&k=4&keywords=" + keywords +
          "&algos=Global,Local,ACQ",
      "GET /v1/history",
      "POST /v1/batch\n\n[{\"vertex\": " + std::to_string(q) +
          ", \"k\": 4}, {\"name\": \"nobody\"}]",
  };

  for (const auto& request : session) Show(&server, request);
  Show(&server, "GET /no_such_route", /*expect_ok=*/false);  // a 404

  // --- Act two: concurrent sessions over the shared dataset ---------------
  // Each /v1/session/new is a cheap view onto the same immutable snapshot;
  // note the index was built once, at upload, no matter how many sessions
  // join (index builds so far are visible in Dataset::TotalIndexBuilds()).
  std::printf("---- multi-session: two browsers share one dataset ----\n\n");
  const std::uint64_t builds = Dataset::TotalIndexBuilds();

  auto session_id = [&server](const char* route) -> std::string {
    auto response = server.Handle(route);
    // Tiny extraction; a 200 body is {"session":"sN"}.
    auto start = response.body.find("\"session\":\"");
    if (response.code != 200 || start == std::string::npos) {
      std::printf("session creation failed: [%d] %s\n", response.code,
                  response.body.c_str());
      std::exit(1);
    }
    start += 11;
    return response.body.substr(start, response.body.find('"', start) - start);
  };
  const std::string alice = session_id("GET /v1/session/new");
  const std::string bob = session_id("GET /v1/session/new");

  Show(&server, "GET /v1/search?name=" + name + "&k=4&keywords=" + keywords +
                    "&algo=ACQ&session=" + alice);
  Show(&server, "GET /v1/explore?vertex=" + std::to_string(q) +
                    "&k=3&algo=Global&session=" + bob);
  Show(&server, "GET /v1/history?session=" + alice);
  Show(&server, "GET /v1/history?session=" + bob);
  Show(&server, "GET /v1/sessions");

  std::printf("index builds during the multi-session act: %llu (dataset "
              "shared, built once at upload)\n\n",
              static_cast<unsigned long long>(Dataset::TotalIndexBuilds() -
                                              builds));

  // --- Act three: asynchronous jobs ---------------------------------------
  // Long algorithms run as jobs on the worker pool: submit pins the
  // current snapshot, progress/state are observable while it runs, DELETE
  // cancels cooperatively (the worker is freed at the algorithm's next
  // checkpoint), and a finished job serves its result through the cursor
  // machinery.
  std::printf("---- jobs: submit, observe, cancel ----\n\n");

  auto job_id = [&server](const std::string& spec) -> std::string {
    auto response = server.Handle("POST /v1/jobs\n\n" + spec);
    auto start = response.body.find("\"id\":\"");
    if (response.code != 200 || start == std::string::npos) {
      std::printf("job submit failed: [%d] %s\n", response.code,
                  response.body.c_str());
      std::exit(1);
    }
    start += 6;
    return response.body.substr(start, response.body.find('"', start) - start);
  };

  // A Girvan-Newman detection would run for minutes on this graph; watch
  // it start, then cancel it and observe the CANCELLED terminal state.
  const std::string gn = job_id(
      "{\"algo\": \"GirvanNewman\", \"params\": {\"max_edges\": \"100000\"}}");
  Show(&server, "GET /v1/jobs/" + gn);
  Show(&server, "DELETE /v1/jobs/" + gn);
  // The cancel lands at the next betweenness-source checkpoint.
  for (int i = 0; i < 1000; ++i) {
    auto state = server.Handle("GET /v1/jobs/" + gn);
    if (state.body.find("\"state\":\"CANCELLED\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Show(&server, "GET /v1/jobs/" + gn);

  // A tractable detection runs to DONE; its result pages like /v1/cluster.
  const std::string louvain = job_id("{\"algo\": \"Louvain\"}");
  for (int i = 0; i < 5000; ++i) {
    auto state = server.Handle("GET /v1/jobs/" + louvain);
    if (state.body.find("\"state\":\"DONE\"") != std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  Show(&server, "GET /v1/jobs/" + louvain);
  Show(&server, "GET /v1/jobs/" + louvain + "/result?member_of=0&limit=5");
  Show(&server, "GET /v1/jobs");

  if (g_failures != 0) {
    std::printf("%d scripted request(s) answered a non-2xx status\n",
                g_failures);
    return 1;
  }
  return 0;
}
