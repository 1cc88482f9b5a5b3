// Measures the cost of the typed /v1 API surface: request parsing,
// declarative schema validation, and table dispatch, next to a full
// Handle() of the same search.
//
//   $ ./bench_api_dispatch
//
// Emits BENCH_JSON lines:
//   api_parse_validate   parse + schema-validate only (no handler)
//   api_dispatch_v1      full Handle() of /v1/search
//   api_dispatch_history full Handle() of /v1/history (near-zero handler,
//                        upper bound on the framework share)

#include <cstdio>
#include <string>

#include "api/routes.h"
#include "bench/bench_common.h"
#include "common/timer.h"
#include "data/dblp.h"
#include "server/http.h"
#include "server/server.h"

namespace cexplorer {
namespace {

constexpr int kWarmup = 200;
constexpr int kIterations = 5000;

/// Mean milliseconds per call of `fn` over kIterations (after warmup).
template <typename Fn>
double MeanMillis(Fn&& fn) {
  for (int i = 0; i < kWarmup; ++i) fn();
  Timer timer;
  for (int i = 0; i < kIterations; ++i) fn();
  return timer.ElapsedMillis() / kIterations;
}

int Run() {
  DblpOptions options;
  options.num_authors = 2000;
  options.num_areas = 12;
  options.vocabulary_size = 400;
  options.seed = 2017;
  DblpDataset data = GenerateDblp(options);

  CExplorerServer server;
  if (!server.UploadGraph(std::move(data.graph)).ok()) {
    std::printf("upload failed\n");
    return 1;
  }
  const AttributedGraph& graph = server.dataset()->graph();
  const VertexId q =
      bench::PickQueryAuthor(graph, server.dataset()->core_numbers());
  auto kws = graph.KeywordStrings(q);
  std::string keywords;
  for (std::size_t i = 0; i < kws.size() && i < 3; ++i) {
    if (i) keywords += ',';
    keywords += UrlEncode(kws[i]);
  }
  const std::string query = "?name=" + UrlEncode(graph.Name(q)) +
                            "&k=4&keywords=" + keywords + "&algo=ACQ";
  const std::string v1_line = "GET /v1/search" + query;

  bench::Banner("API dispatch overhead",
                "parse + validate + lookup is a small share of a search");

  const std::size_t n = graph.num_vertices();
  const std::size_t m = graph.graph().num_edges();

  // Parse + validate only: the pure framework cost of the typed surface.
  const double parse_ms = MeanMillis([&] {
    auto request = ParseRequest(v1_line);
    const api::RouteSpec* route = api::FindRoute(request->path, nullptr);
    if (route == nullptr) std::abort();
    if (api::ValidateParams(*route, request.value())) std::abort();
  });
  std::printf("parse+validate+lookup (/v1/search): %.4f ms\n", parse_ms);
  bench::EmitJsonLine("api_parse_validate", n, m, 1, parse_ms);

  // Measured before the search loops below, which append one history entry
  // per call and would otherwise dominate this number with serialization.
  const double history_ms =
      MeanMillis([&] { (void)server.Handle("GET /v1/history"); });
  std::printf("Handle(GET /v1/history): %.4f ms\n", history_ms);
  bench::EmitJsonLine("api_dispatch_history", n, m, 1, history_ms);

  const double v1_ms = MeanMillis([&] { (void)server.Handle(v1_line); });
  std::printf("Handle(%s): %.4f ms\n", v1_line.c_str(), v1_ms);
  bench::EmitJsonLine("api_dispatch_v1", n, m, 1, v1_ms);
  return 0;
}

}  // namespace
}  // namespace cexplorer

int main() { return cexplorer::Run(); }
