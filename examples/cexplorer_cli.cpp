// cexplorer_cli: an interactive terminal browser for C-Explorer — the
// closest thing to the paper's web UI that fits in a terminal. Commands
// are translated into typed QueryService requests, so the CLI exercises
// exactly the facade behind the /v1 HTTP routes (same validation, same
// session semantics, same JSON bodies — the HTTP server is a thin binder
// over the identical calls). Reads commands from stdin, so it works both
// interactively and scripted:
//
//   $ ./cexplorer_cli                          # synthetic DBLP, 10k authors
//   $ ./cexplorer_cli graph.attr               # your own attributed graph
//   $ echo -e "demo\nsearch jim gray\nquit" | ./cexplorer_cli
//
// Commands:
//   open <path>                load an attributed graph file
//   author <name>              show the query form data for an author
//   search <name> [k] [kw,..]  run ACQ (use 'algo <name>' to switch)
//   algo <Global|Local|CODICIL|ACQ>
//   view <i> [limit] [cursor]  display community i (ASCII; paged when a
//                              limit or cursor is given)
//   zoom <factor>              set the view zoom
//   profile <name|#id>         author profile popup
//   explore <#id> [k]          continue exploration from a community member
//   compare <name> [k]         Figure 6(a) table
//   detect [algo]              community detection summary
//   export <i> <file.svg>      save community i as SVG
//   snapshot save <file>       write the dataset as a zero-copy snapshot
//   snapshot load <file>       mmap a snapshot and swap it in (instant start)
//   link <u> <v> [u v ...]     insert edges (one atomic mutation batch);
//                              reports the publish latency
//   unlink <u> <v> [u v ...]   remove edges (one atomic mutation batch);
//                              same publish report as link
//   addvertex <name> [kw,..]   append a vertex with a name and keywords
//   compact                    fold the mutation overlay into an owned
//                              dataset now; reports the fold latency
//   demo                       run a canned exploration session
//   help / quit
//
// (This file is deliberately a thin shell: every feature goes through the
// public QueryService API.)

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/query_service.h"
#include "common/json.h"
#include "common/timer.h"
#include "common/strings.h"
#include "data/dblp.h"

namespace {

using namespace cexplorer;

/// Pretty-prints the interesting parts of a JSON response body.
void ShowResponse(const api::ApiResult<std::string>& result) {
  if (!result.ok()) {
    std::printf("  [%d] %s\n", api::HttpStatus(result.error().code),
                result.error().ToJson().c_str());
    return;
  }
  const std::string& body = result.value();
  auto v = JsonValue::Parse(body);
  if (!v.ok()) {
    std::printf("%s\n", body.c_str());
    return;
  }
  // Render a few well-known shapes nicely; fall back to raw JSON.
  if (v->Has("communities")) {
    const auto& communities = v->Get("communities").Items();
    std::printf("  %zu communities:\n", communities.size());
    for (std::size_t i = 0; i < communities.size(); ++i) {
      const auto& c = communities[i];
      std::printf("   [%zu] %lld members", i,
                  static_cast<long long>(c.Get("size").AsInt()));
      const auto& theme = c.Get("theme").Items();
      if (!theme.empty()) {
        std::printf(", theme:");
        for (const auto& w : theme) std::printf(" %s", w.AsString().c_str());
      }
      std::printf("\n");
    }
    std::printf("  (view <i> to display, export <i> <file.svg> to save)\n");
  } else if (v->Has("page")) {
    const auto& members = v->Get("community").Get("members").Items();
    const auto& page = v->Get("page");
    std::printf("  members %lld..%lld of %lld:\n",
                static_cast<long long>(page.Get("offset").AsInt()),
                static_cast<long long>(page.Get("offset").AsInt() +
                                       page.Get("returned").AsInt()),
                static_cast<long long>(page.Get("total").AsInt()));
    for (const auto& m : members) {
      std::printf("   #%lld %s\n", static_cast<long long>(m.Get("id").AsInt()),
                  m.Get("name").AsString().c_str());
    }
    if (page.Has("next_cursor")) {
      std::printf("  (next page: view <i> %lld %s)\n",
                  static_cast<long long>(page.Get("limit").AsInt()),
                  page.Get("next_cursor").AsString().c_str());
    }
  } else if (v->Has("ascii")) {
    std::printf("%s", v->Get("ascii").AsString().c_str());
  } else if (v->Has("table")) {
    std::printf("%s", v->Get("table").AsString().c_str());
  } else if (v->Has("interests")) {
    std::printf("  Name: %s\n  Institute: %s\n  Interests:",
                v->Get("name").AsString().c_str(),
                v->Get("institute").AsString().c_str());
    for (const auto& w : v->Get("interests").Items()) {
      std::printf(" %s", w.AsString().c_str());
    }
    std::printf("\n");
  } else if (v->Has("degree_constraints")) {
    std::printf("  %s (vertex %lld, degree %lld)\n  degree <= core: 1..%zu\n",
                v->Get("name").AsString().c_str(),
                static_cast<long long>(v->Get("id").AsInt()),
                static_cast<long long>(v->Get("degree").AsInt()),
                v->Get("degree_constraints").Items().size());
    std::printf("  keywords:");
    for (const auto& w : v->Get("keywords").Items()) {
      std::printf(" %s", w.AsString().c_str());
    }
    std::printf("\n");
  } else {
    std::printf("  %s\n", body.c_str());
  }
}

struct CliState {
  api::QueryService service;
  std::string algo = "ACQ";
  double zoom = 1.0;
  std::string last_author;
};

void RunCommand(CliState* state, const std::string& line);

void RunDemo(CliState* state) {
  // Pick the best-embedded author and drive the Figure 1-2 flow.
  DatasetPtr dataset = state->service.dataset();
  if (dataset == nullptr) {
    std::printf("  no graph loaded\n");
    return;
  }
  VertexId q = 0;
  for (VertexId v = 1; v < dataset->graph().num_vertices(); ++v) {
    if (dataset->core_numbers()[v] > dataset->core_numbers()[q]) q = v;
  }
  const std::string name(dataset->graph().Name(q));
  auto kws = dataset->graph().KeywordStrings(q);
  std::string keyword_list;
  for (std::size_t i = 0; i < kws.size() && i < 4; ++i) {
    if (i) keyword_list += ',';
    keyword_list += kws[i];
  }
  std::printf("demo: exploring '%s'\n", name.c_str());
  const std::vector<std::string> script = {
      "author " + name, "search " + name + " 4 " + keyword_list, "view 0",
      "profile " + name, "compare " + name};
  for (const std::string& cmd : script) {
    std::printf("\n> %s\n", cmd.c_str());
    RunCommand(state, cmd);
  }
}

void RunCommand(CliState* state, const std::string& line) {
  auto words = SplitWhitespace(line);
  if (words.empty()) return;
  const std::string& cmd = words[0];
  auto rest_from = [&words](std::size_t i) {
    std::vector<std::string> out(words.begin() + static_cast<std::ptrdiff_t>(i),
                                 words.end());
    return Join(out, " ");
  };

  if (cmd == "open" && words.size() >= 2) {
    api::DatasetRequest request;
    request.path = rest_from(1);
    ShowResponse(state->service.UploadFile(request));
  } else if (cmd == "author" && words.size() >= 2) {
    state->last_author = rest_from(1);
    api::AuthorRequest request;
    request.name = rest_from(1);
    ShowResponse(state->service.Author(request));
  } else if (cmd == "algo" && words.size() == 2) {
    state->algo = words[1];
    std::printf("  algorithm = %s\n", state->algo.c_str());
  } else if (cmd == "search" && words.size() >= 2) {
    // search <name...> [k] [kw1,kw2] — trailing integer = k, trailing
    // comma-list = keywords.
    std::string keywords;
    std::int64_t k = 4;
    std::size_t name_end = words.size();
    if (name_end > 2 && words[name_end - 1].find(',') != std::string::npos) {
      keywords = words[--name_end];
    }
    std::int64_t parsed = 0;
    if (name_end > 2 && ParseInt64(words[name_end - 1], &parsed)) {
      k = parsed;
      --name_end;
    }
    std::string name;
    for (std::size_t i = 1; i < name_end; ++i) {
      if (i > 1) name += ' ';
      name += words[i];
    }
    state->last_author = name;
    api::SearchRequest request;
    request.name = name;
    request.k = static_cast<std::uint32_t>(k);
    request.algo = state->algo;
    request.keywords = SplitNonEmpty(keywords, ',');
    ShowResponse(state->service.Search(request));
  } else if (cmd == "view" && words.size() >= 2) {
    api::CommunityRequest request;
    std::int64_t id = 0;
    ParseInt64(words[1], &id);
    request.id = id;
    if (words.size() >= 3) {
      std::int64_t limit = 0;
      if (ParseInt64(words[2], &limit) && limit > 0) {
        request.page.limit = static_cast<std::uint64_t>(limit);
      }
    }
    if (words.size() >= 4) request.page.cursor = words[3];
    ShowResponse(state->service.Community(request));
  } else if (cmd == "zoom" && words.size() == 2) {
    double z = 1.0;
    if (ParseDouble(words[1], &z) && z > 0) {
      state->zoom = z;
      std::printf("  zoom = %.2f (applies to Display API consumers)\n", z);
    } else {
      std::printf("  bad zoom factor\n");
    }
  } else if (cmd == "profile" && words.size() >= 2) {
    api::ProfileRequest request;
    if (words[1][0] == '#') {
      std::int64_t id = -1;
      ParseInt64(words[1].substr(1), &id);
      request.vertex = id;
    } else {
      request.name = rest_from(1);
    }
    ShowResponse(state->service.Profile(request));
  } else if (cmd == "explore" && words.size() >= 2 && words[1][0] == '#') {
    std::int64_t vertex = -1;
    if (!ParseInt64(words[1].substr(1), &vertex) || vertex < 0) {
      std::printf("  bad vertex id\n");
      return;
    }
    api::ExploreRequest request;
    request.vertex = static_cast<VertexId>(vertex);
    request.algo = state->algo;
    if (words.size() >= 3) {
      std::int64_t k = -1;
      if (ParseInt64(words[2], &k)) request.k = k;
    }
    ShowResponse(state->service.Explore(request));
  } else if (cmd == "compare" && words.size() >= 2) {
    api::CompareRequest request;
    request.name = rest_from(1);
    ShowResponse(state->service.Compare(request));
  } else if (cmd == "detect") {
    api::DetectRequest request;
    if (words.size() >= 2) request.algo = words[1];
    ShowResponse(state->service.Detect(request));
  } else if (cmd == "export" && words.size() == 3) {
    api::ExportRequest request;
    std::int64_t id = 0;
    ParseInt64(words[1], &id);
    request.id = id;
    auto svg = state->service.ExportSvg(request);
    if (!svg.ok()) {
      ShowResponse(svg);
      return;
    }
    std::ofstream out(words[2], std::ios::binary | std::ios::trunc);
    out << svg.value();
    std::printf("  wrote %zu bytes to %s\n", svg.value().size(),
                words[2].c_str());
  } else if (cmd == "snapshot" && words.size() == 3 &&
             (words[1] == "save" || words[1] == "load")) {
    api::DatasetRequest request;
    request.path = words[2];
    ShowResponse(words[1] == "save" ? state->service.SnapshotSave(request)
                                    : state->service.SnapshotLoad(request));
  } else if ((cmd == "link" || cmd == "unlink") && words.size() >= 3 &&
             words.size() % 2 == 1) {
    std::string body = "{\"edges\": [";
    for (std::size_t i = 1; i + 1 < words.size(); i += 2) {
      std::int64_t u = -1;
      std::int64_t v = -1;
      if (!ParseInt64(words[i], &u) || !ParseInt64(words[i + 1], &v) ||
          u < 0 || v < 0) {
        std::printf("  bad vertex pair '%s %s'\n", words[i].c_str(),
                    words[i + 1].c_str());
        return;
      }
      if (i > 1) body += ", ";
      body += "[" + std::to_string(u) + ", " + std::to_string(v) + "]";
    }
    body += "]}";
    api::MutationRequest request;
    request.body = body;
    Timer timer;
    auto response = cmd == "link" ? state->service.AddEdges(request)
                                  : state->service.RemoveEdges(request);
    const double publish_ms = timer.ElapsedMillis();
    ShowResponse(response);
    if (response.ok()) std::printf("  published in %.3f ms\n", publish_ms);
  } else if (cmd == "addvertex" && words.size() >= 2) {
    // addvertex <name...> [kw1,kw2] — trailing comma-list = keywords.
    std::string keywords;
    std::size_t name_end = words.size();
    if (name_end > 2 && words[name_end - 1].find(',') != std::string::npos) {
      keywords = words[--name_end];
    }
    std::string name;
    for (std::size_t i = 1; i < name_end; ++i) {
      if (i > 1) name += ' ';
      name += words[i];
    }
    std::string body =
        "{\"vertices\": [{\"name\": \"" + JsonWriter::Escape(name) + "\"";
    auto kws = SplitNonEmpty(keywords, ',');
    if (!kws.empty()) {
      body += ", \"keywords\": [";
      for (std::size_t i = 0; i < kws.size(); ++i) {
        if (i) body += ", ";
        body += "\"" + JsonWriter::Escape(kws[i]) + "\"";
      }
      body += "]";
    }
    body += "}]}";
    api::MutationRequest request;
    request.body = body;
    ShowResponse(state->service.AddVertices(request));
  } else if (cmd == "compact") {
    auto response = state->service.CompactMutations("");
    ShowResponse(response);
    if (response.ok()) {
      std::printf("  folded in %.3f ms\n",
                  state->service.MutationStatsNow().last_compaction_ms);
    }
  } else if (cmd == "demo") {
    RunDemo(state);
  } else if (cmd == "help") {
    std::printf(
        "  open/author/search/algo/view/zoom/profile/explore/compare/"
        "detect/export/snapshot save|load/link/unlink/addvertex/compact/"
        "demo/quit\n");
  } else if (cmd == "quit" || cmd == "exit") {
    std::exit(0);
  } else {
    std::printf("  unknown command '%s' (try 'help')\n", cmd.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliState state;

  if (argc > 1) {
    std::printf("loading %s...\n", argv[1]);
    Status st = state.service.Upload(argv[1]);
    if (!st.ok()) {
      std::printf("upload failed: %s\n", st.ToString().c_str());
      return 1;
    }
  } else {
    std::printf("no graph given; generating synthetic DBLP (10k authors)\n");
    DblpOptions options;
    options.num_authors = 10000;
    options.seed = 2017;
    DblpDataset data = GenerateDblp(options);
    (void)state.service.UploadGraph(std::move(data.graph));
  }
  std::printf("C-Explorer CLI — %zu vertices, %zu edges. Type 'help'.\n",
              state.service.dataset()->graph().num_vertices(),
              state.service.dataset()->graph().graph().num_edges());

  std::string line;
  while (std::printf("cexplorer> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    RunCommand(&state, line);
  }
  return 0;
}
