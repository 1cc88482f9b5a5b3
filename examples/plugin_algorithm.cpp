// Plugging a custom CR algorithm into C-Explorer through the
// self-describing registry API — the extension point Section 3.1 of the
// paper describes for third-party developers. The plug-in implements
// degree-filtered egonet search, declares its parameter schema
// (min_degree, with a range) and capabilities (supports cancellation), and
// then runs through the same Search / Run machinery as the built-ins —
// including parameter validation and the /v1/api self-description.
//
//   $ ./plugin_algorithm

#include <algorithm>
#include <cstdio>
#include <memory>

#include "explorer/builtin.h"
#include "explorer/explorer.h"
#include "graph/fixtures.h"

namespace {

using namespace cexplorer;

/// CS plug-in: the query vertex plus every neighbour of degree >=
/// min_degree. Small enough to read in one sitting, but it exercises the
/// whole plug-in surface: schema, capability flags, typed parameter access
/// and the cooperative checkpoint.
class EgonetAlgorithm : public Algorithm {
 public:
  EgonetAlgorithm() {
    descriptor_.name = "Egonet";
    descriptor_.kind = AlgorithmKind::kCommunitySearch;
    descriptor_.doc =
        "the query vertex plus its neighbours of degree >= min_degree";
    descriptor_.params = {
        {"min_degree", AlgoParamType::kInt, "1", true, 0.0, 1e6,
         "drop neighbours with fewer connections than this"},
    };
    descriptor_.caps.cancel = true;
  }

  const AlgorithmDescriptor& descriptor() const override {
    return descriptor_;
  }

  Result<AlgorithmOutput> Run(ExecContext& ctx) override {
    auto vertices = ResolveQueryVertices(ctx.view, ctx.query);
    if (!vertices.ok()) return vertices.status();
    const Graph& g = ctx.view.graph->graph();
    const std::uint32_t min_degree =
        static_cast<std::uint32_t>(ctx.params.Int("min_degree", 1));

    Community c;
    c.method = descriptor_.name;
    c.vertices.push_back(vertices->front());
    for (VertexId w : g.Neighbors(vertices->front())) {
      // Declared caps.cancel means long loops checkpoint; here the loop is
      // tiny, but the pattern is what a real plug-in follows.
      if (Status st = ctx.Check(); !st.ok()) return st;
      if (g.Degree(w) >= min_degree) c.vertices.push_back(w);
    }
    std::sort(c.vertices.begin(), c.vertices.end());
    AlgorithmOutput out;
    out.communities.push_back(std::move(c));
    return out;
  }

 private:
  AlgorithmDescriptor descriptor_;
};

}  // namespace

int main() {
  Explorer explorer;

  // Upload the karate-club graph with empty keyword sets (structure-only
  // plug-ins don't need attributes).
  AttributedGraphBuilder builder;
  Graph karate = KarateClub();
  for (VertexId v = 0; v < karate.num_vertices(); ++v) {
    builder.AddVertex("member " + std::to_string(v + 1), {});
  }
  for (const auto& [u, v] : karate.Edges()) {
    (void)builder.AddEdge(u, v);
  }
  if (Status st = explorer.UploadGraph(builder.Build()); !st.ok()) {
    std::printf("upload failed: %s\n", st.ToString().c_str());
    return 1;
  }

  // Register the plug-in. Duplicate (kind, name) pairs are rejected, so
  // this is the whole integration surface.
  if (Status st = explorer.Register(std::make_unique<EgonetAlgorithm>());
      !st.ok()) {
    std::printf("registration failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("registered CS algorithms:");
  for (const auto& name : explorer.CsAlgorithmNames()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  // The registry is self-describing: the schema the /v1/api endpoint
  // serves comes straight from the descriptor.
  const AlgorithmDescriptor* self =
      explorer.Describe(AlgorithmKind::kCommunitySearch, "Egonet");
  std::printf("Egonet schema:");
  for (const auto& param : self->params) {
    std::printf(" %s:%s=%s", param.name, AlgoParamTypeName(param.type),
                param.default_value);
  }
  std::printf("\n\n");

  // Query the instructor's community with the new algorithm (through the
  // parameterized Run path) and compare against the built-ins.
  Query query;
  query.vertices = {kKarateInstructor};
  query.k = 3;

  for (const char* algo : {"Egonet", "KTruss", "Global"}) {
    Explorer::RunOptions options;
    options.query = query;
    // Parameters are validated against each algorithm's schema; only the
    // plug-in declares min_degree, so only it receives the knob.
    if (std::string(algo) == "Egonet") options.params["min_degree"] = "4";
    auto output =
        explorer.Run(AlgorithmKind::kCommunitySearch, algo, options);
    if (!output.ok()) {
      std::printf("%s failed: %s\n", algo,
                  output.status().ToString().c_str());
      continue;
    }
    std::printf("%s: %zu communities\n", algo, output->communities.size());
    for (const auto& c : output->communities) {
      auto analysis = explorer.Analyze(c, kKarateInstructor);
      std::printf("  %zu vertices, %zu edges, avg degree %.1f:",
                  analysis->stats.num_vertices, analysis->stats.num_edges,
                  analysis->stats.average_degree);
      for (VertexId v : c.vertices) std::printf(" %u", v + 1);
      std::printf("\n");
    }
  }
  return 0;
}
