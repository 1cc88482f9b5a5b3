#include "explorer/explorer.h"

#include <algorithm>

#include "common/strings.h"
#include "explorer/builtin.h"
#include "graph/subgraph.h"
#include "layout/ascii_canvas.h"
#include "layout/svg.h"
#include "metrics/quality.h"

namespace cexplorer {

Explorer::Explorer() { RegisterBuiltins(&registry_); }

const AttributedGraph& Explorer::graph() const {
  static const AttributedGraph kEmptyGraph;
  return dataset_ ? dataset_->graph() : kEmptyGraph;
}

const ClTree& Explorer::index() const {
  static const ClTree kEmptyIndex;
  return dataset_ ? dataset_->index() : kEmptyIndex;
}

std::span<const std::uint32_t> Explorer::core_numbers() const {
  return dataset_ ? dataset_->core_numbers()
                  : std::span<const std::uint32_t>{};
}

Status Explorer::Upload(const std::string& file_path) {
  auto dataset = Dataset::FromFile(file_path);
  if (!dataset.ok()) return dataset.status();
  dataset_ = std::move(dataset.value());
  return Status::Ok();
}

Status Explorer::UploadGraph(AttributedGraph graph) {
  auto dataset = Dataset::Build(std::move(graph));
  if (!dataset.ok()) return dataset.status();
  dataset_ = std::move(dataset.value());
  return Status::Ok();
}

Result<AlgorithmOutput> Explorer::Run(AlgorithmKind kind,
                                      const std::string& algorithm,
                                      const RunOptions& options) {
  if (!dataset_) return Status::FailedPrecondition("no graph uploaded");
  Algorithm* algo = registry_.Find(kind, algorithm);
  if (algo == nullptr) {
    return Status::NotFound(std::string("no ") + AlgorithmKindName(kind) +
                            " algorithm named '" + algorithm + "'");
  }
  auto params = ParamBag::Build(algo->descriptor(), options.params);
  if (!params.ok()) return params.status();
  ExecContext ctx;
  ctx.view = Context();
  ctx.query = options.query;
  ctx.params = std::move(params.value());
  ctx.control = options.control;
  CEXPLORER_RETURN_IF_ERROR(CheckControl(ctx.control));
  return algo->Run(ctx);
}

Result<std::vector<Community>> Explorer::Search(const std::string& algorithm,
                                                const Query& query,
                                                const ExecControl* control) {
  RunOptions options;
  options.query = query;
  options.control = control;
  auto out = Run(AlgorithmKind::kCommunitySearch, algorithm, options);
  if (!out.ok()) return out.status();
  return std::move(out->communities);
}

Result<Clustering> Explorer::Detect(const std::string& algorithm,
                                    const ExecControl* control) {
  RunOptions options;
  options.control = control;
  auto out = Run(AlgorithmKind::kCommunityDetection, algorithm, options);
  if (!out.ok()) return out.status();
  return std::move(out->clustering);
}

Result<CommunityAnalysis> Explorer::Analyze(const Community& community,
                                            VertexId q) const {
  if (!dataset_) return Status::FailedPrecondition("no graph uploaded");
  for (VertexId v : community.vertices) {
    if (v >= graph().num_vertices()) {
      return Status::InvalidArgument("community vertex out of range");
    }
  }
  CommunityAnalysis analysis;
  analysis.stats = ComputeStats(graph().graph(), community.vertices);
  // Exact CPJ for normal communities; Monte Carlo estimate once the pair
  // count explodes (Global can return 10^4+ member components).
  analysis.cpj = CpjSampled(graph(), community.vertices);
  if (q != kInvalidVertex && q < graph().num_vertices()) {
    analysis.cmf = Cmf(graph(), community.vertices, q);
  }
  return analysis;
}

Result<DisplayResult> Explorer::Display(const Community& community,
                                        const DisplayOptions& options) const {
  if (!dataset_) return Status::FailedPrecondition("no graph uploaded");
  if (options.zoom <= 0.0) {
    return Status::InvalidArgument("zoom must be positive");
  }
  for (VertexId v : community.vertices) {
    if (v >= graph().num_vertices()) {
      return Status::InvalidArgument("community vertex out of range");
    }
  }
  DisplayResult display;
  Subgraph sub = InducedSubgraph(graph().graph(), community.vertices);
  ForceLayoutOptions layout_options;
  layout_options.seed = 7;
  display.layout = ForceDirectedLayout(sub.graph, layout_options);

  std::vector<std::string> labels;
  labels.reserve(sub.num_vertices());
  for (VertexId local = 0; local < sub.num_vertices(); ++local) {
    labels.emplace_back(graph().Name(sub.to_parent[local]));
  }
  // The renderer applies the zoom about the viewport centre and clips;
  // the returned coordinates get the same scaling (about the centroid) so
  // browser-side consumers see consistent geometry.
  display.ascii = RenderCommunity(sub.graph, display.layout, labels,
                                  options.cols, options.rows, options.zoom);
  if (options.zoom != 1.0 && !display.layout.empty()) {
    double cx = 0.0;
    double cy = 0.0;
    for (const auto& p : display.layout) {
      cx += p.x;
      cy += p.y;
    }
    cx /= static_cast<double>(display.layout.size());
    cy /= static_cast<double>(display.layout.size());
    for (auto& p : display.layout) {
      p.x = cx + (p.x - cx) * options.zoom;
      p.y = cy + (p.y - cy) * options.zoom;
    }
  }
  return display;
}

Result<std::string> Explorer::ExportSvg(const Community& community,
                                        VertexId query_vertex) const {
  if (!dataset_) return Status::FailedPrecondition("no graph uploaded");
  for (VertexId v : community.vertices) {
    if (v >= graph().num_vertices()) {
      return Status::InvalidArgument("community vertex out of range");
    }
  }
  Subgraph sub = InducedSubgraph(graph().graph(), community.vertices);
  ForceLayoutOptions layout_options;
  layout_options.seed = 7;
  Layout layout = ForceDirectedLayout(sub.graph, layout_options);
  std::vector<std::string> labels;
  for (VertexId local = 0; local < sub.num_vertices(); ++local) {
    labels.emplace_back(graph().Name(sub.to_parent[local]));
  }
  SvgOptions svg_options;
  if (query_vertex != kInvalidVertex) {
    svg_options.highlight = sub.ToLocal(query_vertex);
  }
  return RenderCommunitySvg(sub.graph, layout, labels, svg_options);
}

Status Explorer::Register(std::unique_ptr<Algorithm> algorithm) {
  return registry_.Register(std::move(algorithm));
}

const AlgorithmDescriptor* Explorer::Describe(AlgorithmKind kind,
                                              const std::string& name) const {
  Algorithm* algo = registry_.Find(kind, name);
  return algo == nullptr ? nullptr : &algo->descriptor();
}

Result<ComparisonReport> Explorer::Compare(
    const Query& query, const std::vector<std::string>& algorithms,
    const ExecControl* control) {
  if (!dataset_) return Status::FailedPrecondition("no graph uploaded");

  // The CMF reference vertex.
  auto resolved = ResolveQueryVertices(Context(), query);
  if (!resolved.ok()) return resolved.status();
  const VertexId q = resolved->front();

  ComparisonReport report;
  for (const std::string& name : algorithms) {
    auto communities = Search(name, query, control);
    if (!communities.ok()) return communities.status();

    ComparisonRow row;
    row.method = name;
    row.num_communities = communities->size();
    for (const Community& c : communities.value()) {
      auto analysis = Analyze(c, q);
      if (!analysis.ok()) return analysis.status();
      row.avg_vertices += static_cast<double>(analysis->stats.num_vertices);
      row.avg_edges += static_cast<double>(analysis->stats.num_edges);
      row.avg_degree += analysis->stats.average_degree;
      row.cpj += analysis->cpj;
      row.cmf += analysis->cmf;
    }
    if (!communities->empty()) {
      const double denom = static_cast<double>(communities->size());
      row.avg_vertices /= denom;
      row.avg_edges /= denom;
      row.avg_degree /= denom;
      row.cpj /= denom;
      row.cmf /= denom;
    }
    report.rows.push_back(row);
    report.communities.emplace(name, std::move(communities.value()));
  }
  return report;
}

std::string ComparisonReport::ToTable() const {
  std::string out;
  out += "Method    Communities  Vertices  Edges    Degree  CPJ     CMF\n";
  out += "--------- -----------  --------  -------  ------  ------  ------\n";
  char buf[160];
  for (const auto& row : rows) {
    std::snprintf(buf, sizeof(buf),
                  "%-9s %11zu  %8.1f  %7.1f  %6.1f  %6.3f  %6.3f\n",
                  row.method.c_str(), row.num_communities, row.avg_vertices,
                  row.avg_edges, row.avg_degree, row.cpj, row.cmf);
    out += buf;
  }
  return out;
}

std::string ComparisonReport::ToTsv() const {
  std::string out =
      "method\tcommunities\tvertices\tedges\tdegree\tcpj\tcmf\n";
  for (const auto& row : rows) {
    out += row.method;
    out += '\t';
    out += std::to_string(row.num_communities);
    out += '\t';
    out += FormatDouble(row.avg_vertices, 1);
    out += '\t';
    out += FormatDouble(row.avg_edges, 1);
    out += '\t';
    out += FormatDouble(row.avg_degree, 2);
    out += '\t';
    out += FormatDouble(row.cpj, 4);
    out += '\t';
    out += FormatDouble(row.cmf, 4);
    out += '\n';
  }
  return out;
}

Result<AuthorProfile> Explorer::Profile(VertexId v) const {
  if (!dataset_) return Status::FailedPrecondition("no graph uploaded");
  return dataset_->Profile(v);
}

}  // namespace cexplorer
