#include "explorer/builtin.h"

#include <algorithm>
#include <utility>

#include "algos/girvan_newman.h"
#include "algos/global.h"
#include "algos/local.h"
#include "common/strings.h"

namespace cexplorer {

namespace {

/// The k / keywords of a search query are carried in ExecContext::query
/// (route-level parameters of /v1/search); descriptors declare only the
/// algorithm-specific knobs, so the self-description never duplicates the
/// route schema.
AlgorithmDescriptor MakeDescriptor(std::string name, AlgorithmKind kind,
                                   std::string doc,
                                   std::vector<AlgoParamSpec> params,
                                   AlgorithmCaps caps) {
  AlgorithmDescriptor descriptor;
  descriptor.name = std::move(name);
  descriptor.kind = kind;
  descriptor.doc = std::move(doc);
  descriptor.params = std::move(params);
  descriptor.caps = caps;
  return descriptor;
}

}  // namespace

Result<VertexList> ResolveQueryVertices(const ExplorerContext& ctx,
                                        const Query& query) {
  VertexList vertices = query.vertices;
  if (vertices.empty()) {
    if (query.name.empty()) {
      return Status::InvalidArgument("query has neither name nor vertices");
    }
    VertexId v = ctx.graph->FindByName(query.name);
    if (v == kInvalidVertex) {
      return Status::NotFound("no author named '" + query.name + "'");
    }
    vertices.push_back(v);
  }
  for (VertexId v : vertices) {
    if (v >= ctx.graph->num_vertices()) {
      return Status::InvalidArgument("query vertex out of range");
    }
  }
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  return vertices;
}

// --- ACQ -------------------------------------------------------------------

AcqSearchAlgorithm::AcqSearchAlgorithm(AcqAlgorithm default_variant)
    : default_variant_(default_variant) {
  descriptor_ = MakeDescriptor(
      "ACQ", AlgorithmKind::kCommunitySearch,
      "attributed community query: maximal shared-keyword k-core communities "
      "of the query vertices (paper Problem 1)",
      {{"variant", AlgoParamType::kString, "Dec", false, 0.0, 0.0,
        "query algorithm: Dec | Inc-S | Inc-T | BruteForce"}},
      {/*cancel=*/true, /*progress=*/false, /*indexed=*/true});
}

Result<AlgorithmOutput> AcqSearchAlgorithm::Run(ExecContext& ctx) {
  auto vertices = ResolveQueryVertices(ctx.view, ctx.query);
  if (!vertices.ok()) return vertices.status();

  KeywordList keyword_ids;
  for (const auto& word : ctx.query.keywords) {
    KeywordId kw = ctx.view.graph->vocabulary().Find(word);
    if (kw == kInvalidKeyword) {
      return Status::NotFound("unknown keyword '" + word + "'");
    }
    keyword_ids.push_back(kw);
  }

  AcqAlgorithm variant = default_variant_;
  const std::string requested = ctx.params.Str("variant", "");
  if (!requested.empty()) {
    if (requested == "Dec") {
      variant = AcqAlgorithm::kDec;
    } else if (requested == "Inc-S") {
      variant = AcqAlgorithm::kIncS;
    } else if (requested == "Inc-T") {
      variant = AcqAlgorithm::kIncT;
    } else if (requested == "BruteForce") {
      variant = AcqAlgorithm::kBruteForce;
    } else {
      return Status::InvalidArgument("unknown ACQ variant '" + requested +
                                     "'");
    }
  }

  AcqEngine engine(ctx.view.graph, ctx.view.index, ctx.view.acq_memo);
  auto result = engine.SearchMulti(vertices.value(), ctx.query.k,
                                   std::move(keyword_ids), variant,
                                   ctx.control);
  if (!result.ok()) return result.status();

  AlgorithmOutput out;
  for (auto& ac : result->communities) {
    Community c;
    c.method = descriptor_.name;
    c.vertices = std::move(ac.vertices);
    c.shared_keywords = std::move(ac.shared_keywords);
    out.communities.push_back(std::move(c));
  }
  return out;
}

// --- Global / Local --------------------------------------------------------

GlobalSearchAlgorithm::GlobalSearchAlgorithm() {
  descriptor_ = MakeDescriptor(
      "Global", AlgorithmKind::kCommunitySearch,
      "connected k-core component of the query vertex",
      {}, {/*cancel=*/false, /*progress=*/false, /*indexed=*/true});
}

Result<AlgorithmOutput> GlobalSearchAlgorithm::Run(ExecContext& ctx) {
  auto vertices = ResolveQueryVertices(ctx.view, ctx.query);
  if (!vertices.ok()) return vertices.status();
  GlobalResult gr = GlobalSearch(ctx.view.graph->graph(), ctx.view.core_numbers,
                                 vertices->front(), ctx.query.k);
  AlgorithmOutput out;
  if (!gr.vertices.empty()) {
    // Multi-vertex query: all query vertices must be in the component.
    bool all_in = true;
    for (VertexId v : vertices.value()) {
      if (!std::binary_search(gr.vertices.begin(), gr.vertices.end(), v)) {
        all_in = false;
        break;
      }
    }
    if (all_in) {
      out.communities.push_back(
          {descriptor_.name, std::move(gr.vertices), {}});
    }
  }
  return out;
}

LocalSearchAlgorithm::LocalSearchAlgorithm() {
  descriptor_ = MakeDescriptor(
      "Local", AlgorithmKind::kCommunitySearch,
      "local-expansion k-core search around the query vertex",
      {}, {/*cancel=*/false, /*progress=*/false, /*indexed=*/false});
}

Result<AlgorithmOutput> LocalSearchAlgorithm::Run(ExecContext& ctx) {
  auto vertices = ResolveQueryVertices(ctx.view, ctx.query);
  if (!vertices.ok()) return vertices.status();
  if (vertices->size() > 1) {
    return Status::NotImplemented("Local supports a single query vertex");
  }
  LocalResult lr =
      LocalSearch(ctx.view.graph->graph(), vertices->front(), ctx.query.k);
  AlgorithmOutput out;
  if (!lr.vertices.empty()) {
    out.communities.push_back({descriptor_.name, std::move(lr.vertices), {}});
  }
  return out;
}

// --- KTruss ----------------------------------------------------------------

KTrussSearchAlgorithm::KTrussSearchAlgorithm() {
  descriptor_ = MakeDescriptor(
      "KTruss", AlgorithmKind::kCommunitySearch,
      "triangle-connected k-truss communities of the query vertex "
      "(trussness >= k + 1); the decomposition is cached per graph",
      {}, {/*cancel=*/true, /*progress=*/true, /*indexed=*/false});
}

Result<AlgorithmOutput> KTrussSearchAlgorithm::Run(ExecContext& ctx) {
  auto vertices = ResolveQueryVertices(ctx.view, ctx.query);
  if (!vertices.ok()) return vertices.status();
  if (vertices->size() > 1) {
    return Status::NotImplemented("KTruss supports a single query vertex");
  }
  if (cached_epoch_ != ctx.view.graph_epoch) {
    TrussDecomposition td =
        TrussDecompose(ctx.view.graph->graph(), ctx.control);
    // The decomposition returns partially-peeled on a stopped control;
    // surface the stop instead of caching a wrong answer.
    CEXPLORER_RETURN_IF_ERROR(ctx.Check());
    truss_ = std::move(td);
    cached_epoch_ = ctx.view.graph_epoch;
  }
  ctx.Progress(1.0);
  AlgorithmOutput out;
  for (const auto& tc :
       KTrussCommunities(ctx.view.graph->graph(), truss_, vertices->front(),
                         ctx.query.k + 1)) {
    out.communities.push_back({descriptor_.name, tc.vertices, {}});
  }
  return out;
}

// --- CODICIL ---------------------------------------------------------------

namespace {

constexpr AlgoParamSpec kCodicilParams[] = {
    {"alpha", AlgoParamType::kDouble, "0.5", true, 0.0, 1.0,
     "blend of content cosine vs topological Jaccard in edge sampling"},
    {"content_k", AlgoParamType::kInt, "10", true, 1.0, 1000.0,
     "content neighbours added per vertex (the paper's kc)"},
    {"clusterer", AlgoParamType::kString, "Louvain", false, 0.0, 0.0,
     "final-stage clusterer: Louvain | LabelProp"},
    {"seed", AlgoParamType::kInt, "1", false, 0.0, 0.0,
     "seed forwarded to the clusterer"},
};

std::vector<AlgoParamSpec> CodicilParamList() {
  return {std::begin(kCodicilParams), std::end(kCodicilParams)};
}

}  // namespace

CodicilOptions CodicilOptionsFromParams(const ParamBag& params,
                                        const CodicilOptions& base) {
  CodicilOptions options = base;
  options.alpha = params.Double("alpha", base.alpha);
  options.content_edges_per_vertex = static_cast<std::size_t>(params.Int(
      "content_k", static_cast<std::int64_t>(base.content_edges_per_vertex)));
  options.seed = static_cast<std::uint64_t>(
      params.Int("seed", static_cast<std::int64_t>(base.seed)));
  const std::string clusterer = params.Str("clusterer", "");
  if (clusterer == "LabelProp") {
    options.clusterer = CodicilClusterer::kLabelPropagation;
  } else if (clusterer == "Louvain") {
    options.clusterer = CodicilClusterer::kLouvain;
  }
  return options;
}

CodicilDetectAlgorithm::CodicilDetectAlgorithm(CodicilOptions options)
    : options_(options) {
  descriptor_ = MakeDescriptor(
      "CODICIL", AlgorithmKind::kCommunityDetection,
      "content-and-link fused detection (Ruan et al., WWW 2013): content "
      "edges + union + bias sampling + clustering",
      CodicilParamList(),
      {/*cancel=*/true, /*progress=*/true, /*indexed=*/false});
}

Result<AlgorithmOutput> CodicilDetectAlgorithm::Run(ExecContext& ctx) {
  CodicilOptions options = CodicilOptionsFromParams(ctx.params, options_);
  options.control = ctx.control;
  auto result = RunCodicil(*ctx.view.graph, options);
  if (!result.ok()) return result.status();
  AlgorithmOutput out;
  out.clustering = std::move(result->clustering);
  return out;
}

CodicilSearchAlgorithm::CodicilSearchAlgorithm(CodicilOptions options)
    : options_(options) {
  descriptor_ = MakeDescriptor(
      "CODICIL", AlgorithmKind::kCommunitySearch,
      "the CODICIL cluster containing the query vertex (k is ignored); the "
      "clustering is cached per graph and parameterization",
      CodicilParamList(),
      {/*cancel=*/true, /*progress=*/true, /*indexed=*/false});
}

Result<AlgorithmOutput> CodicilSearchAlgorithm::Run(ExecContext& ctx) {
  auto vertices = ResolveQueryVertices(ctx.view, ctx.query);
  if (!vertices.ok()) return vertices.status();

  CodicilOptions options = CodicilOptionsFromParams(ctx.params, options_);
  // Cache key: same graph AND same knobs — a re-run with different alpha
  // must not serve the old clustering.
  const std::string params_key =
      FormatDouble(options.alpha, 6) + "/" +
      std::to_string(options.content_edges_per_vertex) + "/" +
      std::to_string(static_cast<int>(options.clusterer)) + "/" +
      std::to_string(options.seed);
  if (cached_epoch_ != ctx.view.graph_epoch || cached_params_ != params_key) {
    options.control = ctx.control;
    auto result = RunCodicil(*ctx.view.graph, options);
    if (!result.ok()) return result.status();
    cached_ = std::move(result->clustering);
    cached_epoch_ = ctx.view.graph_epoch;
    cached_params_ = params_key;
  }
  VertexId q = vertices->front();
  VertexList cluster = cached_.Members(cached_.assignment[q]);
  // Multi-vertex: all query vertices must share the cluster.
  for (VertexId v : vertices.value()) {
    if (cached_.assignment[v] != cached_.assignment[q]) {
      return AlgorithmOutput{};
    }
  }
  AlgorithmOutput out;
  out.communities.push_back({descriptor_.name, std::move(cluster), {}});
  return out;
}

// --- Clusterers ------------------------------------------------------------

LouvainDetectAlgorithm::LouvainDetectAlgorithm() {
  descriptor_ = MakeDescriptor(
      "Louvain", AlgorithmKind::kCommunityDetection,
      "greedy modularity optimization with coarsening (Blondel et al. 2008)",
      {{"seed", AlgoParamType::kInt, "1", false, 0.0, 0.0,
        "seed for the vertex visiting order"}},
      {/*cancel=*/true, /*progress=*/false, /*indexed=*/false});
}

Result<AlgorithmOutput> LouvainDetectAlgorithm::Run(ExecContext& ctx) {
  LouvainOptions options;
  options.seed = static_cast<std::uint64_t>(ctx.params.Int("seed", 1));
  options.control = ctx.control;
  Clustering clustering = Louvain(ctx.view.graph->graph(), options);
  CEXPLORER_RETURN_IF_ERROR(ctx.Check());
  AlgorithmOutput out;
  out.clustering = std::move(clustering);
  return out;
}

LabelPropagationDetectAlgorithm::LabelPropagationDetectAlgorithm() {
  descriptor_ = MakeDescriptor(
      "LabelProp", AlgorithmKind::kCommunityDetection,
      "asynchronous majority label propagation (Raghavan et al. 2007)",
      {{"seed", AlgoParamType::kInt, "1", false, 0.0, 0.0,
        "seed for the per-pass vertex order and tie-breaking"},
       {"max_iterations", AlgoParamType::kInt, "32", true, 1.0, 4096.0,
        "maximum full passes over the vertices"}},
      {/*cancel=*/true, /*progress=*/false, /*indexed=*/false});
}

Result<AlgorithmOutput> LabelPropagationDetectAlgorithm::Run(ExecContext& ctx) {
  LabelPropagationOptions options;
  options.seed = static_cast<std::uint64_t>(ctx.params.Int("seed", 1));
  options.max_iterations =
      static_cast<std::size_t>(ctx.params.Int("max_iterations", 32));
  options.control = ctx.control;
  Clustering clustering = LabelPropagation(ctx.view.graph->graph(), options);
  CEXPLORER_RETURN_IF_ERROR(ctx.Check());
  AlgorithmOutput out;
  out.clustering = std::move(clustering);
  return out;
}

// --- Girvan-Newman ---------------------------------------------------------

GirvanNewmanDetectAlgorithm::GirvanNewmanDetectAlgorithm(
    std::size_t default_max_edges)
    : default_max_edges_(default_max_edges) {
  descriptor_ = MakeDescriptor(
      "GirvanNewman", AlgorithmKind::kCommunityDetection,
      "divisive edge-betweenness clustering (Newman & Girvan 2004); "
      "quadratic-ish, capped by max_edges",
      {{"target_communities", AlgoParamType::kInt, "0", true, 0.0, 1e9,
        "stop at this many components (0 = modularity-optimal partition)"},
       {"max_edges", AlgoParamType::kInt, "20000", true, 1.0, 1e9,
        "reject graphs with more edges than this instead of hanging"}},
      {/*cancel=*/true, /*progress=*/true, /*indexed=*/false});
}

Result<AlgorithmOutput> GirvanNewmanDetectAlgorithm::Run(ExecContext& ctx) {
  const std::size_t max_edges = static_cast<std::size_t>(ctx.params.Int(
      "max_edges", static_cast<std::int64_t>(default_max_edges_)));
  if (ctx.view.graph->graph().num_edges() > max_edges) {
    return Status::FailedPrecondition(
        "graph too large for Girvan-Newman (" +
        std::to_string(ctx.view.graph->graph().num_edges()) +
        " edges > limit " + std::to_string(max_edges) + ")");
  }
  GirvanNewmanOptions options;
  options.target_communities =
      static_cast<std::uint32_t>(ctx.params.Int("target_communities", 0));
  options.control = ctx.control;
  GirvanNewmanResult result = GirvanNewman(ctx.view.graph->graph(), options);
  if (result.interrupted) {
    CEXPLORER_RETURN_IF_ERROR(ctx.Check());
  }
  AlgorithmOutput out;
  out.clustering = std::move(result.clustering);
  return out;
}

// --- Registration ----------------------------------------------------------

void RegisterBuiltins(AlgorithmRegistry* registry) {
  (void)registry->Register(std::make_unique<AcqSearchAlgorithm>());
  (void)registry->Register(std::make_unique<GlobalSearchAlgorithm>());
  (void)registry->Register(std::make_unique<LocalSearchAlgorithm>());
  (void)registry->Register(std::make_unique<KTrussSearchAlgorithm>());
  (void)registry->Register(std::make_unique<CodicilSearchAlgorithm>());
  (void)registry->Register(std::make_unique<CodicilDetectAlgorithm>());
  (void)registry->Register(std::make_unique<LouvainDetectAlgorithm>());
  (void)registry->Register(std::make_unique<LabelPropagationDetectAlgorithm>());
  (void)registry->Register(std::make_unique<GirvanNewmanDetectAlgorithm>());
}

}  // namespace cexplorer
