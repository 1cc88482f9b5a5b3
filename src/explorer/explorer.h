// The C-Explorer system facade: the C++ rendering of the paper's public API
// (Figure 4) —
//
//   public interface CExplorer {
//     void upload(String filePath);
//     List<Community> search(CSAlgorithm algo, Query query);
//     List<Community> detect(CDAlgorithm algo);
//     void analyze(Community community);
//     void display(Community community);
//   }
//
// plus the plug-in registry, the comparison-analysis module of Figure 6,
// and the author-profile store behind the Figure 2 popup.

#ifndef CEXPLORER_EXPLORER_EXPLORER_H_
#define CEXPLORER_EXPLORER_EXPLORER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cltree/cltree.h"
#include "common/status.h"
#include "data/names.h"
#include "explorer/algorithm.h"
#include "explorer/community.h"
#include "explorer/dataset.h"
#include "graph/attributed_graph.h"
#include "layout/layout.h"
#include "metrics/stats.h"

namespace cexplorer {

/// Result of Analyze: structure statistics plus keyword-quality metrics.
struct CommunityAnalysis {
  CommunityStats stats;
  double cpj = 0.0;
  double cmf = 0.0;  ///< relative to the query vertex (kInvalidVertex -> 0)
};

/// View controls for Display — the zoom buttons of the Figure 1 browser
/// panel.
struct DisplayOptions {
  /// Zoom factor about the layout centroid; > 1 zooms in (members near the
  /// border fall outside the viewport and are clipped), < 1 zooms out.
  double zoom = 1.0;
  /// Terminal viewport size for the ASCII rendering.
  std::size_t cols = 78;
  std::size_t rows = 24;
};

/// Result of Display: computed positions plus a terminal rendering.
struct DisplayResult {
  Layout layout;
  std::string ascii;
};

/// One row of the Figure 6(a) statistics table.
struct ComparisonRow {
  std::string method;
  std::size_t num_communities = 0;
  double avg_vertices = 0.0;
  double avg_edges = 0.0;
  double avg_degree = 0.0;
  double cpj = 0.0;  ///< averaged over the method's communities
  double cmf = 0.0;
};

/// The full comparison report (table + the communities behind the "view"
/// links).
struct ComparisonReport {
  std::vector<ComparisonRow> rows;
  std::map<std::string, std::vector<Community>> communities;

  /// Renders the table like the paper's screenshot.
  std::string ToTable() const;

  /// Tab-separated rows with a header line — the chart-ready export behind
  /// the CPJ/CMF bar graphs ("displayed in charts").
  std::string ToTsv() const;
};

/// One C-Explorer session: a slim, cheap-to-create view over an immutable
/// shared Dataset. The session owns only mutable per-user state — the
/// plug-in registry (algorithms may cache per-graph scratch data) — while
/// the graph, CL-tree, core numbers and profile store live in the Dataset
/// and are shared by all concurrent sessions with zero copying.
///
/// One instance serves one session; run concurrent sessions as separate
/// Explorer instances attached (AttachDataset) to the same DatasetPtr.
class Explorer {
 public:
  /// Constructs with the built-in algorithms registered (ACQ, Global,
  /// Local, KTruss and CODICIL for search; CODICIL, Louvain, LabelProp and
  /// GirvanNewman for detection).
  Explorer();

  // --- The five API functions of Figure 4 -------------------------------

  /// Per-run execution options of the Run entry point.
  struct RunOptions {
    /// The resolved user query (search algorithms; ignored by detection).
    Query query;
    /// Algorithm-specific parameters, validated against the descriptor's
    /// schema before execution.
    std::map<std::string, std::string> params;
    /// Cooperative cancel/deadline/progress control (nullptr = none).
    const ExecControl* control = nullptr;
  };

  /// Loads an attributed graph file (graph/io.h format) and builds a fresh
  /// private Dataset (standalone, single-session use).
  Status Upload(const std::string& file_path);

  /// In-memory upload variant.
  Status UploadGraph(AttributedGraph graph);

  /// Attaches an existing shared dataset snapshot. The cheap path: no
  /// core decomposition, no index build — the whole point of the split.
  void AttachDataset(DatasetPtr dataset) { dataset_ = std::move(dataset); }

  /// The uniform execution path every consumer (sync routes, jobs, CLI)
  /// funnels through: validates `options.params` against the algorithm's
  /// schema, assembles the ExecContext on the attached snapshot, and runs.
  Result<AlgorithmOutput> Run(AlgorithmKind kind, const std::string& algorithm,
                              const RunOptions& options);

  /// Runs the named community-search algorithm (Run sugar).
  Result<std::vector<Community>> Search(const std::string& algorithm,
                                        const Query& query,
                                        const ExecControl* control = nullptr);

  /// Runs the named community-detection algorithm on the whole graph
  /// (Run sugar).
  Result<Clustering> Detect(const std::string& algorithm,
                            const ExecControl* control = nullptr);

  /// Computes statistics and quality metrics of a community. `q` (the
  /// query vertex) is needed for CMF; pass kInvalidVertex to skip it.
  Result<CommunityAnalysis> Analyze(const Community& community,
                                    VertexId q = kInvalidVertex) const;

  /// Computes a layout and ASCII rendering of a community.
  Result<DisplayResult> Display(const Community& community,
                                const DisplayOptions& options = {}) const;

  /// Renders a community as a standalone SVG document (the demo's
  /// "save the community into a file" action). The query vertex, when a
  /// member, is highlighted.
  Result<std::string> ExportSvg(const Community& community,
                                VertexId query_vertex = kInvalidVertex) const;

  // --- Plug-in registry ---------------------------------------------------

  /// Registers an algorithm plug-in; fails on a duplicate (kind, name).
  Status Register(std::unique_ptr<Algorithm> algorithm);

  /// Descriptor of one registered algorithm, or nullptr.
  const AlgorithmDescriptor* Describe(AlgorithmKind kind,
                                      const std::string& name) const;

  /// Descriptors of every registered algorithm (search first, then
  /// detection, each sorted by name) — the source of the /v1/api
  /// algorithms section.
  std::vector<const AlgorithmDescriptor*> Descriptors() const {
    return registry_.Describe();
  }

  /// Names of registered community-search algorithms, sorted.
  std::vector<std::string> CsAlgorithmNames() const {
    return registry_.Names(AlgorithmKind::kCommunitySearch);
  }

  /// Names of registered community-detection algorithms, sorted.
  std::vector<std::string> CdAlgorithmNames() const {
    return registry_.Names(AlgorithmKind::kCommunityDetection);
  }

  // --- Comparison analysis (Figure 6) --------------------------------------

  /// Runs the query through several CS algorithms and assembles the
  /// statistics/quality table. Algorithms that return no community
  /// contribute an all-zero row. The control bounds the whole table
  /// (checked between per-algorithm runs and inside each).
  Result<ComparisonReport> Compare(const Query& query,
                                   const std::vector<std::string>& algorithms,
                                   const ExecControl* control = nullptr);

  // --- Accessors -----------------------------------------------------------

  /// True iff a dataset is attached (uploaded or shared).
  bool has_graph() const { return dataset_ != nullptr; }

  /// The attached snapshot (nullptr before any upload/attach). Holding the
  /// returned pointer keeps the snapshot alive across later swaps.
  const DatasetPtr& dataset() const { return dataset_; }

  /// Safe before any upload/attach: empty sentinels are returned, matching
  /// the pre-split behavior of default-constructed members.
  const AttributedGraph& graph() const;
  const ClTree& index() const;
  std::span<const std::uint32_t> core_numbers() const;

  /// The author profile popup of Figure 2; generated deterministically per
  /// vertex on first access and cached in the shared Dataset.
  Result<AuthorProfile> Profile(VertexId v) const;

 private:
  ExplorerContext Context() const { return dataset_->Context(); }

  DatasetPtr dataset_;

  AlgorithmRegistry registry_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_EXPLORER_EXPLORER_H_
