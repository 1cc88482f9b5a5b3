// The self-describing algorithm plug-in API — the C++ rendering of the
// paper's Java API (Figure 4), redesigned around one uniform entry point.
//
// Every community-retrieval algorithm (search and detection alike)
// implements Algorithm: a descriptor() that declares the algorithm's kind,
// parameter schema (name / type / default / range / doc) and capabilities
// (supports-cancel, reports-progress, uses-index), and a Run(ExecContext&)
// that executes it. The ExecContext carries everything a run needs: the
// immutable graph snapshot, the resolved query (search algorithms), a typed
// parameter bag validated against the schema, and a cooperative
// cancel/deadline/progress control.
//
// Descriptors are what make the registry self-describing: GET /v1/api
// renders every registered algorithm's schema directly from them, the job
// API validates submitted parameters against them, and capability flags
// tell the server whether a job can be cancelled or observed mid-flight.
//
// Registration is one call — Explorer::Register(std::make_unique<MyAlgo>())
// — and the algorithm immediately participates in that Explorer's Search /
// Detect / Compare and its self-description. The server's background jobs
// execute on fresh per-job views, so they serve the built-in registry;
// session-registered plug-ins answer their session's synchronous routes.

#ifndef CEXPLORER_EXPLORER_ALGORITHM_H_
#define CEXPLORER_EXPLORER_ALGORITHM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "algos/clusterers.h"
#include "cltree/cltree.h"
#include "common/cancel.h"
#include "common/status.h"
#include "explorer/community.h"
#include "graph/attributed_graph.h"

namespace cexplorer {

/// Read-only view of the loaded graph handed to algorithms. All pointers
/// are owned by the Dataset snapshot and valid during the call (and until
/// the next Upload for cached use).
struct ExplorerContext {
  const AttributedGraph* graph = nullptr;
  const ClTree* index = nullptr;
  std::span<const std::uint32_t> core_numbers;
  /// Monotonic id bumped on every Upload; lets algorithms cache per-graph
  /// state (e.g. a CODICIL clustering) safely.
  std::uint64_t graph_epoch = 0;
};

/// What an algorithm computes: a per-query community list (search) or a
/// whole-graph partition (detection).
enum class AlgorithmKind : std::uint8_t {
  kCommunitySearch = 0,
  kCommunityDetection = 1,
};

/// Stable wire name of a kind ("search", "detect").
const char* AlgorithmKindName(AlgorithmKind kind);

/// Wire type of a declared parameter.
enum class AlgoParamType : std::uint8_t { kInt, kDouble, kString };

/// Stable wire name of a parameter type ("int", "double", "string").
const char* AlgoParamTypeName(AlgoParamType type);

/// One declared algorithm parameter. `default_value` is the rendered
/// default (always set); numeric parameters may declare an inclusive
/// [min_value, max_value] range that ParamBag::Build enforces.
struct AlgoParamSpec {
  const char* name;
  AlgoParamType type;
  const char* default_value;
  bool has_range = false;
  double min_value = 0.0;
  double max_value = 0.0;
  const char* doc = "";
};

/// Capability flags surfaced through the self-description; the job API
/// uses them to decide what a running job supports.
struct AlgorithmCaps {
  /// Honors ExecContext cancellation/deadline at checkpoints.
  bool cancel = false;
  /// Reports progress through the control while running.
  bool progress = false;
  /// Consults the CL-tree / core-number index (fails or degrades without).
  bool indexed = false;
};

/// The self-description of one algorithm.
struct AlgorithmDescriptor {
  std::string name;  ///< unique within the kind ("ACQ", "CODICIL", ...)
  AlgorithmKind kind = AlgorithmKind::kCommunitySearch;
  std::string doc;
  std::vector<AlgoParamSpec> params;
  AlgorithmCaps caps;

  /// The spec of a declared parameter, or nullptr.
  const AlgoParamSpec* FindParam(std::string_view param_name) const;
};

/// A typed parameter bag: raw string values validated against a schema at
/// Build time (unknown names, unparseable numbers, and range violations are
/// kInvalidArgument), read through typed getters afterwards.
class ParamBag {
 public:
  ParamBag() = default;

  /// Validates `values` against the descriptor's schema.
  static Result<ParamBag> Build(
      const AlgorithmDescriptor& descriptor,
      const std::map<std::string, std::string>& values);

  bool Has(std::string_view name) const;
  std::int64_t Int(std::string_view name, std::int64_t fallback) const;
  double Double(std::string_view name, double fallback) const;
  std::string Str(std::string_view name, std::string fallback) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

/// Everything one execution needs. `query` is meaningful for community
/// search only; detection algorithms ignore it.
struct ExecContext {
  ExplorerContext view;
  Query query;
  ParamBag params;
  /// Cooperative cancel/deadline/progress control; nullptr = run to
  /// completion, never report.
  const ExecControl* control = nullptr;

  /// Checkpoint sugar for algorithm bodies.
  Status Check() const { return CheckControl(control); }
  void Progress(double fraction) const { ReportProgress(control, fraction); }
};

/// The uniform result: `communities` for search algorithms, `clustering`
/// for detection algorithms (the other member stays empty).
struct AlgorithmOutput {
  std::vector<Community> communities;
  Clustering clustering;
};

/// A community-retrieval algorithm plug-in.
class Algorithm {
 public:
  virtual ~Algorithm() = default;

  /// The self-description. Must be stable across calls (same object).
  virtual const AlgorithmDescriptor& descriptor() const = 0;

  /// Executes on the context's snapshot. Long-running implementations
  /// should call ctx.Check() at loop heads and unwind on failure, and
  /// report ctx.Progress() when the total work is known.
  virtual Result<AlgorithmOutput> Run(ExecContext& ctx) = 0;
};

/// The algorithm registry: one namespace per kind, sorted listings for the
/// self-description. Not thread-safe by itself; Explorer instances own one
/// each and serialize access through the session lock.
class AlgorithmRegistry {
 public:
  /// Registers an algorithm under (kind, name); kAlreadyExists on
  /// duplicates.
  Status Register(std::unique_ptr<Algorithm> algorithm);

  /// Looks up an algorithm, or nullptr.
  Algorithm* Find(AlgorithmKind kind, std::string_view name) const;

  /// All descriptors, search algorithms first, each kind sorted by name.
  std::vector<const AlgorithmDescriptor*> Describe() const;

  /// Registered names of one kind, sorted.
  std::vector<std::string> Names(AlgorithmKind kind) const;

 private:
  /// Key: kind tag then name — gives Describe() its order for free.
  std::map<std::pair<std::uint8_t, std::string>, std::unique_ptr<Algorithm>,
           std::less<>>
      algorithms_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_EXPLORER_ALGORITHM_H_
