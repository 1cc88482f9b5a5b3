// The immutable, shareable half of the C-Explorer engine: one uploaded
// attributed graph together with everything derived from it offline — the
// CL-tree index, the core decomposition, and the author-profile store.
//
// A Dataset is built once per upload (the offline Indexing module of the
// paper's Figure 3) and then shared read-only by any number of concurrent
// Explorer sessions via std::shared_ptr<const Dataset>. Swapping in a new
// upload is a pointer swap: sessions still holding the old snapshot keep it
// alive, so a query can never observe a half-replaced graph/index pair.
//
// Every Dataset carries a process-unique id (serving order) and a graph
// epoch that changes only when the graph itself changes. Session-level
// caches (the browser's community list, detection results, plug-in state)
// are tagged with the graph epoch they were computed against — stale-cache
// bugs become a simple integer comparison, while a compaction (same graph,
// new id) keeps those caches valid.

#ifndef CEXPLORER_EXPLORER_DATASET_H_
#define CEXPLORER_EXPLORER_DATASET_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "acq/memo.h"
#include "cltree/cltree.h"
#include "common/status.h"
#include "data/names.h"
#include "explorer/algorithm.h"
#include "graph/attributed_graph.h"

namespace cexplorer {

namespace delta {
struct Access;
}  // namespace delta

class Dataset;

/// How datasets are held everywhere: immutable and shared.
using DatasetPtr = std::shared_ptr<const Dataset>;

/// An uploaded graph plus its offline-built index artifacts. Immutable
/// after construction (the lazily-populated profile store and ACQ memo are
/// internally synchronized), so it is safe to share across threads without
/// locking.
class Dataset {
 public:
  /// Builds a dataset from an in-memory graph on the calling thread: one
  /// core decomposition, then the CL-tree over those cores (the expensive
  /// offline step).
  static Result<DatasetPtr> Build(AttributedGraph graph);

  /// Loads an attributed graph file (graph/io.h format) and builds.
  static Result<DatasetPtr> FromFile(const std::string& file_path);

  /// Loads a full binary snapshot (snapshot/format.h): graph, core numbers
  /// and CL-tree served zero-copy from a read-only mapping of `path`. The
  /// returned dataset owns the mapping; queries run directly over it.
  static Result<DatasetPtr> FromSnapshotFile(const std::string& path);

  /// Writes this dataset (graph + cores + index) as a binary snapshot that
  /// FromSnapshotFile can restore with no rebuild.
  Status SaveSnapshot(const std::string& path) const;

  /// How a dataset's arrays are backed, surfaced in /v1/stats: "owned"
  /// (the vectors of an in-process build), "mmap" (a mapped snapshot file,
  /// with its size and checksum) or "overlay" (a mutation overlay).
  struct StorageInfo {
    std::string mode = "owned";
    std::uint64_t file_bytes = 0;
    std::uint64_t checksum = 0;
  };

  const StorageInfo& storage() const { return storage_; }

  /// True when this dataset serves a mutation overlay over another
  /// dataset's arrays (delta::Mutator publishes these). Overlay datasets
  /// answer every query normally but cannot be written as a binary
  /// snapshot — the writer reads raw base arrays and would silently drop
  /// the patches — so SaveSnapshot demands a compaction first.
  bool is_overlay() const { return overlay_; }

  /// Always PostingFormat::kRaw. Kept only because the benchmark harness
  /// passes its result to ClTree::Build (e2ebench/e2e.cc:1024); nothing
  /// branches on it.
  static PostingFormat DefaultPostingFormat();

  // --- Read-only views ----------------------------------------------------

  const AttributedGraph& graph() const { return graph_; }
  const ClTree& index() const { return index_; }
  std::span<const std::uint32_t> core_numbers() const { return core_span_; }

  /// Process-unique snapshot id. Monotonic in creation order; session
  /// caches are tagged with it.
  std::uint64_t id() const { return id_; }

  /// The algorithm-facing graph epoch: changes only when the *graph*
  /// changes, so a compaction keeps the epoch and per-graph algorithm
  /// caches (e.g. CODICIL's clustering) stay valid.
  std::uint64_t graph_epoch() const { return graph_epoch_; }

  /// The read-only view handed to CR algorithms. Pointers are valid as
  /// long as this dataset is alive.
  ExplorerContext Context() const;

  /// The memo of Dec's first level (acq/memo.h) that searches on this
  /// dataset fill; it starts empty, as every dataset is built fresh.
  const AcqMemo& acq_memo() const { return acq_memo_; }

  /// The author profile popup of Figure 2; generated deterministically per
  /// vertex on first access, cached, and shared by all sessions.
  /// Thread-safe.
  Result<AuthorProfile> Profile(VertexId v) const;

  /// Total number of CL-tree builds performed by this process (Build and
  /// FromFile increment it; a snapshot load does not). Lets tests assert
  /// that N sessions sharing a dataset triggered exactly one build.
  static std::uint64_t TotalIndexBuilds();

 private:
  friend struct delta::Access;

  Dataset() = default;

  /// Mints the next process-unique snapshot id (delta::Access publishes
  /// datasets outside the factory functions above).
  static std::uint64_t NextId();

  AttributedGraph graph_;
  /// The core numbers algorithms read.
  std::span<const std::uint32_t> core_span_;
  /// Keeps core_span_ alive: the core vector of a build, the mapped
  /// snapshot, or the storage of a mutation overlay (delta::Access reads
  /// the overlay back from here).
  std::shared_ptr<const void> backing_;
  ClTree index_;
  StorageInfo storage_;
  std::uint64_t id_ = 0;
  std::uint64_t graph_epoch_ = 0;
  bool overlay_ = false;

  // Profile popups are read-mostly after warm-up: lookups take the shared
  // lock only, so concurrent sessions re-opening known profiles never
  // serialize; a cold vertex generates outside any lock and upgrades to
  // the exclusive lock just to publish.
  mutable std::shared_mutex profiles_mu_;
  mutable std::unordered_map<VertexId, AuthorProfile> profiles_;

  // Labelled k-cores of Dec's first level, filled by searches (read-mostly
  // like the profiles, with its own lock).
  mutable AcqMemo acq_memo_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_EXPLORER_DATASET_H_
