// Dynamic-graph tier: streaming edge/vertex mutations over immutable
// datasets.
//
// The engine's serving path (Dataset, Section "Indexing" of the paper's
// Figure 3) is built around immutable snapshots: queries pin a
// shared_ptr<const Dataset> and can never observe a half-mutated graph.
// This module keeps that property while accepting a mutation stream, by
// never mutating a served dataset at all. The Mutator owns a private
// working copy of the changed state (patched adjacencies, appended
// vertices, appended vocabulary words, maintained core numbers) and turns
// each accepted batch into a fresh *overlay dataset*:
//
//   * topology — a copy-on-write patch over the base CSR (graph.h's
//     patch-slot table). Untouched vertices keep serving the base arrays;
//     a patched vertex serves its full, sorted adjacency from a small
//     patch CSR, so every consumer of the sorted-span Neighbors()
//     contract (SIMD intersection, peel scratch, ACQ verification) works
//     on an overlay unchanged.
//   * attributes — appended vertices live in tail arrays; appended
//     keywords extend the base vocabulary append-only in first-occurrence
//     order, so keyword ids (and therefore CL-tree postings and JSON
//     bodies) match a from-scratch rebuild of the same graph.
//   * core numbers — maintained incrementally per edge change with the
//     traversal/subcore repairs of core_maintenance.h instead of a full
//     Batagelj-Zaversnik peel; the CL-tree for the overlay is then built
//     from the maintained numbers.
//
// Publication goes through a caller-supplied compare-and-swap (the
// QueryService's single epoch-bump path), so a mutation loses cleanly to
// a concurrent /upload instead of resurrecting a replaced graph.
//
// Overlays are for absorbing writes, not for growing forever: a
// background thread (or an explicit CompactNow) folds a matured overlay
// into a fresh owned dataset — same graph, same epoch, no patches — while
// in-flight queries keep whatever snapshot they pinned. Queries never
// pause for compaction; mutations stall only for the fold itself.

#ifndef CEXPLORER_DELTA_DELTA_H_
#define CEXPLORER_DELTA_DELTA_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "delta/core_maintenance.h"
#include "explorer/dataset.h"
#include "graph/types.h"

namespace cexplorer {
namespace delta {

/// A vertex appended by a mutation batch.
struct NewVertex {
  std::string name;                   ///< may be empty (unnamed)
  std::vector<std::string> keywords;  ///< deduped on apply
};

/// One atomic unit of change. Vertices are applied first, so edges in the
/// same batch may reference the vertices the batch adds. Edge endpoints
/// must be distinct and in range after the vertex additions; a batch that
/// fails validation is rejected whole, leaving the served graph untouched.
struct MutationBatch {
  std::vector<std::pair<VertexId, VertexId>> add_edges;
  std::vector<std::pair<VertexId, VertexId>> remove_edges;
  std::vector<NewVertex> add_vertices;
};

/// What a batch actually did. Idempotent-duplicate edges (adding an edge
/// that exists, removing one that doesn't) are counted, not errors —
/// streams replay.
struct ApplyCounts {
  std::uint64_t edges_added = 0;
  std::uint64_t edges_ignored = 0;  ///< add of an already-present edge
  std::uint64_t edges_removed = 0;
  std::uint64_t edges_missing = 0;  ///< remove of an absent edge
  std::uint64_t vertices_added = 0;
};

/// A successful Apply: the freshly published overlay dataset plus counts.
struct ApplyResult {
  DatasetPtr dataset;
  ApplyCounts counts;
};

/// Counters surfaced under "mutations" in /v1/stats.
struct MutationStats {
  bool active = false;  ///< the served dataset is an uncompacted overlay
  std::uint64_t batches = 0;          ///< accepted batches, lifetime
  std::uint64_t pending_batches = 0;  ///< batches folded into the overlay
  std::uint64_t overlay_edges = 0;    ///< edge mutations in the overlay
  std::uint64_t patched_vertices = 0;
  std::uint64_t tail_vertices = 0;  ///< vertices appended since compaction
  std::uint64_t edges_added = 0;     ///< lifetime totals
  std::uint64_t edges_removed = 0;
  std::uint64_t vertices_added = 0;
  std::uint64_t compactions = 0;
  double last_compaction_ms = 0.0;  ///< 0 until the first compaction
  std::uint64_t core_repair_visited = 0;
  std::uint64_t core_repair_changed = 0;

  // Always 0: nothing writes these; they stay for the benchmark harness
  // (e2ebench/e2e.cc).
  std::uint64_t cltree_repairs = 0;            ///< read by e2e.cc:766
  std::uint64_t cltree_rebuild_fallbacks = 0;  ///< read by e2e.cc:768
  std::uint64_t nodes_touched = 0;             ///< read by e2e.cc:770

  // Cumulative publish-latency breakdown (the benchmark harness divides
  // deltas of these by publish counts to report per-phase costs).
  double publish_core_repair_ms = 0.0;   ///< incremental core maintenance
  double publish_index_repair_ms = 0.0;  ///< the CL-tree build (e2e.cc:761)
  double publish_arena_copy_ms = 0.0;    ///< overlay patch CSR / tail copy
  double publish_cas_ms = 0.0;           ///< the epoch-bump publish itself
};

/// Accepts mutation batches against the currently served dataset and
/// publishes overlay datasets through a caller-supplied CAS.
///
/// Thread-safe: Apply/CompactNow/StatsFor may race each other, the
/// background compaction thread, and any number of query threads (which
/// never take the mutator's lock — they only read published datasets).
/// Lock order: the mutator's mutex is acquired BEFORE the publish
/// callback runs, so the callback may take the dataset registry lock but
/// must never call back into the mutator.
class Mutator {
 public:
  /// `publish` installs `fresh` iff the currently served dataset is
  /// `expected`, returning whether it won (QueryService::InstallDataset in
  /// CAS mode).
  using PublishFn =
      std::function<bool(const DatasetPtr& expected, DatasetPtr fresh)>;

  explicit Mutator(PublishFn publish);

  /// Stops the background compaction thread (joining it) without
  /// publishing anything further.
  ~Mutator();

  Mutator(const Mutator&) = delete;
  Mutator& operator=(const Mutator&) = delete;

  /// Applies `batch` on top of `served` (the dataset the caller is
  /// serving) and publishes the resulting overlay. If `served` is not the
  /// mutator's last published dataset — an /upload or snapshot load
  /// replaced the graph — the working state is rebased onto `served`
  /// first, so mutations always target what queries see.
  ///
  /// Errors: kInvalidArgument for malformed batches (self-loop,
  /// out-of-range endpoint); kFailedPrecondition when the publish CAS
  /// loses to a concurrent graph replacement (the batch is discarded —
  /// the caller should re-read the served dataset and retry).
  Result<ApplyResult> Apply(const DatasetPtr& served,
                            const MutationBatch& batch);

  /// Synchronously folds the current overlay into an owned dataset and
  /// publishes it. Returns the compacted dataset (or `served` unchanged
  /// when it carries no overlay). kFailedPrecondition when the CAS loses.
  Result<DatasetPtr> CompactNow(const DatasetPtr& served);

  /// Stats snapshot; `served` only informs the `active` flag.
  MutationStats StatsFor(const DatasetPtr& served) const;

  /// Edge mutations an overlay may accumulate before the background
  /// thread folds it (default 4096, or CEXPLORER_COMPACT_THRESHOLD).
  void set_compact_threshold(std::uint64_t edges);

 private:
  struct Working;  // the mutable shadow state (delta.cc)

  /// Re-points the working state at `served` with an empty overlay.
  void RebaseLocked(const DatasetPtr& served);

  /// Builds + publishes the overlay dataset for the current working
  /// state, its CL-tree built from the maintained core numbers. On CAS
  /// failure the working state is wiped (a concurrent publish made it
  /// stale).
  Result<DatasetPtr> PublishOverlayLocked();

  /// Folds the overlay into an owned dataset and publishes it.
  Result<DatasetPtr> CompactLocked();

  void CompactionLoop();

  PublishFn publish_;

  mutable std::mutex mu_;
  std::unique_ptr<Working> work_;  // null until the first Apply
  MutationStats stats_;            // lifetime counters (guarded by mu_)

  std::uint64_t compact_threshold_;
  std::condition_variable compact_cv_;
  std::thread compact_thread_;
  bool compact_thread_started_ = false;
  bool stopping_ = false;
};

}  // namespace delta
}  // namespace cexplorer

#endif  // CEXPLORER_DELTA_DELTA_H_
