// Immutable undirected graph in compressed sparse row (CSR) form.
//
// The CSR layout keeps each vertex's neighbours in one contiguous, sorted
// span, which makes degree queries O(1), adjacency tests O(log degree), and
// full scans cache-friendly — the access patterns every community-retrieval
// algorithm in this library leans on.

#ifndef CEXPLORER_GRAPH_GRAPH_H_
#define CEXPLORER_GRAPH_GRAPH_H_

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "graph/types.h"

namespace cexplorer {

namespace snapshot {
struct Access;
}  // namespace snapshot

namespace delta {
struct Access;
}  // namespace delta

/// Immutable undirected simple graph (no self-loops, no parallel edges).
/// Construct through GraphBuilder or the factory functions in graph/io.h.
///
/// The CSR arrays are spans over bytes the graph co-owns: the builder's
/// vectors after a build, the mapped file after a snapshot load. Copying a
/// graph shares those bytes.
///
/// A graph may additionally carry a copy-on-write delta overlay (wired by
/// delta::Access): a per-vertex patch-slot table over the base CSR. A
/// vertex with a slot reads its full, sorted adjacency from the patch CSR
/// arrays instead of the base arrays; everything else — including every
/// consumer of Neighbors()'s sorted-span contract, the SIMD intersection
/// kernels and the peel scratch paths — is unchanged. Vertices appended
/// after the base was built (the overlay tail) always carry a slot.
class Graph {
 public:
  /// Empty graph.
  Graph() = default;

  /// Patch-slot sentinel: "serve this vertex from the base CSR arrays".
  static constexpr std::uint32_t kNoPatchSlot = 0xFFFFFFFFu;

  /// Number of vertices.
  std::size_t num_vertices() const {
    if (!patch_slot_.empty()) return patch_slot_.size();
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

  /// Number of undirected edges.
  std::size_t num_edges() const {
    if (!patch_slot_.empty()) {
      return static_cast<std::size_t>(patch_num_edges_);
    }
    return adjacency_.size() / 2;
  }

  /// Degree of v. Precondition: v < num_vertices().
  std::size_t Degree(VertexId v) const {
    if (!patch_slot_.empty()) {
      const std::uint32_t slot = patch_slot_[v];
      if (slot != kNoPatchSlot) {
        return patch_offsets_[slot + 1] - patch_offsets_[slot];
      }
    }
    return offsets_[v + 1] - offsets_[v];
  }

  /// Sorted neighbours of v. Precondition: v < num_vertices().
  std::span<const VertexId> Neighbors(VertexId v) const {
    if (!patch_slot_.empty()) {
      const std::uint32_t slot = patch_slot_[v];
      if (slot != kNoPatchSlot) {
        return {patch_adjacency_.data() + patch_offsets_[slot],
                patch_offsets_[slot + 1] - patch_offsets_[slot]};
      }
    }
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// True iff the undirected edge {u, v} exists (binary search).
  bool HasEdge(VertexId u, VertexId v) const;

  /// All edges as (u, v) pairs with u < v, in ascending order.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// Sum of degrees / n, or 0 for the empty graph.
  double AverageDegree() const;

  /// Maximum degree over all vertices (0 for the empty graph).
  std::size_t MaxDegree() const;

  /// Approximate footprint of the CSR arrays, in bytes (heap or mapped,
  /// whichever backs them).
  std::size_t MemoryBytes() const {
    return offsets_.size() * sizeof(std::uint64_t) +
           adjacency_.size() * sizeof(VertexId) +
           patch_slot_.size() * sizeof(std::uint32_t) +
           patch_offsets_.size() * sizeof(std::uint64_t) +
           patch_adjacency_.size() * sizeof(VertexId);
  }

  /// True when a delta overlay is layered over the base CSR.
  bool has_patches() const { return !patch_slot_.empty(); }

 private:
  friend class GraphBuilder;
  friend struct snapshot::Access;
  friend struct delta::Access;

  // Keeps offsets_ and adjacency_ alive: GraphBuilder's vectors, or the
  // mapping that snapshot::Access views.
  std::shared_ptr<const void> owner_;
  std::span<const std::uint64_t> offsets_;  // size n+1
  std::span<const VertexId> adjacency_;     // size 2m, sorted per vertex

  // Delta-overlay mode (delta::Access): one slot entry per overlay vertex
  // and a patch CSR holding the full sorted adjacency of every patched
  // vertex. The owner of the overlay AttributedGraph holding this graph
  // keeps the spans alive.
  std::span<const std::uint32_t> patch_slot_;     // size n_total
  std::span<const std::uint64_t> patch_offsets_;  // size slots+1
  std::span<const VertexId> patch_adjacency_;
  std::uint64_t patch_num_edges_ = 0;  // undirected edge count with patches
};

/// Accumulates edges and produces a normalized Graph.
///
/// Self-loops are dropped and duplicate edges collapsed during Build, so
/// callers may add edges freely (in either endpoint order, repeatedly).
class GraphBuilder {
 public:
  GraphBuilder() = default;

  /// Pre-declares the number of vertices; vertices mentioned by AddEdge
  /// extend this automatically.
  explicit GraphBuilder(std::size_t num_vertices)
      : num_vertices_(num_vertices) {}

  /// Records the undirected edge {u, v}.
  void AddEdge(VertexId u, VertexId v);

  /// Ensures the built graph has at least `n` vertices.
  void EnsureVertices(std::size_t n);

  /// Number of edge records added so far (before dedup).
  std::size_t num_pending_edges() const { return edges_.size(); }

  /// Builds the normalized graph; the builder is left empty.
  Graph Build();

 private:
  std::size_t num_vertices_ = 0;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_GRAPH_GRAPH_H_
