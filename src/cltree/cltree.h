// CL-tree index (Fang et al., PVLDB 2016), the index behind C-Explorer's
// ACQ engine.
//
// The CL-tree organizes the nested k-cores of an attributed graph: the
// subtree rooted at a non-root node is one connected component of the
// k-core for the node's core number, while the root (core 0) adopts every
// component, so its subtree is the whole graph, connected or not. Each
// vertex is "anchored" at the unique node whose component first contains it
// (its core number). Each node carries an inverted list keyword -> anchored
// vertices, so the vertices of a k-core component that contain a given
// keyword set can be collected in one subtree walk over the relevant
// postings only.
//
// Chains of nodes with identical vertex sets (a component whose k-core and
// (k+1)-core coincide) are compressed into the deepest node, which keeps the
// tree at most 2n nodes — the "linear space" claim of the paper. Queries
// remain exact under compression because a compressed node's subtree equals
// the j-core component for every j between its parent's core (exclusive)
// and its own core (inclusive).

#ifndef CEXPLORER_CLTREE_CLTREE_H_
#define CEXPLORER_CLTREE_CLTREE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/attributed_graph.h"
#include "graph/types.h"

namespace cexplorer {

class ThreadPool;

/// Node id within a ClTree.
using ClNodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr ClNodeId kInvalidClNode =
    std::numeric_limits<std::uint32_t>::max();

/// Indexed view of one node's posting lists inside the tree-wide CSR
/// arenas: postings[i] (the anchored vertices containing inv_keywords[i])
/// is the arena slice [offsets[i], offsets[i + 1]). Offsets are absolute
/// positions in the postings arena, and `offsets` points at this node's
/// slice of the shared offsets array (size() + 1 entries are readable).
struct ClTreePostingsView {
  const std::uint32_t* offsets = nullptr;
  const VertexId* arena = nullptr;
  std::size_t count = 0;

  std::size_t size() const { return count; }
  bool empty() const { return count == 0; }
  std::span<const VertexId> operator[](std::size_t i) const {
    return {arena + offsets[i], offsets[i + 1] - offsets[i]};
  }
};

/// One CL-tree node: a connected component of the `core`-core, minus the
/// components of deeper cores (those live in child subtrees). The root is
/// the exception: it holds the core-0 vertices of every component.
///
/// The per-node lists are spans into tree-wide arenas (children, anchored
/// vertices and inverted lists alike), so the node directory itself is a
/// flat array that a snapshot load can rebuild with a single allocation.
struct ClTreeNode {
  /// Core number of this node (max k such that the subtree is one connected
  /// component of the k-core; 0 at the root).
  std::uint32_t core = 0;

  /// Parent node, kInvalidClNode for the root.
  ClNodeId parent = kInvalidClNode;

  /// Child nodes, ordered by their minimum subtree vertex (a slice of the
  /// tree-wide child arena).
  std::span<const ClNodeId> children;

  /// Vertices anchored here (core number == core, within this component),
  /// ascending (a slice of the tree-wide anchor arena).
  std::span<const VertexId> vertices;

  /// End (exclusive) of this node's subtree in the preorder node array:
  /// the subtree of node i is exactly nodes [i, subtree_end).
  ClNodeId subtree_end = 0;

  /// Inverted list over anchored vertices, viewing the tree-wide CSR
  /// arenas (keywords sorted ascending; inv_postings[i] lists the anchored
  /// vertices containing inv_keywords[i], ascending). Because nodes are
  /// laid out in preorder, a subtree walk over the postings of its nodes
  /// is one contiguous forward scan of the arenas.
  std::span<const KeywordId> inv_keywords;
  ClTreePostingsView inv_postings;

  /// Posting list for `kw` among anchored vertices (empty if absent).
  std::span<const VertexId> Postings(KeywordId kw) const;
};

/// How to construct the CL-tree.
enum class ClTreeBuildMethod {
  kBasic,     ///< top-down recursive component splitting, O(m * k_max)
  kAdvanced,  ///< bottom-up union-find, near-linear (the paper's choice)
};

/// Postings are always plain u32 CSR arrays. This one-value enum only
/// keeps the benchmark harness's ClTree::Build(g, method, pool, format)
/// call compiling (e2ebench/e2e.cc:1023); nothing branches on it.
enum class PostingFormat { kRaw };

/// Mutable node used while a tree is under construction (the basic and
/// advanced builders); Finalize flattens these into the arena form.
struct ClTreeRawNode {
  std::uint32_t core = 0;
  ClNodeId parent = kInvalidClNode;
  std::vector<ClNodeId> children;
  VertexList vertices;
};

/// Position-independent image of one ClTreeNode: every span is stored as
/// (begin, count) into its arena, so a node directory persisted as a flat
/// record array can be re-hydrated against mapped arenas with one pass.
/// Fixed-width little-endian POD; this is the snapshot wire layout.
struct ClTreeNodeRecord {
  std::uint32_t core = 0;
  ClNodeId parent = kInvalidClNode;
  ClNodeId subtree_end = 0;
  std::uint32_t children_count = 0;
  std::uint64_t children_begin = 0;   // into the child arena
  std::uint64_t anchor_begin = 0;     // into the anchor arena
  std::uint64_t anchor_count = 0;
  std::uint64_t inv_slot_begin = 0;   // into the inverted-list arenas
  std::uint64_t inv_count = 0;
};
static_assert(sizeof(ClTreeNodeRecord) == 56, "snapshot wire layout");

/// Arenas + records from which a ClTree view is constructed (the snapshot
/// load path). All spans point into the bytes `owner` keeps alive, and the
/// tree holds `owner` for as long as it lives; ClTree::FromParts validates
/// every cross-reference before building node views over them.
struct ClTreeParts {
  std::shared_ptr<const void> owner;
  std::span<const ClTreeNodeRecord> records;
  std::span<const ClNodeId> vertex_node;
  std::span<const std::uint64_t> subtree_sizes;
  std::span<const ClNodeId> child_arena;
  std::span<const VertexId> anchor_arena;
  std::span<const KeywordId> inv_keyword_arena;
  std::span<const std::uint32_t> inv_offset_arena;
  std::span<const VertexId> inv_posting_arena;
  std::span<const std::uint64_t> node_kw_bloom;
};

/// The CL-tree index over an attributed graph. Immutable once built.
///
/// Node ids are preorder positions (root = 0) with children canonically
/// ordered, so two structurally equal trees have identical arrays — the
/// basic/advanced equivalence tests rely on this.
class ClTree {
 public:
  ClTree() = default;

  /// Builds the index on the calling thread, core decomposition included.
  /// The graph must outlive the tree (not owned). The trailing pool and
  /// PostingFormat are ignored; they stay only for the benchmark harness's
  /// call (e2ebench/e2e.cc:1023).
  static ClTree Build(const AttributedGraph& g,
                      ClTreeBuildMethod method = ClTreeBuildMethod::kAdvanced,
                      ThreadPool* pool = nullptr,
                      PostingFormat = PostingFormat::kRaw);

  /// Build variant taking precomputed core numbers (size num_vertices):
  /// Dataset::Build keeps the cores it computed, and the dynamic-graph
  /// path already knows every core from incremental maintenance, so
  /// neither peels the graph a second time. `core_numbers` must equal what
  /// CoreDecomposition(g.graph()) would return; the result is then
  /// byte-identical to the peel-included overload.
  static ClTree Build(const AttributedGraph& g,
                      std::span<const std::uint32_t> core_numbers,
                      ClTreeBuildMethod method = ClTreeBuildMethod::kAdvanced);

  /// Number of nodes.
  std::size_t num_nodes() const { return nodes_.size(); }

  /// Node accessor. Precondition: id < num_nodes().
  const ClTreeNode& node(ClNodeId id) const { return nodes_[id]; }

  /// Root node id (0), or kInvalidClNode for an empty tree.
  ClNodeId root() const { return nodes_.empty() ? kInvalidClNode : 0; }

  /// The node anchoring vertex v; kInvalidClNode when v is out of range.
  ClNodeId NodeOf(VertexId v) const {
    return v < vertex_node_.size() ? vertex_node_[v] : kInvalidClNode;
  }

  /// Core number of vertex v (equals node(NodeOf(v)).core).
  std::uint32_t CoreOf(VertexId v) const {
    const ClNodeId id = NodeOf(v);
    return id == kInvalidClNode ? 0 : nodes_[id].core;
  }

  /// For k >= 1, the node whose subtree is the connected k-core component
  /// containing q; it is never the root. For k = 0, the root, whose subtree
  /// is the whole graph rather than q's component. kInvalidClNode if
  /// core(q) < k.
  ClNodeId LocateKCore(VertexId q, std::uint32_t k) const;

  /// All vertices in the subtree of `id`, ascending. A dense subtree
  /// (IsDenseSubset in core/kcore.h) is read in one pass over the
  /// vertex-to-node map, which yields the vertices already in order; a
  /// sparse one copies its nodes' anchored lists and sorts them.
  VertexList SubtreeVertices(ClNodeId id) const;

  /// Number of vertices in the subtree of `id`.
  std::size_t SubtreeSize(ClNodeId id) const { return subtree_sizes_[id]; }

  /// Vertices in the subtree of `id` whose keyword sets contain every
  /// keyword in the sorted list `kws`, ascending. Runs on inverted lists:
  /// per node, the postings are progressively intersected starting from
  /// the rarest keyword (SIMD kernels), after a one-word bloom pre-test.
  VertexList CollectWithKeywords(ClNodeId id,
                                 std::span<const KeywordId> kws) const;

  /// Appends the anchored vertices of the single node `id` containing every
  /// keyword in the sorted list `kws` to `*out` (ascending within this
  /// node's contribution). `query_fp` must be simd::BloomFingerprint(kws).
  /// Intersects in the calling thread's reusable scratch — steady-state
  /// calls allocate nothing beyond `out` growth. This is the per-node
  /// kernel behind CollectWithKeywords and the ACQ batch gather.
  void AppendNodeMatches(ClNodeId id, std::span<const KeywordId> kws,
                         std::uint64_t query_fp, VertexList* out) const;

  /// Bloom fingerprint over the distinct keywords anchored at node `id`
  /// (one u64 per node; see simd::BloomMayContainAll).
  std::uint64_t NodeKeywordBloom(ClNodeId id) const {
    return node_kw_bloom_[id];
  }

  /// Number of vertices in the subtree of `id` containing keyword `kw`.
  std::size_t CountKeyword(ClNodeId id, KeywordId kw) const;

  /// Approximate heap footprint in bytes (structure + inverted lists).
  std::size_t MemoryBytes() const;

  /// Re-hydrates a tree from persisted records + borrowed arenas (the
  /// snapshot load path): validates every record's arena references, then
  /// materializes the node directory in a single allocation — no per-node
  /// heap traffic, no copies of the arenas. `num_graph_vertices` is the
  /// vertex count of the graph the parts claim to index. Returns
  /// Unavailable on any inconsistency.
  static Result<ClTree> FromParts(const ClTreeParts& parts,
                                  std::size_t num_graph_vertices);

 private:
  friend class ClTreeBuilder;
  friend struct snapshot::Access;

  /// Reorders an arbitrarily-built tree into canonical preorder, fills
  /// subtree_end / subtree_sizes_ / vertex_node_ and writes the inverted
  /// lists in one keyword-major pass over the graph.
  void Finalize(const AttributedGraph& g, std::vector<ClTreeRawNode> raw_nodes,
                ClNodeId raw_root);

  // The node directory is always a materialized vector (its spans are
  // process-local pointers). Every array it points into is a span over
  // bytes owner_ keeps alive: the arenas Finalize filled, or the mapped
  // file on a snapshot load. Copying or moving the tree shares them.
  std::shared_ptr<const void> owner_;
  std::vector<ClTreeNode> nodes_;          // preorder
  std::span<const ClNodeId> vertex_node_;  // vertex -> anchoring node
  std::span<const std::uint64_t> subtree_sizes_;

  // Flattened per-node child lists and anchored-vertex lists in preorder
  // node order; nodes view their slices through children / vertices.
  std::span<const ClNodeId> child_arena_;
  std::span<const VertexId> anchor_arena_;

  // Tree-wide inverted-list arenas in preorder node order (CSR layout):
  // one keyword entry per (node, distinct keyword), one offset per keyword
  // entry plus a final sentinel, and one postings entry per (anchored
  // vertex, keyword) pair. Nodes view their slices through inv_keywords /
  // inv_postings; sized exactly from the Finalize counting pass.
  std::span<const KeywordId> inv_keyword_arena_;
  std::span<const std::uint32_t> inv_offset_arena_;
  std::span<const VertexId> inv_posting_arena_;

  // One-word keyword bloom per node (OR of simd::BloomMask over the node's
  // distinct keywords): lets subtree walks skip nodes that cannot possibly
  // anchor all query keywords with a single AND.
  std::span<const std::uint64_t> node_kw_bloom_;
};

}  // namespace cexplorer

#endif  // CEXPLORER_CLTREE_CLTREE_H_
