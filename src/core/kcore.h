// k-core decomposition and extraction.
//
// The k-core of G is the largest subgraph in which every vertex has degree
// >= k; cores are nested (the (k+1)-core is contained in the k-core), which
// is the structural fact the CL-tree index is built on. The core number of a
// vertex is the largest k such that the vertex belongs to the k-core.

#ifndef CEXPLORER_CORE_KCORE_H_
#define CEXPLORER_CORE_KCORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "graph/types.h"

namespace cexplorer {

class ThreadPool;

/// Core number of every vertex, computed by Batagelj-Zaversnik bucket
/// peeling in O(n + m) time and O(n) extra space.
std::vector<std::uint32_t> CoreDecomposition(const Graph& g);

/// Forwards to CoreDecomposition(g) and ignores `pool`. Kept only for the
/// benchmark harness's call (e2ebench/e2e.cc:1019).
std::vector<std::uint32_t> CoreDecomposition(const Graph& g, ThreadPool* pool);

/// Reference implementation: iterative min-degree peeling with explicit
/// subgraph recomputation, O(n * m) worst case. Used as a test oracle only.
std::vector<std::uint32_t> CoreDecompositionNaive(const Graph& g);

/// Vertices of the k-core (core number >= k), ascending.
VertexList KCoreVertices(std::span<const std::uint32_t> core_numbers,
                         std::uint32_t k);

/// Reusable buffers for the candidate-set peel (PeelToKCore) and the
/// filtered BFS behind it. Membership comes in two representations chosen
/// per call by a density heuristic:
///   * sparse queries use epoch-stamped u32 arrays — a new peel bumps the
///     epoch instead of clearing, so the per-call cost is O(candidates);
///   * dense queries use word-packed bitsets — clearing costs O(n/64)
///     sequential stores, and the peel's random membership probes then hit
///     a 32x smaller (cache-resident) array.
/// Either way, steady-state queries allocate nothing beyond their result.
/// A scratch is single-owner state — share one per thread
/// (ThreadLocalPeelScratch), never across threads. Members are public for
/// the peel internals and tests; treat them as opaque elsewhere.
struct PeelScratch {
  PeelScratch() = default;
  PeelScratch(const PeelScratch&) = delete;
  PeelScratch& operator=(const PeelScratch&) = delete;

  /// Grows the stamp arrays to n vertices and returns the fresh epoch.
  std::uint32_t Begin(std::size_t n);

  /// Grows and zeroes the bitset arrays (and sizes degree_) for n vertices.
  void BeginBits(std::size_t n);

  std::vector<std::uint32_t> member_;   ///< stamp: live candidate-set member
  std::vector<std::uint32_t> visited_;  ///< stamp: reached by the final BFS
  std::vector<std::uint64_t> member_bits_;   ///< dense-path membership
  std::vector<std::uint64_t> visited_bits_;  ///< dense-path BFS marks
  std::vector<std::uint32_t> degree_;   ///< induced degree, valid on members
  std::vector<VertexId> queue_;         ///< shared peel / BFS worklist
  std::uint32_t epoch_ = 0;
};

/// Which membership representation PeelToKCore uses (a pure implementation
/// choice — results are bit-identical). kAuto picks by candidate density;
/// the explicit modes exist for tests and tuning.
enum class PeelFrontierMode { kAuto, kStamps, kBitset };

/// The density rule behind kAuto: a subset of `size` of the graph's `n`
/// vertices is dense when it holds at least one vertex per 64, so one pass
/// over all n vertices (or one word per 64 of them) costs no more than
/// touching the members alone. ClTree::SubtreeVertices uses the same rule
/// to pick between a vertex scan and copy-and-sort.
inline bool IsDenseSubset(std::size_t size, std::size_t n) {
  return size * 64 >= n;
}

/// Process-wide override of the peel membership representation.
void SetPeelFrontierMode(PeelFrontierMode mode);
PeelFrontierMode GetPeelFrontierMode();

/// The calling thread's reusable peel scratch (one per thread, grown to the
/// largest graph the thread has peeled on).
PeelScratch& ThreadLocalPeelScratch();

/// The connected component of `q` inside the k-core of `g`, ascending;
/// empty if core(q) < k. This is exactly the community returned by the
/// Global algorithm of Sozio-Gionis for parameter k.
VertexList ConnectedKCore(const Graph& g,
                          std::span<const std::uint32_t> core_numbers,
                          VertexId q, std::uint32_t k);

/// Maximal subset of `candidates` in which every vertex has at least k
/// neighbours inside the subset (peeling restricted to the candidate set).
/// If `anchor` is not kInvalidVertex, the result is further restricted to
/// the connected component of `anchor` (empty if the anchor was peeled).
/// Result ascending: the survivors are kept in the order of the sorted
/// candidates, so the peel itself never sorts. Uses the calling thread's
/// scratch, so a steady-state call allocates nothing (the result reuses
/// the candidate buffer).
VertexList PeelToKCore(const Graph& g, VertexList candidates, std::uint32_t k,
                       VertexId anchor = kInvalidVertex);

/// Explicit-scratch variant for callers managing their own buffers.
VertexList PeelToKCore(const Graph& g, VertexList candidates, std::uint32_t k,
                       VertexId anchor, PeelScratch* scratch);

/// Like PeelToKCore, but `candidates` must already be sorted ascending with
/// no duplicates — callers that produce sorted sets skip the re-sort, and
/// the peel then sorts nothing at all.
VertexList PeelToKCoreSorted(const Graph& g, VertexList candidates,
                             std::uint32_t k, VertexId anchor = kInvalidVertex);
VertexList PeelToKCoreSorted(const Graph& g, VertexList candidates,
                             std::uint32_t k, VertexId anchor,
                             PeelScratch* scratch);

/// Maximum core number present in `core_numbers` (0 for empty input).
std::uint32_t MaxCoreNumber(std::span<const std::uint32_t> core_numbers);

}  // namespace cexplorer

#endif  // CEXPLORER_CORE_KCORE_H_
