// Community statistics shown in C-Explorer's comparison table (Figure 6a):
// vertex/edge counts, average degree, plus structural extras.

#ifndef CEXPLORER_METRICS_STATS_H_
#define CEXPLORER_METRICS_STATS_H_

#include <cstdint>

#include "graph/graph.h"
#include "graph/types.h"

namespace cexplorer {

/// Structural statistics of one community within a host graph.
struct CommunityStats {
  std::size_t num_vertices = 0;
  std::size_t num_edges = 0;      ///< induced edges
  double average_degree = 0.0;    ///< 2 * edges / vertices
  std::size_t min_degree = 0;     ///< minimum induced degree
  std::size_t max_degree = 0;     ///< maximum induced degree
  double density = 0.0;           ///< edges / C(vertices, 2)
  std::uint32_t diameter = 0;     ///< double-sweep BFS estimate (induced)
};

/// Computes statistics of the subgraph of `g` induced by `community`,
/// which may be unsorted and contain duplicates. Counts on `g` under a
/// membership bitset, without materializing the subgraph; `diameter` is
/// the double sweep from the smallest member.
CommunityStats ComputeStats(const Graph& g, const VertexList& community);

}  // namespace cexplorer

#endif  // CEXPLORER_METRICS_STATS_H_
