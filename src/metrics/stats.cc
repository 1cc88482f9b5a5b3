#include "metrics/stats.h"

#include <algorithm>
#include <limits>

#include "common/bitset.h"

namespace cexplorer {

namespace {

/// Level-synchronous BFS from `source` through the vertices whose bit is
/// set in `member`. Returns the depth of the last non-empty level (the
/// eccentricity of `source` within its member component) and sets `*far`
/// to the smallest id on that level: the vertex DoubleSweepDiameter on the
/// sorted induced subgraph would pick, since it takes the first vertex, in
/// id order, at the largest distance. Clears the bit of every vertex it
/// reaches, so one rarely-true test per neighbour replaces a member test
/// plus a visited test.
std::uint32_t SweepWithin(const Graph& g, VertexId source, Bitset* member,
                          VertexId* far) {
  VertexList level{source};
  VertexList next;
  member->Reset(source);
  std::uint32_t depth = 0;
  *far = source;
  while (true) {
    next.clear();
    VertexId smallest = std::numeric_limits<VertexId>::max();
    for (VertexId u : level) {
      for (VertexId w : g.Neighbors(u)) {
        if (member->Test(w)) {
          member->Reset(w);
          next.push_back(w);
          smallest = std::min(smallest, w);
        }
      }
    }
    if (next.empty()) return depth;
    ++depth;
    *far = smallest;
    std::swap(level, next);
  }
}

}  // namespace

CommunityStats ComputeStats(const Graph& g, const VertexList& community) {
  CommunityStats stats;
  if (community.empty()) return stats;

  // Everything is counted on the parent graph, restricted to a membership
  // bitset: no induced subgraph is materialized.
  VertexList members = community;
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  Bitset member(g.num_vertices());
  for (VertexId v : members) member.Set(v);

  std::size_t degree_sum = 0;
  std::size_t min_deg = std::numeric_limits<std::size_t>::max();
  std::size_t max_deg = 0;
  for (VertexId v : members) {
    std::size_t degree = 0;
    for (VertexId w : g.Neighbors(v)) {
      if (w != v && member.Test(w)) ++degree;
    }
    degree_sum += degree;
    min_deg = std::min(min_deg, degree);
    max_deg = std::max(max_deg, degree);
  }
  stats.num_vertices = members.size();
  stats.num_edges = degree_sum / 2;
  stats.average_degree = 2.0 * static_cast<double>(stats.num_edges) /
                         static_cast<double>(stats.num_vertices);
  stats.min_degree = min_deg;
  stats.max_degree = max_deg;

  if (stats.num_vertices >= 2) {
    const double pairs = static_cast<double>(stats.num_vertices) *
                         static_cast<double>(stats.num_vertices - 1) / 2.0;
    stats.density = static_cast<double>(stats.num_edges) / pairs;
  }

  // Double sweep from the smallest member, as DoubleSweepDiameter(sub, 0)
  // runs it on the sorted induced subgraph. Each sweep consumes the bits
  // of the members it reaches.
  VertexId far = members.front();
  SweepWithin(g, far, &member, &far);
  for (VertexId v : members) member.Set(v);
  stats.diameter = SweepWithin(g, far, &member, &far);
  return stats;
}

}  // namespace cexplorer
