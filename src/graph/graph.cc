#include "graph/graph.h"

#include <algorithm>

namespace cexplorer {

bool Graph::HasEdge(VertexId u, VertexId v) const {
  if (u >= num_vertices() || v >= num_vertices()) return false;
  // Search the smaller adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<std::pair<VertexId, VertexId>> Graph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> out;
  out.reserve(num_edges());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (VertexId v : Neighbors(u)) {
      if (u < v) out.emplace_back(u, v);
    }
  }
  return out;
}

double Graph::AverageDegree() const {
  if (num_vertices() == 0) return 0.0;
  return 2.0 * static_cast<double>(num_edges()) /
         static_cast<double>(num_vertices());
}

std::size_t Graph::MaxDegree() const {
  std::size_t best = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    best = std::max(best, Degree(v));
  }
  return best;
}

void GraphBuilder::AddEdge(VertexId u, VertexId v) {
  if (u == v) return;  // drop self-loops eagerly
  if (u > v) std::swap(u, v);
  edges_.emplace_back(u, v);
  if (static_cast<std::size_t>(v) + 1 > num_vertices_) {
    num_vertices_ = static_cast<std::size_t>(v) + 1;
  }
}

void GraphBuilder::EnsureVertices(std::size_t n) {
  num_vertices_ = std::max(num_vertices_, n);
}

Graph GraphBuilder::Build() {
  // AddEdge already normalized every record (u < v, no self-loops), so the
  // old global sort-of-pairs — the O(m log m) term — is unnecessary:
  // counting-sort the half-edges straight into CSR position, then sort and
  // dedup each adjacency list locally. Duplicate records land as adjacent
  // duplicates in BOTH endpoint lists and are removed symmetrically, which
  // is all the global pair-dedup achieved. Total cost O(n + m + sum of
  // d log d), and the edge buffer is never reordered or copied.
  Graph g;
  const std::size_t n = num_vertices_;
  std::vector<std::uint64_t> offsets(n + 1, 0);

  // Count degrees (with duplicates), prefix-sum into offsets, scatter.
  for (const auto& [u, v] : edges_) {
    ++offsets[u + 1];
    ++offsets[v + 1];
  }
  for (std::size_t i = 1; i <= n; ++i) offsets[i] += offsets[i - 1];

  std::vector<VertexId> adjacency(edges_.size() * 2);
  std::vector<std::uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [u, v] : edges_) {
    adjacency[cursor[u]++] = v;
    adjacency[cursor[v]++] = u;
  }

  // Per-vertex sort + dedup, compacting in place. The write head never
  // passes the read head (removal only shrinks), so the forward copy is
  // safe; offsets are rewritten to the compacted positions as we go.
  std::uint64_t write = 0;
  std::uint64_t read_lo = 0;
  for (VertexId u = 0; u < n; ++u) {
    const std::uint64_t read_hi = offsets[u + 1];
    auto begin = adjacency.begin() + static_cast<std::ptrdiff_t>(read_lo);
    auto end = adjacency.begin() + static_cast<std::ptrdiff_t>(read_hi);
    std::sort(begin, end);
    auto unique_end = std::unique(begin, end);
    const std::uint64_t degree =
        static_cast<std::uint64_t>(unique_end - begin);
    if (write != read_lo) {
      std::move(begin, unique_end,
                adjacency.begin() + static_cast<std::ptrdiff_t>(write));
    }
    offsets[u] = write;  // offsets[u] was read_lo; rewrite after use
    write += degree;
    read_lo = read_hi;
  }
  offsets[n] = write;
  adjacency.resize(write);
  adjacency.shrink_to_fit();
  auto csr = std::make_shared<
      std::pair<std::vector<std::uint64_t>, std::vector<VertexId>>>(
      std::move(offsets), std::move(adjacency));
  g.offsets_ = csr->first;
  g.adjacency_ = csr->second;
  g.owner_ = std::move(csr);

  num_vertices_ = 0;
  edges_.clear();
  return g;
}

}  // namespace cexplorer
