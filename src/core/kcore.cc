#include "core/kcore.h"

#include <algorithm>
#include <atomic>

#include "common/bitset.h"
#include "graph/traversal.h"

namespace cexplorer {

std::vector<std::uint32_t> CoreDecomposition(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> degree(n), core(n, 0);
  std::size_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::uint32_t>(g.Degree(v));
    max_degree = std::max<std::size_t>(max_degree, degree[v]);
  }

  // Bucket sort vertices by degree: bin[d] = start offset of degree-d block.
  std::vector<std::size_t> bin(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bin[degree[v] + 1];
  for (std::size_t d = 1; d < bin.size(); ++d) bin[d] += bin[d - 1];

  std::vector<VertexId> order(n);       // vertices sorted by current degree
  std::vector<std::size_t> position(n);  // index of each vertex in `order`
  {
    std::vector<std::size_t> cursor(bin.begin(), bin.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]]++;
      order[position[v]] = v;
    }
  }

  // Peel in non-decreasing degree order, decrementing neighbours in place.
  for (std::size_t i = 0; i < n; ++i) {
    VertexId v = order[i];
    core[v] = degree[v];
    for (VertexId u : g.Neighbors(v)) {
      if (degree[u] > degree[v]) {
        // Swap u with the first vertex of its degree block, then shrink it.
        std::size_t du = degree[u];
        std::size_t pu = position[u];
        std::size_t pw = bin[du];
        VertexId w = order[pw];
        if (u != w) {
          std::swap(order[pu], order[pw]);
          position[u] = pw;
          position[w] = pu;
        }
        ++bin[du];
        --degree[u];
      }
    }
  }
  // Core numbers are monotone along the peel: enforce the prefix maximum so
  // a vertex peeled after a denser neighbourhood keeps the correct value.
  // (Standard BZ already guarantees this given the degree updates above.)
  return core;
}

std::vector<std::uint32_t> CoreDecomposition(const Graph& g, ThreadPool*) {
  return CoreDecomposition(g);
}

std::vector<std::uint32_t> CoreDecompositionNaive(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> core(n, 0);
  std::vector<std::int64_t> degree(n);
  Bitset alive(n);
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<std::int64_t>(g.Degree(v));
    alive.Set(v);
  }
  std::uint32_t k = 0;
  std::size_t removed = 0;
  while (removed < n) {
    // Repeatedly remove all vertices of degree < k+1 at level k; survivors
    // move to level k+1.
    bool changed = true;
    while (changed) {
      changed = false;
      for (VertexId v = 0; v < n; ++v) {
        if (alive.Test(v) && degree[v] <= static_cast<std::int64_t>(k)) {
          core[v] = k;
          alive.Reset(v);
          ++removed;
          changed = true;
          for (VertexId u : g.Neighbors(v)) {
            if (alive.Test(u)) --degree[u];
          }
        }
      }
    }
    ++k;
  }
  return core;
}

VertexList KCoreVertices(std::span<const std::uint32_t> core_numbers,
                         std::uint32_t k) {
  VertexList out;
  for (std::size_t v = 0; v < core_numbers.size(); ++v) {
    if (core_numbers[v] >= k) out.push_back(static_cast<VertexId>(v));
  }
  return out;
}

std::uint32_t PeelScratch::Begin(std::size_t n) {
  if (member_.size() < n) {
    member_.resize(n, 0);
    visited_.resize(n, 0);
    degree_.resize(n, 0);
  }
  if (++epoch_ == 0) {
    // Epoch wrap: stale stamps could collide with fresh ones; reset.
    std::fill(member_.begin(), member_.end(), 0);
    std::fill(visited_.begin(), visited_.end(), 0);
    epoch_ = 1;
  }
  return epoch_;
}

void PeelScratch::BeginBits(std::size_t n) {
  const std::size_t words = (n + 63) / 64;
  if (member_bits_.size() < words) {
    member_bits_.resize(words);
    visited_bits_.resize(words);
  }
  if (degree_.size() < n) degree_.resize(n, 0);
  std::fill(member_bits_.begin(), member_bits_.begin() + words, 0);
  std::fill(visited_bits_.begin(), visited_bits_.begin() + words, 0);
}

PeelScratch& ThreadLocalPeelScratch() {
  thread_local PeelScratch scratch;
  return scratch;
}

namespace {

std::atomic<PeelFrontierMode> g_peel_frontier_mode{PeelFrontierMode::kAuto};

/// Membership via epoch-stamped u32 arrays: O(candidates) setup, one random
/// 4-byte load per probe. Best when the candidate set is a small fraction
/// of the graph.
struct StampMembership {
  std::uint32_t* member;
  std::uint32_t* visited;
  std::uint32_t epoch;

  bool IsMember(VertexId v) const { return member[v] == epoch; }
  void AddMember(VertexId v) const { member[v] = epoch; }
  void RemoveMember(VertexId v) const { member[v] = 0; }
  bool Visited(VertexId v) const { return visited[v] == epoch; }
  void MarkVisited(VertexId v) const { visited[v] = epoch; }
};

/// Membership via word-packed bitsets: O(n/64) sequential clear up front,
/// then every probe touches a 32x smaller array that stays cache-resident
/// through the neighbour scans. Best when candidates cover much of the
/// graph (the common case for low-k community queries).
struct BitsetMembership {
  std::uint64_t* member;
  std::uint64_t* visited;

  bool IsMember(VertexId v) const {
    return (member[v >> 6] >> (v & 63)) & 1u;
  }
  void AddMember(VertexId v) const { member[v >> 6] |= 1ull << (v & 63); }
  void RemoveMember(VertexId v) const { member[v >> 6] &= ~(1ull << (v & 63)); }
  bool Visited(VertexId v) const {
    return (visited[v >> 6] >> (v & 63)) & 1u;
  }
  void MarkVisited(VertexId v) const { visited[v >> 6] |= 1ull << (v & 63); }
};

/// The peel proper, parameterised over the membership representation. Both
/// instantiations execute the identical algorithm (same queue order, same
/// tie-breaks), so the survivors are bit-identical across representations.
/// Leaves exactly the survivors of `candidates` marked as members.
template <typename Membership>
void PeelMembers(const Graph& g, const VertexList& candidates, std::uint32_t k,
                 PeelScratch& s, Membership m) {
  for (VertexId v : candidates) {
    m.AddMember(v);
    s.degree_[v] = 0;
  }
  for (VertexId v : candidates) {
    std::uint32_t d = 0;
    for (VertexId w : g.Neighbors(v)) {
      if (m.IsMember(w)) ++d;
    }
    s.degree_[v] = d;
  }

  // Queue-based peel: remove every vertex whose induced degree < k.
  s.queue_.clear();
  for (VertexId v : candidates) {
    if (s.degree_[v] < k) s.queue_.push_back(v);
  }
  std::size_t head = 0;
  while (head < s.queue_.size()) {
    VertexId v = s.queue_[head++];
    if (!m.IsMember(v)) continue;
    m.RemoveMember(v);
    for (VertexId w : g.Neighbors(v)) {
      if (!m.IsMember(w)) continue;
      if (s.degree_[w]-- == k) s.queue_.push_back(w);
    }
  }
}

/// Marks the connected component of the surviving member `root` as visited
/// by BFS over the members, handing each reached vertex to `reach`.
template <typename Membership, typename Reach>
void VisitComponent(const Graph& g, VertexId root, PeelScratch& s,
                    Membership m, Reach&& reach) {
  s.queue_.clear();
  s.queue_.push_back(root);
  m.MarkVisited(root);
  for (std::size_t head = 0; head < s.queue_.size(); ++head) {
    const VertexId u = s.queue_[head];
    reach(u);
    for (VertexId w : g.Neighbors(u)) {
      if (m.IsMember(w) && !m.Visited(w)) {
        m.MarkVisited(w);
        s.queue_.push_back(w);
      }
    }
  }
}

template <typename Membership>
VertexList PeelBody(const Graph& g, VertexList candidates, std::uint32_t k,
                    VertexId anchor, PeelScratch& s, Membership m) {
  PeelMembers(g, candidates, k, s, m);
  if (anchor != kInvalidVertex) {
    if (anchor >= g.num_vertices() || !m.IsMember(anchor)) {
      candidates.clear();
      return candidates;
    }
    VisitComponent(g, anchor, s, m, [](VertexId) {});
  }
  // The result is a subset of `candidates`, so it compacts into the input
  // buffer in candidate order: ascending, with no allocation and no sort.
  std::size_t out = 0;
  for (VertexId v : candidates) {
    if (anchor == kInvalidVertex ? m.IsMember(v) : m.Visited(v)) {
      candidates[out++] = v;
    }
  }
  candidates.resize(out);
  return candidates;
}

template <typename Membership>
LabelledKCore LabelBody(const Graph& g, VertexList candidates, std::uint32_t k,
                        PeelScratch& s, Membership m) {
  PeelMembers(g, candidates, k, s, m);
  // After the peel no survivor's degree is read again, so degree_ holds
  // each survivor's label. Roots are taken in candidate order, which
  // numbers the components by their smallest member.
  std::uint32_t next_label = 0;
  std::size_t survivors = 0;
  for (VertexId v : candidates) {
    if (!m.IsMember(v)) continue;
    ++survivors;
    if (m.Visited(v)) continue;
    VisitComponent(g, v, s, m, [&](VertexId u) { s.degree_[u] = next_label; });
    ++next_label;
  }
  LabelledKCore out;
  out.labels.reserve(survivors);
  std::size_t kept = 0;
  for (VertexId v : candidates) {
    if (!m.IsMember(v)) continue;
    candidates[kept++] = v;
    out.labels.push_back(s.degree_[v]);
  }
  candidates.resize(kept);
  out.vertices = std::move(candidates);
  return out;
}

bool UseBitsetFrontier(std::size_t num_candidates, std::size_t n) {
  switch (g_peel_frontier_mode.load(std::memory_order_relaxed)) {
    case PeelFrontierMode::kStamps:
      return false;
    case PeelFrontierMode::kBitset:
      return true;
    case PeelFrontierMode::kAuto:
      break;
  }
  // Bitsets pay an O(n/64) clear; stamps pay a 4-byte (vs 1-bit) random
  // probe footprint. The clear amortises once the candidate set is at
  // least n/64 vertices — i.e. one candidate per cleared word.
  return IsDenseSubset(num_candidates, n);
}

/// Runs `body` with the membership representation UseBitsetFrontier picks
/// for `num_candidates` of g's vertices, on fresh scratch state.
template <typename Body>
auto WithMembership(const Graph& g, std::size_t num_candidates,
                    PeelScratch& s, Body&& body) {
  const std::size_t n = g.num_vertices();
  if (UseBitsetFrontier(num_candidates, n)) {
    s.BeginBits(n);
    return body(
        BitsetMembership{s.member_bits_.data(), s.visited_bits_.data()});
  }
  const std::uint32_t epoch = s.Begin(n);
  return body(StampMembership{s.member_.data(), s.visited_.data(), epoch});
}

}  // namespace

VertexList ConnectedKCore(const Graph& g,
                          std::span<const std::uint32_t> core_numbers,
                          VertexId q, std::uint32_t k) {
  if (q >= g.num_vertices() || core_numbers[q] < k) return {};
  // BFS within the k-core on the thread's reusable stamp arrays: the only
  // allocation left is the result itself.
  PeelScratch& s = ThreadLocalPeelScratch();
  const std::uint32_t epoch = s.Begin(g.num_vertices());
  const StampMembership m{s.member_.data(), s.visited_.data(), epoch};
  for (std::size_t v = 0; v < core_numbers.size(); ++v) {
    if (core_numbers[v] >= k) m.AddMember(static_cast<VertexId>(v));
  }
  VisitComponent(g, q, s, m, [](VertexId) {});
  VertexList out(s.queue_.begin(), s.queue_.end());
  std::sort(out.begin(), out.end());
  return out;
}

void SetPeelFrontierMode(PeelFrontierMode mode) {
  g_peel_frontier_mode.store(mode, std::memory_order_relaxed);
}

PeelFrontierMode GetPeelFrontierMode() {
  return g_peel_frontier_mode.load(std::memory_order_relaxed);
}

VertexList PeelToKCoreSorted(const Graph& g, VertexList candidates,
                             std::uint32_t k, VertexId anchor,
                             PeelScratch* scratch) {
  PeelScratch& s = *scratch;
  return WithMembership(g, candidates.size(), s, [&](auto m) {
    return PeelBody(g, std::move(candidates), k, anchor, s, m);
  });
}

VertexList PeelToKCoreSorted(const Graph& g, VertexList candidates,
                             std::uint32_t k, VertexId anchor) {
  return PeelToKCoreSorted(g, std::move(candidates), k, anchor,
                           &ThreadLocalPeelScratch());
}

VertexList PeelToKCore(const Graph& g, VertexList candidates, std::uint32_t k,
                       VertexId anchor, PeelScratch* scratch) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  return PeelToKCoreSorted(g, std::move(candidates), k, anchor, scratch);
}

VertexList PeelToKCore(const Graph& g, VertexList candidates, std::uint32_t k,
                       VertexId anchor) {
  return PeelToKCore(g, std::move(candidates), k, anchor,
                     &ThreadLocalPeelScratch());
}

std::uint32_t LabelledKCore::LabelOf(VertexId v) const {
  const auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
  if (it == vertices.end() || *it != v) return kNoLabel;
  return labels[static_cast<std::size_t>(it - vertices.begin())];
}

VertexList LabelledKCore::Members(std::uint32_t label) const {
  VertexList out;
  out.reserve(static_cast<std::size_t>(
      std::count(labels.begin(), labels.end(), label)));
  for (std::size_t i = 0; i < vertices.size(); ++i) {
    if (labels[i] == label) out.push_back(vertices[i]);
  }
  return out;
}

LabelledKCore PeelToLabelledKCoreSorted(const Graph& g, VertexList candidates,
                                        std::uint32_t k) {
  PeelScratch& s = ThreadLocalPeelScratch();
  return WithMembership(g, candidates.size(), s, [&](auto m) {
    return LabelBody(g, std::move(candidates), k, s, m);
  });
}

std::uint32_t MaxCoreNumber(std::span<const std::uint32_t> core_numbers) {
  std::uint32_t best = 0;
  for (std::uint32_t c : core_numbers) best = std::max(best, c);
  return best;
}

}  // namespace cexplorer
