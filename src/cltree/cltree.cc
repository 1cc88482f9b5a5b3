#include "cltree/cltree.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <numeric>

#include "common/bitset.h"
#include "common/simd/simd.h"
#include "core/kcore.h"

namespace cexplorer {

namespace {

/// Raw (pre-canonicalization) tree under construction: nodes in arbitrary
/// order with parent/children links by raw index.
struct RawTree {
  std::vector<ClTreeRawNode> nodes;
  ClNodeId root = kInvalidClNode;
};

/// The arrays a built tree serves. Finalize moves each one here once it is
/// complete, and the tree's owner_ keeps them alive.
struct Arenas {
  std::vector<ClNodeId> vertex_node;
  std::vector<std::uint64_t> subtree_sizes;
  std::vector<ClNodeId> child_arena;
  std::vector<VertexId> anchor_arena;
  std::vector<KeywordId> inv_keyword_arena;
  std::vector<std::uint32_t> inv_offset_arena;
  std::vector<VertexId> inv_posting_arena;
  std::vector<std::uint64_t> node_kw_bloom;
};

// ---------------------------------------------------------------------------
// Basic builder: top-down recursive component splitting.
// ---------------------------------------------------------------------------

RawTree BuildBasicTree(const Graph& g, std::span<const std::uint32_t> core) {
  const std::size_t n = g.num_vertices();
  RawTree raw;

  // Root: core 0, anchoring the isolated (core-0) vertices.
  raw.root = 0;
  raw.nodes.emplace_back();
  raw.nodes[0].core = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (core[v] == 0) raw.nodes[0].vertices.push_back(v);
  }

  // Work item: a connected component of some k-core, to become one node
  // (at the component's minimum core number) plus its descendants.
  struct Item {
    ClNodeId parent;
    VertexList component;
  };

  Bitset allowed(n);
  std::vector<Item> stack;

  // Seed: connected components of the 1-core.
  {
    Bitset visited(n);
    for (VertexId v = 0; v < n; ++v) {
      if (core[v] >= 1) allowed.Set(v);
    }
    for (VertexId v = 0; v < n; ++v) {
      if (core[v] < 1 || visited.Test(v)) continue;
      VertexList comp;
      std::vector<VertexId> queue{v};
      visited.Set(v);
      std::size_t head = 0;
      while (head < queue.size()) {
        VertexId u = queue[head++];
        comp.push_back(u);
        for (VertexId w : g.Neighbors(u)) {
          if (allowed.Test(w) && !visited.Test(w)) {
            visited.Set(w);
            queue.push_back(w);
          }
        }
      }
      std::sort(comp.begin(), comp.end());
      stack.push_back({0, std::move(comp)});
    }
  }

  Bitset in_higher(n);
  Bitset visited(n);
  while (!stack.empty()) {
    Item item = std::move(stack.back());
    stack.pop_back();

    std::uint32_t kk = core[item.component.front()];
    for (VertexId v : item.component) kk = std::min(kk, core[v]);

    ClNodeId id = static_cast<ClNodeId>(raw.nodes.size());
    raw.nodes.emplace_back();
    raw.nodes[id].core = kk;
    raw.nodes[id].parent = item.parent;
    raw.nodes[item.parent].children.push_back(id);

    VertexList higher;
    for (VertexId v : item.component) {
      if (core[v] == kk) {
        raw.nodes[id].vertices.push_back(v);
      } else {
        higher.push_back(v);
        in_higher.Set(v);
      }
    }

    // Split `higher` into connected components; each becomes a child item.
    for (VertexId v : higher) {
      if (visited.Test(v)) continue;
      VertexList comp;
      std::vector<VertexId> queue{v};
      visited.Set(v);
      std::size_t head = 0;
      while (head < queue.size()) {
        VertexId u = queue[head++];
        comp.push_back(u);
        for (VertexId w : g.Neighbors(u)) {
          if (in_higher.Test(w) && !visited.Test(w)) {
            visited.Set(w);
            queue.push_back(w);
          }
        }
      }
      std::sort(comp.begin(), comp.end());
      stack.push_back({id, std::move(comp)});
    }
    for (VertexId v : higher) {
      in_higher.Reset(v);
      visited.Reset(v);
    }
  }
  return raw;
}

// ---------------------------------------------------------------------------
// Advanced builder: bottom-up union-find over decreasing core numbers.
// ---------------------------------------------------------------------------

class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), VertexId{0});
  }

  VertexId Find(VertexId v) {
    VertexId root = v;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[v] != root) {
      VertexId next = parent_[v];
      parent_[v] = root;
      v = next;
    }
    return root;
  }

  /// Unions the sets of a and b; returns the surviving root.
  VertexId Union(VertexId a, VertexId b) {
    VertexId ra = Find(a);
    VertexId rb = Find(b);
    if (ra == rb) return ra;
    if (size_[ra] < size_[rb]) std::swap(ra, rb);
    parent_[rb] = ra;
    size_[ra] += size_[rb];
    return ra;
  }

 private:
  std::vector<VertexId> parent_;
  std::vector<std::uint32_t> size_;
};

RawTree BuildAdvancedTree(const Graph& g,
                          std::span<const std::uint32_t> core) {
  const std::size_t n = g.num_vertices();
  RawTree raw;

  // Bucket vertices by core number.
  const std::uint32_t kmax = MaxCoreNumber(core);
  std::vector<VertexList> by_core(kmax + 1);
  for (VertexId v = 0; v < n; ++v) by_core[core[v]].push_back(v);

  UnionFind dsu(n);
  Bitset present(n);
  // Per DSU-root bookkeeping: node ids of already-built child subtrees and
  // vertices anchored at the level being processed. Moved (small-into-large)
  // on union.
  std::vector<std::vector<ClNodeId>> pend_children(n);
  std::vector<VertexList> pend_anchored(n);

  auto merge_meta = [&](VertexId survivor, VertexId absorbed) {
    if (survivor == absorbed) return;
    auto& cs = pend_children[survivor];
    auto& ca = pend_children[absorbed];
    if (cs.size() < ca.size()) cs.swap(ca);
    cs.insert(cs.end(), ca.begin(), ca.end());
    ca.clear();
    ca.shrink_to_fit();
    auto& as = pend_anchored[survivor];
    auto& aa = pend_anchored[absorbed];
    if (as.size() < aa.size()) as.swap(aa);
    as.insert(as.end(), aa.begin(), aa.end());
    aa.clear();
    aa.shrink_to_fit();
  };

  std::vector<VertexId> affected;
  for (std::uint32_t c = kmax; c >= 1; --c) {
    const VertexList& newly = by_core[c];
    if (newly.empty()) continue;
    for (VertexId v : newly) {
      present.Set(v);
      pend_anchored[v].push_back(v);
    }
    for (VertexId v : newly) {
      for (VertexId u : g.Neighbors(v)) {
        if (!present.Test(u)) continue;
        VertexId rv = dsu.Find(v);
        VertexId ru = dsu.Find(u);
        if (rv == ru) continue;
        VertexId survivor = dsu.Union(rv, ru);
        merge_meta(survivor, survivor == rv ? ru : rv);
      }
    }
    affected.clear();
    for (VertexId v : newly) affected.push_back(dsu.Find(v));
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    for (VertexId r : affected) {
      ClNodeId id = static_cast<ClNodeId>(raw.nodes.size());
      raw.nodes.emplace_back();
      raw.nodes[id].core = c;
      raw.nodes[id].vertices = std::move(pend_anchored[r]);
      std::sort(raw.nodes[id].vertices.begin(), raw.nodes[id].vertices.end());
      raw.nodes[id].children = std::move(pend_children[r]);
      for (ClNodeId child : raw.nodes[id].children) {
        raw.nodes[child].parent = id;
      }
      pend_anchored[r] = {};
      pend_children[r] = {id};
    }
  }

  // Root (core 0): anchors isolated vertices; adopts every component.
  ClNodeId root_id = static_cast<ClNodeId>(raw.nodes.size());
  raw.nodes.emplace_back();
  raw.nodes[root_id].core = 0;
  raw.root = root_id;
  if (kmax >= 1 || !by_core.empty()) {
    for (VertexId v = 0; v < n; ++v) {
      if (core[v] == 0) {
        raw.nodes[root_id].vertices.push_back(v);
      }
    }
  }
  std::vector<ClNodeId> top_nodes;
  for (VertexId v = 0; v < n; ++v) {
    if (core[v] >= 1 && dsu.Find(v) == v) {
      // v is a component representative; its pending child is the subtree.
      for (ClNodeId child : pend_children[v]) top_nodes.push_back(child);
    }
  }
  std::sort(top_nodes.begin(), top_nodes.end());
  top_nodes.erase(std::unique(top_nodes.begin(), top_nodes.end()),
                  top_nodes.end());
  for (ClNodeId child : top_nodes) {
    raw.nodes[child].parent = root_id;
    raw.nodes[root_id].children.push_back(child);
  }
  return raw;
}

}  // namespace

std::span<const VertexId> ClTreeNode::Postings(KeywordId kw) const {
  auto it = std::lower_bound(inv_keywords.begin(), inv_keywords.end(), kw);
  if (it == inv_keywords.end() || *it != kw) return {};
  return inv_postings[static_cast<std::size_t>(it - inv_keywords.begin())];
}

ClTree ClTree::Build(const AttributedGraph& g, ClTreeBuildMethod method,
                     ThreadPool*, PostingFormat) {
  return Build(g, CoreDecomposition(g.graph()), method);
}

ClTree ClTree::Build(const AttributedGraph& g,
                     std::span<const std::uint32_t> core_numbers,
                     ClTreeBuildMethod method) {
  ClTree tree;
  if (g.num_vertices() == 0) return tree;
  RawTree raw = method == ClTreeBuildMethod::kBasic
                    ? BuildBasicTree(g.graph(), core_numbers)
                    : BuildAdvancedTree(g.graph(), core_numbers);
  tree.Finalize(g, std::move(raw.nodes), raw.root);
  return tree;
}

void ClTree::Finalize(const AttributedGraph& g,
                      std::vector<ClTreeRawNode> raw_nodes,
                      ClNodeId raw_root) {
  const std::size_t num_raw = raw_nodes.size();
  auto arenas = std::make_shared<Arenas>();

  // Pass 1 (post-order): minimum vertex in each subtree, for canonical
  // child ordering; and subtree vertex counts.
  std::vector<VertexId> min_vertex(num_raw, kInvalidVertex);
  std::vector<std::size_t> counts(num_raw, 0);
  {
    // Iterative post-order: (node, child cursor) stack.
    std::vector<std::pair<ClNodeId, std::size_t>> stack{{raw_root, 0}};
    while (!stack.empty()) {
      auto& [id, cursor] = stack.back();
      if (cursor < raw_nodes[id].children.size()) {
        ClNodeId child = raw_nodes[id].children[cursor++];
        stack.emplace_back(child, 0);
        continue;
      }
      VertexId mv = raw_nodes[id].vertices.empty()
                        ? kInvalidVertex
                        : raw_nodes[id].vertices.front();
      std::size_t cnt = raw_nodes[id].vertices.size();
      for (ClNodeId child : raw_nodes[id].children) {
        mv = std::min(mv, min_vertex[child]);
        cnt += counts[child];
      }
      min_vertex[id] = mv;
      counts[id] = cnt;
      stack.pop_back();
    }
  }
  for (auto& node : raw_nodes) {
    std::sort(node.children.begin(), node.children.end(),
              [&min_vertex](ClNodeId a, ClNodeId b) {
                return min_vertex[a] < min_vertex[b];
              });
  }

  // Pass 2 (pre-order): assign canonical ids.
  std::vector<ClNodeId> new_id(num_raw, kInvalidClNode);
  std::vector<ClNodeId> order;  // raw ids in preorder
  order.reserve(num_raw);
  {
    std::vector<ClNodeId> stack{raw_root};
    while (!stack.empty()) {
      ClNodeId id = stack.back();
      stack.pop_back();
      new_id[id] = static_cast<ClNodeId>(order.size());
      order.push_back(id);
      const auto& children = raw_nodes[id].children;
      for (auto it = children.rbegin(); it != children.rend(); ++it) {
        stack.push_back(*it);
      }
    }
  }

  // Flatten child lists and anchored vertices into preorder arenas; the
  // node directory then only holds (begin, count) views into them — the
  // representation the snapshot format persists directly.
  std::vector<std::uint64_t> child_begin(num_raw + 1, 0);
  std::vector<std::uint64_t> anchor_begin(num_raw + 1, 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const ClTreeRawNode& src = raw_nodes[order[pos]];
    child_begin[pos + 1] = child_begin[pos] + src.children.size();
    anchor_begin[pos + 1] = anchor_begin[pos] + src.vertices.size();
  }
  {
    std::vector<ClNodeId> child_arena(child_begin[num_raw]);
    std::vector<VertexId> anchor_arena(anchor_begin[num_raw]);
    for (std::size_t pos = 0; pos < order.size(); ++pos) {
      const ClTreeRawNode& src = raw_nodes[order[pos]];
      std::uint64_t c = child_begin[pos];
      for (ClNodeId child : src.children) child_arena[c++] = new_id[child];
      std::copy(src.vertices.begin(), src.vertices.end(),
                anchor_arena.begin() +
                    static_cast<std::ptrdiff_t>(anchor_begin[pos]));
    }
    child_arena_ = arenas->child_arena = std::move(child_arena);
    anchor_arena_ = arenas->anchor_arena = std::move(anchor_arena);
  }

  nodes_.clear();
  nodes_.resize(num_raw);
  std::vector<std::uint64_t> subtree_sizes(num_raw, 0);
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    ClNodeId raw_id = order[pos];
    ClTreeNode& dst = nodes_[pos];
    dst.core = raw_nodes[raw_id].core;
    dst.parent = raw_nodes[raw_id].parent == kInvalidClNode
                     ? kInvalidClNode
                     : new_id[raw_nodes[raw_id].parent];
    dst.children = {child_arena_.data() + child_begin[pos],
                    child_begin[pos + 1] - child_begin[pos]};
    dst.vertices = {anchor_arena_.data() + anchor_begin[pos],
                    anchor_begin[pos + 1] - anchor_begin[pos]};
    subtree_sizes[pos] = counts[raw_id];
  }
  subtree_sizes_ = arenas->subtree_sizes = std::move(subtree_sizes);

  // subtree_end: preorder subtree of node i is [i, i + node count); compute
  // node counts bottom-up over the canonical ids (children have larger ids).
  {
    std::vector<ClNodeId> node_counts(num_raw, 1);
    for (std::size_t i = num_raw; i-- > 1;) {
      node_counts[nodes_[i].parent] += node_counts[i];
    }
    for (std::size_t i = 0; i < num_raw; ++i) {
      nodes_[i].subtree_end = static_cast<ClNodeId>(i + node_counts[i]);
    }
  }

  std::vector<ClNodeId> vertex_node(g.num_vertices(), kInvalidClNode);
  for (std::size_t i = 0; i < num_raw; ++i) {
    for (VertexId v : nodes_[i].vertices) {
      vertex_node[v] = static_cast<ClNodeId>(i);
    }
  }

  // The inverted lists, keyword-major. A counting sort groups the graph's
  // (vertex, keyword) pairs by keyword; scanning vertices in id order
  // leaves every keyword's vertex list ascending. Walking the keywords in
  // ascending order then reaches each node's keywords, and each posting
  // list, already sorted: no per-node sort. A per-node "last keyword"
  // marker tells a node's first posting of a keyword from the rest.
  const std::size_t num_kws = g.vocabulary().size();
  std::vector<std::size_t> kw_start(num_kws + 1, 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (KeywordId kw : g.Keywords(v)) ++kw_start[kw + 1];
  }
  for (std::size_t kw = 0; kw < num_kws; ++kw) {
    kw_start[kw + 1] += kw_start[kw];
  }
  std::vector<VertexId> by_kw(kw_start[num_kws]);
  {
    std::vector<std::size_t> cursor(kw_start.begin(), kw_start.end() - 1);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (KeywordId kw : g.Keywords(v)) by_kw[cursor[kw]++] = v;
    }
  }
  std::vector<KeywordId> last_kw(num_raw);
  auto for_each_posting = [&](auto&& fn) {
    std::fill(last_kw.begin(), last_kw.end(), kInvalidKeyword);
    for (KeywordId kw = 0; kw < num_kws; ++kw) {
      for (std::size_t p = kw_start[kw]; p < kw_start[kw + 1]; ++p) {
        const ClNodeId node = vertex_node[by_kw[p]];
        fn(node, kw, by_kw[p], last_kw[node] != kw);
        last_kw[node] = kw;
      }
    }
  };

  // Counting walk: per-node distinct keywords and postings, prefix-summed
  // into arena starts so the arenas below are sized exactly. Postings of a
  // node are contiguous and nodes follow preorder, so node i's final offset
  // sentinel is node i+1's first offset — one shared offsets array of
  // total_kws + 1 entries.
  std::vector<std::size_t> kw_begin(num_raw + 1, 0);
  std::vector<std::size_t> post_begin(num_raw + 1, 0);
  for_each_posting([&](ClNodeId node, KeywordId, VertexId, bool first) {
    if (first) ++kw_begin[node + 1];
    ++post_begin[node + 1];
  });
  for (std::size_t i = 0; i < num_raw; ++i) {
    kw_begin[i + 1] += kw_begin[i];
    post_begin[i + 1] += post_begin[i];
  }
  const std::size_t total_kws = kw_begin[num_raw];
  const std::size_t total_posts = post_begin[num_raw];

  // Fill walk through per-node cursors. The arenas are built in local
  // vectors and moved into the owner once complete (the move keeps the
  // heap buffers, so the node spans set afterwards stay valid).
  // Offset slots of keyword-less nodes collapse onto the next non-empty
  // node's first slot, which that node writes with the same value; only
  // the global sentinel has no owner.
  std::vector<KeywordId> kw_arena(total_kws);
  std::vector<std::uint32_t> offset_arena(total_kws + 1);
  std::vector<VertexId> post_arena(total_posts);
  offset_arena[total_kws] = static_cast<std::uint32_t>(total_posts);
  std::vector<std::uint64_t> blooms(num_raw, 0);
  std::vector<std::size_t> kw_cursor(kw_begin.begin(), kw_begin.end() - 1);
  std::vector<std::size_t> post_cursor(post_begin.begin(),
                                       post_begin.end() - 1);
  for_each_posting([&](ClNodeId node, KeywordId kw, VertexId v, bool first) {
    if (first) {
      kw_arena[kw_cursor[node]] = kw;
      offset_arena[kw_cursor[node]++] =
          static_cast<std::uint32_t>(post_cursor[node]);
      blooms[node] |= simd::BloomMask(kw);
    }
    post_arena[post_cursor[node]++] = v;
  });

  vertex_node_ = arenas->vertex_node = std::move(vertex_node);
  inv_keyword_arena_ = arenas->inv_keyword_arena = std::move(kw_arena);
  inv_offset_arena_ = arenas->inv_offset_arena = std::move(offset_arena);
  inv_posting_arena_ = arenas->inv_posting_arena = std::move(post_arena);
  node_kw_bloom_ = arenas->node_kw_bloom = std::move(blooms);
  owner_ = std::move(arenas);

  for (std::size_t i = 0; i < num_raw; ++i) {
    const std::size_t count = kw_begin[i + 1] - kw_begin[i];
    nodes_[i].inv_keywords = {inv_keyword_arena_.data() + kw_begin[i], count};
    nodes_[i].inv_postings = {inv_offset_arena_.data() + kw_begin[i],
                              inv_posting_arena_.data(), count};
  }
}

ClNodeId ClTree::LocateKCore(VertexId q, std::uint32_t k) const {
  ClNodeId id = NodeOf(q);
  if (id == kInvalidClNode) return kInvalidClNode;
  if (nodes_[id].core < k) return kInvalidClNode;
  while (nodes_[id].parent != kInvalidClNode &&
         nodes_[nodes_[id].parent].core >= k) {
    id = nodes_[id].parent;
  }
  return id;
}

VertexList ClTree::SubtreeVertices(ClNodeId id) const {
  const std::size_t size = subtree_sizes_[id];
  const ClNodeId end = nodes_[id].subtree_end;
  if (!IsDenseSubset(size, vertex_node_.size())) {
    VertexList out;
    out.reserve(size);
    for (ClNodeId i = id; i < end; ++i) {
      out.insert(out.end(), nodes_[i].vertices.begin(),
                 nodes_[i].vertices.end());
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  // Dense subtree: v is a member iff its anchoring node lies in the preorder
  // range [id, end), so one branchless pass over vertex_node_ writes the
  // members in ascending order. Every slot is written before the cursor
  // passes it, and the loop stops at the last member — or at the last
  // vertex, should a loaded snapshot's subtree size overstate its members.
  const std::size_t n = vertex_node_.size();
  VertexList out(size);
  const ClNodeId span = end - id;
  std::size_t pos = 0;
  for (VertexId v = 0; v < n && pos < size; ++v) {
    out[pos] = v;
    pos += static_cast<ClNodeId>(vertex_node_[v] - id) < span;
  }
  out.resize(pos);
  return out;
}

namespace {

/// Reusable per-thread buffers of the posting query path: two result
/// buffers the progressive intersection ping-pongs between (the kernels
/// forbid output aliasing an input) and the per-keyword posting lists.
/// Grown once per thread; steady-state node visits allocate nothing.
struct PostingScratch {
  std::vector<VertexId> ping;
  std::vector<VertexId> pong;
  std::vector<std::span<const VertexId>> lists;
};

PostingScratch& ThreadPostingScratch() {
  thread_local PostingScratch scratch;
  return scratch;
}

}  // namespace

void ClTree::AppendNodeMatches(ClNodeId id, std::span<const KeywordId> kws,
                               std::uint64_t query_fp, VertexList* out) const {
  const ClTreeNode& node = nodes_[id];
  if (kws.empty()) {
    out->insert(out->end(), node.vertices.begin(), node.vertices.end());
    return;
  }
  if (!simd::BloomMayContainAll(node_kw_bloom_[id], query_fp)) return;

  // Every keyword's posting list, read through the node's views; bail out
  // if any is absent.
  PostingScratch& s = ThreadPostingScratch();
  s.lists.clear();
  for (KeywordId kw : kws) {
    const std::span<const VertexId> list = node.Postings(kw);
    if (list.empty()) return;
    s.lists.push_back(list);
  }
  // Rarest-first order: starting from the shortest list keeps every
  // intermediate intersection no larger than it.
  std::sort(s.lists.begin(), s.lists.end(),
            [](std::span<const VertexId> a, std::span<const VertexId> b) {
              return a.size() < b.size();
            });

  // Progressive intersection, ping-ponging the running result between the
  // two scratch buffers (the kernels forbid output aliasing an input). The
  // result can only shrink, so the first list's size plus the kernels'
  // write slack bounds every buffer.
  std::span<const VertexId> cur = s.lists[0];
  if (s.lists.size() > 1) {
    const std::size_t cap = cur.size() + simd::kIntersectPad;
    if (s.pong.size() < cap) s.pong.resize(cap);
    if (s.ping.size() < cap) s.ping.resize(cap);
    std::vector<VertexId>* dst = &s.ping;
    for (std::size_t i = 1; i < s.lists.size() && !cur.empty(); ++i) {
      const std::size_t cnt =
          simd::IntersectSorted(cur, s.lists[i], dst->data());
      cur = {dst->data(), cnt};
      dst = dst == &s.ping ? &s.pong : &s.ping;
    }
  }
  out->insert(out->end(), cur.begin(), cur.end());
}

VertexList ClTree::CollectWithKeywords(ClNodeId id,
                                       std::span<const KeywordId> kws) const {
  if (kws.empty()) return SubtreeVertices(id);
  VertexList out;
  const std::uint64_t query_fp = simd::BloomFingerprint(kws);
  for (ClNodeId i = id; i < nodes_[id].subtree_end; ++i) {
    AppendNodeMatches(i, kws, query_fp, &out);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t ClTree::CountKeyword(ClNodeId id, KeywordId kw) const {
  const std::uint64_t mask = simd::BloomMask(kw);
  std::size_t count = 0;
  for (ClNodeId i = id; i < nodes_[id].subtree_end; ++i) {
    if ((node_kw_bloom_[i] & mask) != mask) continue;
    count += nodes_[i].Postings(kw).size();
  }
  return count;
}

std::size_t ClTree::MemoryBytes() const {
  return nodes_.capacity() * sizeof(ClTreeNode) +
         vertex_node_.size() * sizeof(ClNodeId) +
         subtree_sizes_.size() * sizeof(std::uint64_t) +
         child_arena_.size() * sizeof(ClNodeId) +
         anchor_arena_.size() * sizeof(VertexId) +
         inv_keyword_arena_.size() * sizeof(KeywordId) +
         inv_offset_arena_.size() * sizeof(std::uint32_t) +
         inv_posting_arena_.size() * sizeof(VertexId) +
         node_kw_bloom_.size() * sizeof(std::uint64_t);
}

Result<ClTree> ClTree::FromParts(const ClTreeParts& parts,
                                 std::size_t num_graph_vertices) {
  const std::size_t num_nodes = parts.records.size();
  auto bad = [](const char* what) {
    return Status::Unavailable(std::string("snapshot CL-tree rejected: ") +
                               what);
  };
  if (parts.vertex_node.size() != num_graph_vertices) {
    return bad("vertex-node map size mismatch");
  }
  if (parts.subtree_sizes.size() != num_nodes ||
      parts.node_kw_bloom.size() != num_nodes) {
    return bad("per-node array size mismatch");
  }
  ClTree tree;
  if (num_nodes == 0) {
    if (num_graph_vertices != 0) return bad("empty tree over non-empty graph");
    return tree;
  }
  if (parts.anchor_arena.size() != num_graph_vertices) {
    return bad("anchor arena size mismatch");
  }
  const std::size_t total_kws = parts.inv_keyword_arena.size();
  if (parts.inv_offset_arena.size() != total_kws + 1) {
    return bad("inverted offset arena size mismatch");
  }

  // Every record's arena slices must be in bounds and the preorder
  // invariants (parent before child, nested subtree ranges) must hold —
  // the query paths index through these without further checks.
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const ClTreeNodeRecord& r = parts.records[i];
    if (i == 0 ? r.parent != kInvalidClNode : r.parent >= i) {
      return bad("non-preorder parent link");
    }
    if (r.subtree_end <= i || r.subtree_end > num_nodes) {
      return bad("subtree range out of bounds");
    }
    if (r.children_begin > parts.child_arena.size() ||
        r.children_count > parts.child_arena.size() - r.children_begin) {
      return bad("child slice out of bounds");
    }
    if (r.anchor_begin > parts.anchor_arena.size() ||
        r.anchor_count > parts.anchor_arena.size() - r.anchor_begin) {
      return bad("anchor slice out of bounds");
    }
    if (r.inv_slot_begin > total_kws ||
        r.inv_count > total_kws - r.inv_slot_begin) {
      return bad("inverted-list slice out of bounds");
    }
    if (parts.subtree_sizes[i] > num_graph_vertices) {
      return bad("subtree size exceeds graph");
    }
  }
  for (ClNodeId child : parts.child_arena) {
    if (child >= num_nodes) return bad("child id out of range");
  }
  for (ClNodeId node : parts.vertex_node) {
    if (node >= num_nodes) return bad("vertex anchored out of range");
  }
  for (VertexId v : parts.anchor_arena) {
    if (v >= num_graph_vertices) return bad("anchored vertex out of range");
  }
  // Offsets must run from 0 up to exactly the posting arena's size, and
  // every posting slot must be a strictly ascending list of in-range
  // vertices: the intersection kernels' output bound assumes strictly
  // increasing inputs (simd.h), so a repeated or out-of-order id would let
  // them write past their buffers.
  const std::span<const VertexId> postings = parts.inv_posting_arena;
  if (parts.inv_offset_arena[0] != 0 ||
      parts.inv_offset_arena[total_kws] != postings.size()) {
    return bad("posting arena size mismatch");
  }
  for (std::size_t slot = 0; slot < total_kws; ++slot) {
    const std::uint32_t begin = parts.inv_offset_arena[slot];
    const std::uint32_t end = parts.inv_offset_arena[slot + 1];
    if (begin > end || end > postings.size()) {
      return bad("posting offsets not ascending");
    }
    const auto list = postings.subspan(begin, end - begin);
    if (std::adjacent_find(list.begin(), list.end(),
                           std::greater_equal<>()) != list.end()) {
      return bad("posting slot not strictly ascending");
    }
    if (!list.empty() && list.back() >= num_graph_vertices) {
      return bad("posting vertex out of range");
    }
  }

  tree.owner_ = parts.owner;
  tree.vertex_node_ = parts.vertex_node;
  tree.subtree_sizes_ = parts.subtree_sizes;
  tree.child_arena_ = parts.child_arena;
  tree.anchor_arena_ = parts.anchor_arena;
  tree.inv_keyword_arena_ = parts.inv_keyword_arena;
  tree.inv_offset_arena_ = parts.inv_offset_arena;
  tree.inv_posting_arena_ = parts.inv_posting_arena;
  tree.node_kw_bloom_ = parts.node_kw_bloom;

  // Materialize the node directory: the ONE load-path allocation that
  // scales with the tree (a single vector of span views into the mapped
  // arenas — one operator-new call regardless of graph size).
  tree.nodes_.resize(num_nodes);
  for (std::size_t i = 0; i < num_nodes; ++i) {
    const ClTreeNodeRecord& r = parts.records[i];
    ClTreeNode& dst = tree.nodes_[i];
    dst.core = r.core;
    dst.parent = r.parent;
    dst.subtree_end = r.subtree_end;
    dst.children = {tree.child_arena_.data() + r.children_begin,
                    r.children_count};
    dst.vertices = {tree.anchor_arena_.data() + r.anchor_begin,
                    r.anchor_count};
    dst.inv_keywords = {tree.inv_keyword_arena_.data() + r.inv_slot_begin,
                        r.inv_count};
    dst.inv_postings = {tree.inv_offset_arena_.data() + r.inv_slot_begin,
                        tree.inv_posting_arena_.data(),
                        static_cast<std::size_t>(r.inv_count)};
  }
  return tree;
}

}  // namespace cexplorer
