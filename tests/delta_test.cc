// Tests for the dynamic-graph tier (src/delta): incremental k-core repair
// against the full-recompute oracle, copy-on-write overlay equivalence
// against a from-scratch rebuild (topology, attributes, core numbers, and
// byte-identical /v1/search bodies), compaction semantics, and the mutation
// surface of QueryService.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/query_service.h"
#include "api/types.h"
#include "cltree/cltree.h"
#include "common/rng.h"
#include "common/simd/simd.h"
#include "core/kcore.h"
#include "delta/core_maintenance.h"
#include "delta/delta.h"
#include "explorer/dataset.h"
#include "explorer/explorer.h"
#include "graph/attributed_graph.h"
#include "graph/graph.h"

namespace cexplorer {
namespace {

// --------------------------------------------------------------------------
// Incremental core maintenance vs. the peel oracle
// --------------------------------------------------------------------------

/// Mutable adjacency-list graph for driving the repair kernels directly.
struct AdjGraph {
  std::vector<std::vector<VertexId>> adj;

  explicit AdjGraph(std::size_t n) : adj(n) {}

  bool Has(VertexId u, VertexId v) const {
    return std::binary_search(adj[u].begin(), adj[u].end(), v);
  }
  void Add(VertexId u, VertexId v) {
    adj[u].insert(std::lower_bound(adj[u].begin(), adj[u].end(), v), v);
    adj[v].insert(std::lower_bound(adj[v].begin(), adj[v].end(), u), u);
  }
  void Remove(VertexId u, VertexId v) {
    adj[u].erase(std::lower_bound(adj[u].begin(), adj[u].end(), v));
    adj[v].erase(std::lower_bound(adj[v].begin(), adj[v].end(), u));
  }
  Graph ToGraph() const {
    GraphBuilder b;
    b.EnsureVertices(adj.size());
    for (VertexId u = 0; u < adj.size(); ++u) {
      for (VertexId v : adj[u]) {
        if (v > u) b.AddEdge(u, v);
      }
    }
    return b.Build();
  }
  auto Callable() const {
    return [this](VertexId v) {
      return std::span<const VertexId>(adj[v]);
    };
  }
};

TEST(CoreMaintenanceTest, InsertFuzzMatchesOracle) {
  constexpr std::size_t kN = 60;
  AdjGraph g(kN);
  std::vector<std::uint32_t> core(kN, 0);
  Rng rng(7);
  for (int step = 0; step < 300; ++step) {
    VertexId u = rng.UniformU32(kN);
    VertexId v = rng.UniformU32(kN);
    if (u == v || g.Has(u, v)) continue;
    g.Add(u, v);
    delta::RepairCoresAfterInsert(g.Callable(), &core, u, v, nullptr);
    ASSERT_EQ(core, CoreDecomposition(g.ToGraph())) << "after insert " << step;
  }
}

TEST(CoreMaintenanceTest, RemoveFuzzMatchesOracle) {
  constexpr std::size_t kN = 60;
  AdjGraph g(kN);
  Rng rng(11);
  for (int i = 0; i < 360; ++i) {
    VertexId u = rng.UniformU32(kN);
    VertexId v = rng.UniformU32(kN);
    if (u != v && !g.Has(u, v)) g.Add(u, v);
  }
  std::vector<std::uint32_t> core = CoreDecomposition(g.ToGraph());
  int removed = 0;
  while (removed < 250) {
    VertexId u = rng.UniformU32(kN);
    if (g.adj[u].empty()) continue;
    VertexId v = g.adj[u][rng.UniformU32(
        static_cast<std::uint32_t>(g.adj[u].size()))];
    g.Remove(u, v);
    delta::RepairCoresAfterRemove(g.Callable(), &core, u, v, nullptr);
    ASSERT_EQ(core, CoreDecomposition(g.ToGraph()))
        << "after remove " << removed;
    ++removed;
  }
}

TEST(CoreMaintenanceTest, MixedFuzzMatchesOracle) {
  constexpr std::size_t kN = 48;
  AdjGraph g(kN);
  std::vector<std::uint32_t> core(kN, 0);
  Rng rng(2017);
  delta::CoreRepairStats stats;
  for (int step = 0; step < 500; ++step) {
    VertexId u = rng.UniformU32(kN);
    VertexId v = rng.UniformU32(kN);
    if (u == v) continue;
    if (g.Has(u, v)) {
      g.Remove(u, v);
      delta::RepairCoresAfterRemove(g.Callable(), &core, u, v, &stats);
    } else {
      g.Add(u, v);
      delta::RepairCoresAfterInsert(g.Callable(), &core, u, v, &stats);
    }
    ASSERT_EQ(core, CoreDecomposition(g.ToGraph())) << "after step " << step;
  }
  EXPECT_GT(stats.visited, 0u);
  EXPECT_GT(stats.changed, 0u);
}

// --------------------------------------------------------------------------
// Fixtures: a small attributed graph plus its mirror the test mutates
// --------------------------------------------------------------------------

const char* const kPool[] = {"db",  "ml",    "graph", "query",
                             "sys", "cloud", "web",   "viz"};
constexpr std::size_t kPoolSize = sizeof(kPool) / sizeof(kPool[0]);

std::vector<std::string> PoolKeywords(Rng* rng) {
  std::vector<std::string> out;
  std::uint32_t count = 1 + rng->UniformU32(3);
  for (std::uint32_t i = 0; i < count; ++i) {
    out.push_back(kPool[rng->UniformU32(kPoolSize)]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Plain-data mirror of the mutated graph, rebuildable from scratch.
struct Mirror {
  std::vector<std::string> names;
  std::vector<std::vector<std::string>> keywords;
  std::set<std::pair<VertexId, VertexId>> edges;  // u < v

  bool Has(VertexId u, VertexId v) const {
    return edges.count({std::min(u, v), std::max(u, v)}) > 0;
  }
  void Add(VertexId u, VertexId v) {
    edges.insert({std::min(u, v), std::max(u, v)});
  }
  void Remove(VertexId u, VertexId v) {
    edges.erase({std::min(u, v), std::max(u, v)});
  }
  AttributedGraph Rebuild() const {
    AttributedGraphBuilder b;
    for (std::size_t i = 0; i < names.size(); ++i) {
      b.AddVertex(names[i], keywords[i]);
    }
    for (const auto& e : edges) {
      EXPECT_TRUE(b.AddEdge(e.first, e.second).ok());
    }
    return std::move(b).Build();
  }
};

Mirror RandomMirror(std::size_t n, std::size_t m, std::uint64_t seed) {
  Mirror mirror;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    mirror.names.push_back("author " + std::to_string(i));
    mirror.keywords.push_back(PoolKeywords(&rng));
  }
  while (mirror.edges.size() < m) {
    VertexId u = rng.UniformU32(static_cast<std::uint32_t>(n));
    VertexId v = rng.UniformU32(static_cast<std::uint32_t>(n));
    if (u != v) mirror.Add(u, v);
  }
  return mirror;
}

std::string EdgesBody(const std::vector<std::pair<VertexId, VertexId>>& es) {
  std::string body = "{\"edges\": [";
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (i) body += ", ";
    body += "[" + std::to_string(es[i].first) + ", " +
            std::to_string(es[i].second) + "]";
  }
  return body + "]}";
}

api::ApiResult<std::string> Mutate(api::QueryService* service,
                                   const std::string& body, bool remove) {
  api::MutationRequest request;
  request.body = body;
  return remove ? service->RemoveEdges(request) : service->AddEdges(request);
}

/// Asserts the served dataset is indistinguishable from a from-scratch
/// rebuild of the mirror: topology, attributes, and core numbers.
void ExpectMatchesMirror(const Dataset& dataset, const Mirror& mirror) {
  AttributedGraph rebuilt = mirror.Rebuild();
  const AttributedGraph& live = dataset.graph();
  ASSERT_EQ(live.num_vertices(), rebuilt.num_vertices());
  ASSERT_EQ(live.graph().num_edges(), rebuilt.graph().num_edges());
  for (VertexId v = 0; v < rebuilt.num_vertices(); ++v) {
    auto ln = live.graph().Neighbors(v);
    auto rn = rebuilt.graph().Neighbors(v);
    ASSERT_TRUE(std::equal(ln.begin(), ln.end(), rn.begin(), rn.end()))
        << "neighbors of " << v;
    EXPECT_EQ(live.Name(v), rebuilt.Name(v)) << "name of " << v;
    EXPECT_EQ(live.KeywordStrings(v), rebuilt.KeywordStrings(v))
        << "keywords of " << v;
  }
  std::vector<std::uint32_t> oracle = CoreDecomposition(rebuilt.graph());
  auto cores = dataset.core_numbers();
  ASSERT_TRUE(std::equal(cores.begin(), cores.end(), oracle.begin(),
                         oracle.end()))
      << "core numbers diverge from the full-recompute oracle";
}

// --------------------------------------------------------------------------
// Overlay equivalence: mutate through the service, compare to rebuilds
// --------------------------------------------------------------------------

/// Asserts the served CL-tree is structurally identical to `fresh`, the
/// tree of a from-scratch upload of the same graph: node directory, vertex
/// map, subtree sizes, blooms, and every per-node, per-keyword posting list.
/// `fresh` comes from its own core decomposition, so a core-maintenance
/// error that the served tree inherited shows up here too.
void ExpectSameTree(const Dataset& dataset, const ClTree& fresh) {
  const ClTree& live = dataset.index();
  ASSERT_EQ(live.num_nodes(), fresh.num_nodes());
  for (ClNodeId id = 0; id < fresh.num_nodes(); ++id) {
    const ClTreeNode& a = live.node(id);
    const ClTreeNode& b = fresh.node(id);
    ASSERT_EQ(a.core, b.core) << "node " << id;
    ASSERT_EQ(a.parent, b.parent) << "node " << id;
    ASSERT_EQ(a.subtree_end, b.subtree_end) << "node " << id;
    ASSERT_TRUE(std::equal(a.children.begin(), a.children.end(),
                           b.children.begin(), b.children.end()))
        << "children of node " << id;
    ASSERT_TRUE(std::equal(a.vertices.begin(), a.vertices.end(),
                           b.vertices.begin(), b.vertices.end()))
        << "anchored vertices of node " << id;
    ASSERT_EQ(live.SubtreeSize(id), fresh.SubtreeSize(id)) << "node " << id;
    ASSERT_EQ(live.NodeKeywordBloom(id), fresh.NodeKeywordBloom(id))
        << "bloom of node " << id;
    ASSERT_TRUE(std::equal(a.inv_keywords.begin(), a.inv_keywords.end(),
                           b.inv_keywords.begin(), b.inv_keywords.end()))
        << "inverted keywords of node " << id;
    for (KeywordId kw : b.inv_keywords) {
      const KeywordId one[] = {kw};
      const std::span<const KeywordId> kws(one);
      const std::uint64_t fp = simd::BloomFingerprint(kws);
      VertexList live_list;
      VertexList fresh_list;
      live.AppendNodeMatches(id, kws, fp, &live_list);
      fresh.AppendNodeMatches(id, kws, fp, &fresh_list);
      ASSERT_EQ(live_list, fresh_list)
          << "postings of keyword " << kw << " at node " << id;
      ASSERT_EQ(live.CountKeyword(id, kw), fresh.CountKeyword(id, kw))
          << "subtree count of keyword " << kw << " at node " << id;
    }
  }
  for (VertexId v = 0; v < dataset.graph().num_vertices(); ++v) {
    ASSERT_EQ(live.NodeOf(v), fresh.NodeOf(v)) << "vertex " << v;
    ASSERT_EQ(live.CoreOf(v), fresh.CoreOf(v)) << "vertex " << v;
  }
}

/// A /v1/vertices body appending one vertex with the given attributes.
api::MutationRequest AddVertexRequest(const std::string& name,
                                      const std::vector<std::string>& kws) {
  api::MutationRequest request;
  request.body = "{\"vertices\": [{\"name\": \"" + name + "\", \"keywords\": [";
  for (std::size_t i = 0; i < kws.size(); ++i) {
    if (i) request.body += ", ";
    request.body += "\"" + kws[i] + "\"";
  }
  request.body += "]}]}";
  return request;
}

// Mixed batches (edge flips, vertex appends with and without edges)
// through the service. After every round the served dataset must match a
// from-scratch rebuild of the mirror, its CL-tree must be structurally
// identical to the tree of a fresh upload, and /v1/search answers must be
// byte-identical to that upload's.
TEST(DeltaOverlayTest, MutateThenQueryFuzzMatchesRebuild) {
  Mirror mirror = RandomMirror(80, 200, 42);
  api::QueryService service;
  ASSERT_TRUE(service.UploadGraph(mirror.Rebuild()).ok());

  // A shadow service that is re-uploaded from scratch after every round.
  api::QueryService shadow;

  Rng rng(43);
  const char* const kAlgos[] = {"ACQ", "Global", "Local"};
  for (int batch = 0; batch < 14; ++batch) {
    if (batch % 4 == 1) {
      // A pure vertex append (keywords from the base pool, so the rebuilt
      // vocabulary interns identical ids).
      mirror.names.push_back("appended author " + std::to_string(batch));
      mirror.keywords.push_back(PoolKeywords(&rng));
      auto applied = service.AddVertices(
          AddVertexRequest(mirror.names.back(), mirror.keywords.back()));
      ASSERT_TRUE(applied.ok()) << applied.error().ToJson();
    } else {
      std::vector<std::pair<VertexId, VertexId>> add;
      std::vector<std::pair<VertexId, VertexId>> remove;
      const std::uint32_t n =
          static_cast<std::uint32_t>(mirror.names.size());
      for (int i = 0; i < 8; ++i) {
        VertexId u = rng.UniformU32(n);
        VertexId v = rng.UniformU32(n);
        if (u == v) continue;
        if (mirror.Has(u, v)) {
          mirror.Remove(u, v);
          remove.push_back({u, v});
        } else {
          mirror.Add(u, v);
          add.push_back({u, v});
        }
      }
      // Every third round also appends a vertex and links it to a peer.
      if (batch % 3 == 2) {
        mirror.names.push_back("late author " + std::to_string(batch));
        mirror.keywords.push_back(PoolKeywords(&rng));
        auto applied = service.AddVertices(
            AddVertexRequest(mirror.names.back(), mirror.keywords.back()));
        ASSERT_TRUE(applied.ok()) << applied.error().ToJson();
        VertexId fresh = static_cast<VertexId>(mirror.names.size() - 1);
        VertexId peer = rng.UniformU32(n);
        mirror.Add(fresh, peer);
        add.push_back({fresh, peer});
      }
      if (!add.empty()) {
        auto applied = Mutate(&service, EdgesBody(add), /*remove=*/false);
        ASSERT_TRUE(applied.ok()) << applied.error().ToJson();
      }
      if (!remove.empty()) {
        auto applied = Mutate(&service, EdgesBody(remove), /*remove=*/true);
        ASSERT_TRUE(applied.ok()) << applied.error().ToJson();
      }
    }

    DatasetPtr dataset = service.dataset();
    ASSERT_NE(dataset, nullptr);
    EXPECT_TRUE(dataset->is_overlay());
    ExpectMatchesMirror(*dataset, mirror);

    ASSERT_TRUE(shadow.UploadGraph(mirror.Rebuild()).ok());
    ExpectSameTree(*dataset, shadow.dataset()->index());

    // Byte-identical search bodies against the from-scratch shadow.
    for (int probe = 0; probe < 3; ++probe) {
      api::SearchRequest search;
      search.vertices = {rng.UniformU32(
          static_cast<std::uint32_t>(mirror.names.size()))};
      search.k = 1 + rng.UniformU32(4);
      search.algo = kAlgos[rng.UniformU32(3)];
      auto live = service.Search(search);
      auto expected = shadow.Search(search);
      ASSERT_EQ(live.ok(), expected.ok()) << "algo " << search.algo;
      if (live.ok()) {
        EXPECT_EQ(live.value(), expected.value())
            << "algo " << search.algo << " vertex " << search.vertices[0];
      } else {
        EXPECT_EQ(live.error().ToJson(), expected.error().ToJson());
      }
    }
  }
}

// A publish builds a new dataset, so it starts with an empty memo of Dec's
// first level: a search after an edge removal inside a memoized community
// answers like a fresh upload of the mutated graph, while a reader pinned
// to the old dataset keeps reading the old memo and the old answer.
TEST(DeltaOverlayTest, PublishLeavesNoStaleAcqMemo) {
  // A K4 on {0, 1, 2, 3} plus vertex 4 linked to 0, 1 and 2: all five
  // carry "db" and form one 3-core. Vertex 5 hangs off 3.
  Mirror mirror;
  for (int v = 0; v < 6; ++v) {
    mirror.names.push_back("author " + std::to_string(v));
    mirror.keywords.push_back(v < 5 ? std::vector<std::string>{"db", "ml"}
                                    : std::vector<std::string>{"ml"});
  }
  for (auto [u, v] : std::vector<std::pair<VertexId, VertexId>>{
           {0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {4, 0}, {4, 1},
           {4, 2}, {5, 3}}) {
    mirror.Add(u, v);
  }
  api::QueryService service;
  ASSERT_TRUE(service.UploadGraph(mirror.Rebuild()).ok());
  auto search = [](api::QueryService* on, VertexId q) {
    api::SearchRequest request;
    request.vertices = {q};
    request.k = 3;
    request.keywords = {"db"};
    return on->Search(request);
  };

  // 1. Vertex 0's search fills the memo with the five-member 3-core.
  ASSERT_TRUE(search(&service, 0).ok());
  const DatasetPtr before = service.dataset();
  EXPECT_EQ(before->acq_memo().GetStats().entries, 1u);

  // 2. Removing 2-4 (RemoveEdges serves DELETE /v1/edges) drops vertex 4
  // below degree 3.
  mirror.Remove(2, 4);
  auto removed = Mutate(&service, EdgesBody({{2, 4}}), /*remove=*/true);
  ASSERT_TRUE(removed.ok()) << removed.error().ToJson();
  EXPECT_NE(service.dataset(), before);

  // 3. Vertex 1, a member of the old community, answers like a fresh
  // upload of the mutated graph.
  api::QueryService fresh;
  ASSERT_TRUE(fresh.UploadGraph(mirror.Rebuild()).ok());
  auto live = search(&service, 1);
  auto expected = search(&fresh, 1);
  ASSERT_TRUE(live.ok() && expected.ok());
  EXPECT_EQ(live.value(), expected.value());
  Explorer current;
  current.AttachDataset(service.dataset());
  Query query;
  query.vertices = {1};
  query.k = 3;
  query.keywords = {"db"};
  auto now = current.Search("ACQ", query);
  ASSERT_TRUE(now.ok() && now->size() == 1u);
  EXPECT_EQ(now->front().vertices, (VertexList{0, 1, 2, 3}));

  // The reader pinned to the old dataset still sees the old community,
  // read from the old memo.
  Explorer pinned;
  pinned.AttachDataset(before);
  auto old = pinned.Search("ACQ", query);
  ASSERT_TRUE(old.ok() && old->size() == 1u);
  EXPECT_EQ(old->front().vertices, (VertexList{0, 1, 2, 3, 4}));
  EXPECT_GE(before->acq_memo().GetStats().hits, 1u);
}

TEST(DeltaOverlayTest, AppendedVertexIsSearchable) {
  Mirror mirror = RandomMirror(30, 60, 5);
  api::QueryService service;
  ASSERT_TRUE(service.UploadGraph(mirror.Rebuild()).ok());

  api::MutationRequest request;
  request.body =
      "{\"vertices\": [{\"name\": \"Grace Hopper\","
      " \"keywords\": [\"compilers\", \"db\"]}]}";
  auto applied = service.AddVertices(request);
  ASSERT_TRUE(applied.ok()) << applied.error().ToJson();

  const VertexId fresh = 30;
  auto linked = Mutate(&service, EdgesBody({{fresh, 0}, {fresh, 1}}),
                       /*remove=*/false);
  ASSERT_TRUE(linked.ok()) << linked.error().ToJson();

  DatasetPtr dataset = service.dataset();
  EXPECT_EQ(dataset->graph().Name(fresh), "Grace Hopper");
  EXPECT_EQ(dataset->graph().FindByName("grace hopper"), fresh);
  auto kws = dataset->graph().KeywordStrings(fresh);
  std::sort(kws.begin(), kws.end());
  EXPECT_EQ(kws, (std::vector<std::string>{"compilers", "db"}));

  api::AuthorRequest author;
  author.name = "Grace Hopper";
  auto found = service.Author(author);
  ASSERT_TRUE(found.ok()) << found.error().ToJson();
}

TEST(DeltaOverlayTest, DuplicateAndMissingEdgesAreCountedNotErrors) {
  Mirror mirror = RandomMirror(10, 0, 1);
  mirror.Add(0, 1);
  api::QueryService service;
  ASSERT_TRUE(service.UploadGraph(mirror.Rebuild()).ok());

  auto applied = Mutate(&service, EdgesBody({{0, 1}, {2, 3}}), false);
  ASSERT_TRUE(applied.ok());
  EXPECT_NE(applied.value().find("\"edges_added\":1"), std::string::npos);
  EXPECT_NE(applied.value().find("\"edges_ignored\":1"), std::string::npos);

  auto removed = Mutate(&service, EdgesBody({{2, 3}, {4, 5}}), true);
  ASSERT_TRUE(removed.ok());
  EXPECT_NE(removed.value().find("\"edges_removed\":1"), std::string::npos);
  EXPECT_NE(removed.value().find("\"edges_missing\":1"), std::string::npos);
}

TEST(DeltaOverlayTest, RejectsMalformedAndOutOfRange) {
  api::QueryService service;
  api::MutationRequest request;
  request.body = "{\"edges\": [[0, 1]]}";
  // No graph uploaded yet -> conflict.
  auto no_graph = service.AddEdges(request);
  ASSERT_FALSE(no_graph.ok());
  EXPECT_EQ(no_graph.error().code, api::ApiCode::kConflict);

  Mirror mirror = RandomMirror(5, 4, 3);
  ASSERT_TRUE(service.UploadGraph(mirror.Rebuild()).ok());

  request.body = "not json";
  EXPECT_EQ(service.AddEdges(request).error().code,
            api::ApiCode::kInvalidArgument);
  request.body = "{\"edges\": [[0]]}";
  EXPECT_EQ(service.AddEdges(request).error().code,
            api::ApiCode::kInvalidArgument);
  request.body = "{\"edges\": [[0, 0]]}";  // self loop
  EXPECT_EQ(service.AddEdges(request).error().code,
            api::ApiCode::kInvalidArgument);
  request.body = "{\"edges\": [[0, 999]]}";  // out of range
  EXPECT_EQ(service.AddEdges(request).error().code,
            api::ApiCode::kInvalidArgument);
  request.body = "{\"edges\": []}";  // empty batch
  EXPECT_EQ(service.AddEdges(request).error().code,
            api::ApiCode::kInvalidArgument);
  request.body = "";
  EXPECT_EQ(service.AddEdges(request).error().code,
            api::ApiCode::kInvalidArgument);

  // A rejected batch must leave the dataset untouched.
  ExpectMatchesMirror(*service.dataset(), mirror);
}

// --------------------------------------------------------------------------
// Compaction
// --------------------------------------------------------------------------

TEST(DeltaCompactionTest, CompactFoldsOverlayKeepingEpoch) {
  Mirror mirror = RandomMirror(40, 90, 9);
  api::QueryService service;
  ASSERT_TRUE(service.UploadGraph(mirror.Rebuild()).ok());

  mirror.Add(0, 39);
  mirror.Add(1, 38);
  auto applied = Mutate(&service, EdgesBody({{0, 39}, {1, 38}}), false);
  ASSERT_TRUE(applied.ok());
  DatasetPtr overlay = service.dataset();
  ASSERT_TRUE(overlay->is_overlay());
  EXPECT_EQ(overlay->storage().mode, "overlay");

  auto compacted = service.CompactMutations("");
  ASSERT_TRUE(compacted.ok()) << compacted.error().ToJson();
  EXPECT_NE(compacted.value().find("\"compacted\":true"), std::string::npos);

  DatasetPtr owned = service.dataset();
  ASSERT_FALSE(owned->is_overlay());
  EXPECT_EQ(owned->storage().mode, "owned");
  // Folding is a storage change, not a graph change: the epoch is kept so
  // session caches and the result cache stay warm.
  EXPECT_EQ(owned->graph_epoch(), overlay->graph_epoch());
  EXPECT_GT(owned->id(), overlay->id());
  ExpectMatchesMirror(*owned, mirror);

  // Compacting again is a no-op that serves the same dataset.
  auto again = service.CompactMutations("");
  ASSERT_TRUE(again.ok());
  EXPECT_NE(again.value().find("\"compacted\":false"), std::string::npos);
  EXPECT_EQ(service.dataset(), owned);
}

TEST(DeltaCompactionTest, MutateAfterCompactionRebasesOntoOwned) {
  Mirror mirror = RandomMirror(25, 50, 13);
  api::QueryService service;
  ASSERT_TRUE(service.UploadGraph(mirror.Rebuild()).ok());

  mirror.Add(0, 24);
  ASSERT_TRUE(Mutate(&service, EdgesBody({{0, 24}}), false).ok());
  ASSERT_TRUE(service.CompactMutations("").ok());
  mirror.Add(1, 23);
  ASSERT_TRUE(Mutate(&service, EdgesBody({{1, 23}}), false).ok());
  ExpectMatchesMirror(*service.dataset(), mirror);
}

TEST(DeltaCompactionTest, BackgroundCompactionPastThreshold) {
  // Drive the Mutator directly so the overlay threshold can be pinned.
  Mirror mirror = RandomMirror(30, 40, 21);
  auto built = Dataset::Build(mirror.Rebuild());
  ASSERT_TRUE(built.ok());

  std::mutex mu;
  DatasetPtr served = std::move(built).value();
  delta::Mutator mutator(
      [&mu, &served](const DatasetPtr& expected, DatasetPtr fresh) {
        std::lock_guard<std::mutex> lock(mu);
        if (served != expected) return false;
        served = std::move(fresh);
        return true;
      });
  mutator.set_compact_threshold(3);

  delta::MutationBatch batch;
  batch.add_edges = {{0, 29}, {1, 28}, {2, 27}, {3, 26}};
  for (const auto& e : batch.add_edges) mirror.Add(e.first, e.second);
  DatasetPtr snapshot;
  {
    std::lock_guard<std::mutex> lock(mu);
    snapshot = served;
  }
  auto applied = mutator.Apply(snapshot, batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(applied.value().dataset->is_overlay());

  // The background thread folds the overlay without any further call.
  DatasetPtr current;
  for (int i = 0; i < 500; ++i) {
    {
      std::lock_guard<std::mutex> lock(mu);
      current = served;
    }
    if (!current->is_overlay()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(current->is_overlay()) << "background compaction never ran";
  ExpectMatchesMirror(*current, mirror);

  delta::MutationStats stats = mutator.StatsFor(current);
  EXPECT_GE(stats.compactions, 1u);
  EXPECT_EQ(stats.pending_batches, 0u);
}

TEST(DeltaCompactionTest, LosingThePublishRaceDiscardsTheBatch) {
  Mirror mirror = RandomMirror(20, 30, 33);
  auto built = Dataset::Build(mirror.Rebuild());
  ASSERT_TRUE(built.ok());
  DatasetPtr served = std::move(built).value();

  std::atomic<bool> accept{false};
  delta::Mutator mutator(
      [&accept](const DatasetPtr&, DatasetPtr) { return accept.load(); });

  delta::MutationBatch batch;
  batch.add_edges = {{0, 19}};
  auto lost = mutator.Apply(served, batch);
  ASSERT_FALSE(lost.ok());
  EXPECT_EQ(lost.status().code(), StatusCode::kFailedPrecondition);

  // The working state was wiped: the next Apply rebases from the served
  // snapshot and succeeds on its own.
  accept.store(true);
  auto won = mutator.Apply(served, batch);
  ASSERT_TRUE(won.ok()) << won.status().ToString();
  EXPECT_EQ(won.value().counts.edges_added, 1u);
}

// --------------------------------------------------------------------------
// Epoch discipline: mutations can never be observed without an epoch bump
// --------------------------------------------------------------------------

TEST(DeltaOverlayTest, EveryMutationBumpsTheGraphEpoch) {
  Mirror mirror = RandomMirror(15, 25, 55);
  api::QueryService service;
  ASSERT_TRUE(service.UploadGraph(mirror.Rebuild()).ok());

  std::uint64_t last = service.dataset()->graph_epoch();
  const std::vector<std::pair<VertexId, VertexId>> batches[] = {
      {{0, 14}}, {{1, 13}}, {{2, 12}}};
  for (const auto& edges : batches) {
    bool removing = mirror.Has(edges[0].first, edges[0].second);
    ASSERT_TRUE(Mutate(&service, EdgesBody(edges), removing).ok());
    std::uint64_t epoch = service.dataset()->graph_epoch();
    EXPECT_GT(epoch, last);
    last = epoch;
  }
}

TEST(DeltaOverlayTest, MutationStatsReflectTheOverlay) {
  Mirror mirror = RandomMirror(15, 25, 77);
  api::QueryService service;

  delta::MutationStats empty = service.MutationStatsNow();
  EXPECT_FALSE(empty.active);
  EXPECT_EQ(empty.batches, 0u);

  ASSERT_TRUE(service.UploadGraph(mirror.Rebuild()).ok());
  ASSERT_TRUE(Mutate(&service, EdgesBody({{0, 14}, {1, 13}}), false).ok());

  delta::MutationStats stats = service.MutationStatsNow();
  EXPECT_TRUE(stats.active);
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.pending_batches, 1u);
  EXPECT_EQ(stats.edges_added, 2u);
  EXPECT_EQ(stats.overlay_edges, 2u);
  EXPECT_GT(stats.patched_vertices, 0u);

  ASSERT_TRUE(service.CompactMutations("").ok());
  delta::MutationStats after = service.MutationStatsNow();
  EXPECT_FALSE(after.active);
  EXPECT_EQ(after.pending_batches, 0u);
  EXPECT_EQ(after.compactions, 1u);
}

}  // namespace
}  // namespace cexplorer
