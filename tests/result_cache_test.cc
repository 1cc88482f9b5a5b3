// Tests for the snapshot-keyed result cache behind /v1/search and
// /v1/batch: cross-session hits with byte-identical bodies, epoch-bump
// invalidation after /upload, misses on any parameter delta, canonicalized
// keyword order, warm survival of compactions, capacity eviction, the
// /v1/stats counters that surface all of it, and the interning that lets
// entries with identical answers share one copy while keeping their own
// analysis memo.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/query_service.h"
#include "api/result_cache.h"
#include "api/types.h"
#include "common/json.h"
#include "data/dblp.h"
#include "explorer/explorer.h"
#include "graph/attributed_graph.h"
#include "graph/fixtures.h"
#include "server/http.h"
#include "server/server.h"

namespace cexplorer {
namespace {

class ResultCacheFixture : public ::testing::Test {
 protected:
  ResultCacheFixture() {
    EXPECT_TRUE(server_.UploadGraph(Figure5Graph()).ok());
  }

  HttpResponse Get(const std::string& request, int expected_code = 200) {
    HttpResponse response = server_.Handle(request);
    EXPECT_EQ(response.code, expected_code)
        << request << " -> " << response.body;
    return response;
  }

  std::string NewSession() {
    HttpResponse response = Get("GET /v1/session/new");
    auto v = JsonValue::Parse(response.body);
    EXPECT_TRUE(v.ok());
    return v->Get("session").AsString();
  }

  api::ResultCache::Stats Stats() {
    return server_.service().ResultCacheStats();
  }

  CExplorerServer server_;
};

TEST_F(ResultCacheFixture, HitAfterIdenticalSearchFromSecondSession) {
  const std::string a = NewSession();
  const std::string b = NewSession();
  HttpResponse first =
      Get("GET /v1/search?name=A&k=2&keywords=x,y&session=" + a);
  auto after_first = Stats();
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.entries, 1u);

  HttpResponse second =
      Get("GET /v1/search?name=A&k=2&keywords=x,y&session=" + b);
  auto after_second = Stats();
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.misses, 1u);
  EXPECT_EQ(second.body, first.body);  // byte-identical, skipped execution

  // The hitting session's browser cache was re-populated: /community works.
  EXPECT_EQ(Get("GET /v1/community?id=0&session=" + b).code, 200);
}

TEST_F(ResultCacheFixture, KeywordOrderIsCanonicalized) {
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  HttpResponse reordered = Get("GET /v1/search?name=A&k=2&keywords=y,x");
  auto stats = Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_FALSE(reordered.body.empty());
}

TEST_F(ResultCacheFixture, MissAfterUploadEpochBump) {
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  EXPECT_EQ(Stats().hits, 1u);

  // A fresh upload bumps the graph epoch: the same query must re-execute.
  ASSERT_TRUE(server_.UploadGraph(Figure5Graph()).ok());
  EXPECT_EQ(Stats().entries, 0u);  // cleared on the swap
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  auto stats = Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST_F(ResultCacheFixture, MissOnParamDelta) {
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  Get("GET /v1/search?name=A&k=3&keywords=x,y");      // k delta
  Get("GET /v1/search?name=A&k=2&keywords=x");        // keyword delta
  Get("GET /v1/search?name=A&k=2&keywords=x,y&algo=Global");  // algo delta
  Get("GET /v1/search?name=B&k=2&keywords=x");        // query delta
  auto stats = Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 5u);
  EXPECT_EQ(stats.entries, 5u);
}

TEST_F(ResultCacheFixture, CompactionKeepsCacheWarm) {
  // A compaction folds the mutation overlay into owned storage without
  // changing the graph, so it keeps the epoch: the entry cached after the
  // last mutation survives the snapshot swap.
  Get("POST /v1/edges\n\n{\"edges\": [[8, 9]]}");
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  const auto before = Stats();
  EXPECT_EQ(before.hits, 1u);
  Get("POST /v1/compact");
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  const auto after = Stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
}

TEST_F(ResultCacheFixture, CapacityEviction) {
  // One shard of capacity 2 makes the LRU order deterministic.
  server_.service().ConfigureResultCache(2, 1);
  Get("GET /v1/search?name=A&k=2&keywords=x");   // {A}
  Get("GET /v1/search?name=B&k=2&keywords=x");   // {A, B}
  Get("GET /v1/search?name=C&k=2&keywords=x");   // {B, C} — evicts A
  auto stats = Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);

  Get("GET /v1/search?name=A&k=2&keywords=x");   // miss again
  EXPECT_EQ(Stats().hits, 0u);
  Get("GET /v1/search?name=C&k=2&keywords=x");   // still resident
  EXPECT_EQ(Stats().hits, 1u);
}

TEST_F(ResultCacheFixture, ByteBudgetEvicts) {
  // A byte budget of 1 means no real result fits: every insertion is
  // immediately evicted, so the cache never serves a hit but also never
  // pins more than the budget.
  server_.service().ConfigureResultCache(64, 1, /*max_bytes=*/1);
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  auto stats = Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_LE(stats.bytes, 1u);
}

TEST_F(ResultCacheFixture, BatchSharesEntriesWithSearch) {
  HttpResponse search = Get("GET /v1/search?name=A&k=2&keywords=x,y");
  HttpResponse batch = Get(
      "POST /v1/batch\n\n[{\"name\": \"A\", \"k\": 2, \"keywords\": \"x,y\"}]");
  auto stats = Stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  auto parsed = JsonValue::Parse(batch.body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Get("results").Items()[0].Dump(),
            JsonValue::Parse(search.body)->Dump());
}

TEST_F(ResultCacheFixture, DisabledCacheExecutesEveryTime) {
  server_.service().ConfigureResultCache(0);
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  auto stats = Stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.capacity, 0u);
}

TEST_F(ResultCacheFixture, StatsEndpointSurfacesCounters) {
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  Get("GET /v1/search?name=A&k=2&keywords=x,y");
  auto v = JsonValue::Parse(Get("GET /v1/stats").body);
  ASSERT_TRUE(v.ok());
  const JsonValue& cache = v->Get("result_cache");
  EXPECT_TRUE(cache.Get("enabled").AsBool());
  EXPECT_EQ(cache.Get("hits").AsInt(), 1);
  EXPECT_EQ(cache.Get("misses").AsInt(), 1);
  EXPECT_EQ(cache.Get("lookups").AsInt(), 2);
  EXPECT_EQ(cache.Get("entries").AsInt(), 1);
  EXPECT_GT(cache.Get("capacity").AsInt(), 0);
  EXPECT_TRUE(v->Get("graph_loaded").AsBool());
  EXPECT_GT(v->Get("sessions").AsInt(), 0);
}

// --------------------------------------------------------------------------
// A mutation publish bumps the epoch and drops every entry
// --------------------------------------------------------------------------

TEST(ResultCacheMutationTest, PublishDropsEveryEntry) {
  // A 5-cycle (component A) and a disjoint triangle (component B), all of
  // core 2. Chord (0, 2) touches only component A and moves no core
  // number, yet the publish still drops both entries: both repeated
  // searches miss, and both answer as a server rebuilt with the chord.
  AttributedGraphBuilder b;
  for (int i = 0; i < 8; ++i) {
    b.AddVertex("author " + std::to_string(i), {"x"});
  }
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(b.AddEdge(i, (i + 1) % 5).ok());
  }
  ASSERT_TRUE(b.AddEdge(5, 6).ok());
  ASSERT_TRUE(b.AddEdge(6, 7).ok());
  ASSERT_TRUE(b.AddEdge(5, 7).ok());
  AttributedGraphBuilder chorded = b;
  ASSERT_TRUE(chorded.AddEdge(0, 2).ok());

  api::QueryService service;
  ASSERT_TRUE(service.UploadGraph(std::move(b).Build()).ok());

  api::SearchRequest in_triangle;
  in_triangle.vertices = {5};
  in_triangle.k = 2;
  in_triangle.algo = "Global";
  api::SearchRequest in_cycle = in_triangle;
  in_cycle.vertices = {0};

  ASSERT_TRUE(service.Search(in_triangle).ok());
  ASSERT_TRUE(service.Search(in_cycle).ok());
  EXPECT_EQ(service.ResultCacheStats().entries, 2u);

  api::MutationRequest chord;
  chord.body = "{\"edges\": [[0, 2]]}";
  ASSERT_TRUE(service.AddEdges(chord).ok());
  EXPECT_EQ(service.ResultCacheStats().entries, 0u);

  const api::ResultCache::Stats before = service.ResultCacheStats();
  auto triangle_body = service.Search(in_triangle);
  auto cycle_body = service.Search(in_cycle);
  ASSERT_TRUE(triangle_body.ok());
  ASSERT_TRUE(cycle_body.ok());
  EXPECT_EQ(service.ResultCacheStats().hits, before.hits);
  EXPECT_EQ(service.ResultCacheStats().misses, before.misses + 2);

  api::QueryService rebuilt;
  ASSERT_TRUE(rebuilt.UploadGraph(std::move(chorded).Build()).ok());
  auto rebuilt_triangle = rebuilt.Search(in_triangle);
  auto rebuilt_cycle = rebuilt.Search(in_cycle);
  ASSERT_TRUE(rebuilt_triangle.ok());
  ASSERT_TRUE(rebuilt_cycle.ok());
  EXPECT_EQ(triangle_body.value(), rebuilt_triangle.value());
  EXPECT_EQ(cycle_body.value(), rebuilt_cycle.value());
}

// --------------------------------------------------------------------------
// The /community click reads the analysis memo of the shared search result
// --------------------------------------------------------------------------

/// A click body without its continuation cursor: the cursor carries the
/// session's result generation, which differs between sessions by design.
std::string WithoutCursor(std::string body) {
  const std::string key = "\"next_cursor\":\"";
  const std::size_t at = body.find(key);
  if (at == std::string::npos) return body;
  const std::size_t end = body.find('"', at + key.size());
  body.erase(at - 1, end - at + 2);  // with the comma before it
  return body;
}

/// The highest-degree author: its 3-core component is large enough that
/// CPJ samples (more than 200,000 member pairs).
VertexId Hub(const AttributedGraph& g) {
  VertexId hub = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.graph().Degree(v) > g.graph().Degree(hub)) hub = v;
  }
  return hub;
}

std::string NewSessionOn(CExplorerServer* server) {
  auto v = JsonValue::Parse(server->Handle("GET /v1/session/new").body);
  EXPECT_TRUE(v.ok());
  return v->Get("session").AsString();
}

TEST(ClickBodyTest, FirstPageIdenticalColdWarmAndUncached) {
  DblpOptions options;
  options.num_authors = 1500;
  options.num_areas = 6;
  options.vocabulary_size = 300;
  options.seed = 5;
  const AttributedGraph graph = GenerateDblp(options).graph;
  const std::string search =
      "GET /v1/search?vertex=" + std::to_string(Hub(graph)) +
      "&k=3&algo=Global";
  const std::string click = "GET /v1/community?id=0&limit=50";

  CExplorerServer cached;
  ASSERT_TRUE(cached.UploadGraph(graph).ok());
  const std::string a = NewSessionOn(&cached);
  const std::string b = NewSessionOn(&cached);
  ASSERT_EQ(cached.Handle(search + "&session=" + a).code, 200);
  HttpResponse cold = cached.Handle(click + "&session=" + a);
  ASSERT_EQ(cold.code, 200) << cold.body;
  ASSERT_EQ(cached.Handle(search + "&session=" + b).code, 200);
  EXPECT_EQ(cached.service().ResultCacheStats().hits, 1u);
  HttpResponse warm = cached.Handle(click + "&session=" + b);
  ASSERT_EQ(warm.code, 200) << warm.body;

  CExplorerServer uncached;
  uncached.service().ConfigureResultCache(0);
  ASSERT_TRUE(uncached.UploadGraph(graph).ok());
  ASSERT_EQ(uncached.Handle(search).code, 200);
  HttpResponse off = uncached.Handle(click);
  ASSERT_EQ(off.code, 200) << off.body;

  auto v = JsonValue::Parse(cold.body);
  ASSERT_TRUE(v.ok());
  ASSERT_GT(v->Get("stats").Get("vertices").AsInt(), 633);  // CPJ samples
  ASSERT_TRUE(v->Get("page").Has("next_cursor"));
  EXPECT_EQ(WithoutCursor(warm.body), WithoutCursor(cold.body));
  EXPECT_EQ(WithoutCursor(off.body), WithoutCursor(cold.body));
}

/// A 5-cycle (component A, authors 0-4) and a 2-core component B (authors
/// 5-10: a 6-cycle with one chord) with mixed keywords.
AttributedGraphBuilder TwoComponents() {
  AttributedGraphBuilder b;
  for (int i = 0; i < 5; ++i) {
    b.AddVertex("author" + std::to_string(i), {"x"});
  }
  const std::vector<std::vector<std::string>> keywords = {
      {"x", "y"}, {"x"}, {"y", "z"}, {"x", "z"}, {"z"}, {"x", "y", "z"}};
  for (int i = 0; i < 6; ++i) {
    b.AddVertex("author" + std::to_string(5 + i), keywords[i]);
  }
  for (int i = 0; i < 5; ++i) (void)b.AddEdge(i, (i + 1) % 5);
  for (int i = 0; i < 6; ++i) (void)b.AddEdge(5 + i, 5 + (i + 1) % 6);
  (void)b.AddEdge(5, 8);
  return b;
}

TEST(ClickBodyTest, ClickAfterPublishLikeARebuiltServer) {
  const std::string search = "GET /v1/search?vertex=6&k=2&algo=Global";
  const std::string click = "GET /v1/community?id=0&limit=50";
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(TwoComponents().Build()).ok());
  ASSERT_EQ(server.Handle(search).code, 200);
  ASSERT_EQ(server.Handle(click).code, 200);  // fills the memo

  // Chord (0, 2) inside component A: the publish bumps the epoch and
  // drops the entry, so the search runs again and the click is cold.
  ASSERT_EQ(server.Handle("POST /v1/edges\n\n{\"edges\": [[0, 2]]}").code, 200);
  ASSERT_EQ(server.Handle(search).code, 200);
  EXPECT_EQ(server.service().ResultCacheStats().hits, 0u);
  HttpResponse published = server.Handle(click);
  ASSERT_EQ(published.code, 200) << published.body;

  AttributedGraphBuilder mutated = TwoComponents();
  ASSERT_TRUE(mutated.AddEdge(0, 2).ok());
  CExplorerServer rebuilt;
  ASSERT_TRUE(rebuilt.UploadGraph(mutated.Build()).ok());
  ASSERT_EQ(rebuilt.Handle(search).code, 200);
  HttpResponse fresh = rebuilt.Handle(click);
  ASSERT_EQ(fresh.code, 200) << fresh.body;
  EXPECT_EQ(published.body, fresh.body);
}

/// An answer holding one community, rendered as just its member ids.
api::SearchAnswerPtr AnswerOf(const VertexList& members) {
  auto answer = std::make_shared<api::SearchAnswer>();
  answer->communities.push_back(Community{"Global", members, {}});
  JsonWriter w;
  w.BeginArray();
  for (VertexId v : members) w.UInt(v);
  w.EndArray();
  answer->body = w.TakeString();
  return answer;
}

TEST(ClickBodyTest, AnalysisIsComputedOncePerEntry) {
  // The memo answers every call after the first, whatever explorer asks:
  // here a second explorer whose graph would analyze differently.
  Explorer first;
  ASSERT_TRUE(first.UploadGraph(TwoComponents().Build()).ok());
  const api::CachedSearch entry(AnswerOf({5, 6, 7, 8, 9, 10}));
  auto analysis = entry.Analysis(0, first);
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->stats.num_edges, 7u);

  AttributedGraphBuilder denser = TwoComponents();
  ASSERT_TRUE(denser.AddEdge(6, 9).ok());
  Explorer second;
  ASSERT_TRUE(second.UploadGraph(denser.Build()).ok());
  ASSERT_EQ(second.Analyze(entry.communities()[0])->stats.num_edges, 8u);
  auto memo = entry.Analysis(0, second);
  ASSERT_TRUE(memo.ok());
  EXPECT_EQ(memo->stats.num_edges, 7u);
  EXPECT_EQ(std::memcmp(&memo->cpj, &analysis->cpj, sizeof(double)), 0);
}

// --------------------------------------------------------------------------
// Entries with identical answers share one copy, each with its own memo
// --------------------------------------------------------------------------

TEST(InternTest, EqualAnswersShareOneObjectButNotTheMemo) {
  api::ResultCache cache;
  const VertexList members = {5, 6, 7, 8, 9, 10};
  const api::SearchAnswerPtr a = cache.Intern(AnswerOf(members));
  const api::SearchAnswerPtr b = cache.Intern(AnswerOf(members));
  EXPECT_EQ(a, b);
  EXPECT_NE(cache.Intern(AnswerOf({5, 6, 7, 8, 9})), a);

  // Two query keys, one answer: each key keeps its own entry.
  cache.Put("q5", std::make_shared<api::CachedSearch>(a));
  cache.Put("q6", std::make_shared<api::CachedSearch>(b));
  const api::CachedSearchPtr entry5 = cache.Get("q5");
  const api::CachedSearchPtr entry6 = cache.Get("q6");
  ASSERT_NE(entry5, nullptr);
  ASSERT_NE(entry6, nullptr);
  EXPECT_NE(entry5, entry6);
  EXPECT_EQ(entry5->answer, entry6->answer);
  // Both entries are charged in full, shared or not.
  EXPECT_EQ(cache.GetStats().bytes,
            2 * (a->body.size() + a->communities[0].method.size() +
                 members.size() * sizeof(VertexId)));

  // A click on one entry fills only that entry's memo: the other one still
  // analyzes with the explorer it is given (here one whose graph has an
  // extra member edge).
  Explorer first;
  ASSERT_TRUE(first.UploadGraph(TwoComponents().Build()).ok());
  AttributedGraphBuilder denser = TwoComponents();
  ASSERT_TRUE(denser.AddEdge(6, 9).ok());
  Explorer second;
  ASSERT_TRUE(second.UploadGraph(denser.Build()).ok());
  ASSERT_EQ(entry5->Analysis(0, first)->stats.num_edges, 7u);
  EXPECT_EQ(entry6->Analysis(0, second)->stats.num_edges, 8u);
  EXPECT_EQ(entry5->Analysis(0, second)->stats.num_edges, 7u);
}

TEST(InternTest, IdenticalTruncatedBodiesWithDifferentMembersAreNotShared) {
  // Two 2,001-member communities that agree on their first 2,000 members:
  // a search body lists only those, so both render the same bytes.
  VertexList head(2000);
  for (VertexId v = 0; v < 2000; ++v) head[v] = v;
  auto answer_of = [&head](VertexId last) {
    auto answer = std::make_shared<api::SearchAnswer>();
    VertexList members = head;
    members.push_back(last);
    answer->communities.push_back(Community{"ACQ", std::move(members), {}});
    answer->body = AnswerOf(head)->body;
    return answer;
  };
  api::ResultCache cache;
  const api::SearchAnswerPtr a = cache.Intern(answer_of(5000));
  const api::SearchAnswerPtr b = cache.Intern(answer_of(6000));
  ASSERT_EQ(a->body, b->body);
  EXPECT_NE(a, b);
  cache.Put("qa", std::make_shared<api::CachedSearch>(a));
  cache.Put("qb", std::make_shared<api::CachedSearch>(b));
  EXPECT_EQ(cache.Get("qa")->communities()[0].vertices.back(), 5000u);
  EXPECT_EQ(cache.Get("qb")->communities()[0].vertices.back(), 6000u);
}

TEST(InternTest, ClearAndExpiryForgetEarlierAnswers) {
  api::ResultCache cache;
  const api::SearchAnswerPtr kept = cache.Intern(AnswerOf({1, 2, 3}));
  cache.Clear();
  EXPECT_NE(cache.Intern(AnswerOf({1, 2, 3})), kept);

  // Interning holds answers weakly: once nothing else holds one, an equal
  // answer is registered afresh.
  std::weak_ptr<const api::SearchAnswer> gone = cache.Intern(AnswerOf({4}));
  EXPECT_TRUE(gone.expired());
  const api::SearchAnswerPtr fresh = cache.Intern(AnswerOf({4}));
  EXPECT_EQ(cache.Intern(AnswerOf({4})), fresh);

  // A disabled cache interns nothing.
  api::ResultCache disabled(0);
  const api::SearchAnswerPtr own = AnswerOf({1, 2, 3});
  EXPECT_EQ(disabled.Intern(own), own);
  EXPECT_NE(disabled.Intern(AnswerOf({1, 2, 3})), own);
}

// Regression: GetStats used to load the counters in an order that let a
// stats body rendered mid-traffic claim impossible totals (an eviction
// without its insertion, hits exceeding the lookups implied by them).
// Hammer the cache from several threads while rendering snapshots and
// check every snapshot is internally consistent.
TEST(ResultCacheStatsTest, SnapshotInvariantsHoldUnderConcurrentTraffic) {
  api::ResultCache cache(/*capacity=*/16, /*shards=*/2, /*max_bytes=*/1
                                                            << 16);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&cache, &stop, t] {
      for (std::uint32_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const std::string key =
            "q" + std::to_string(t) + "/" + std::to_string(i % 64);
        if (api::CachedSearchPtr hit = cache.Get(key)) {
          const VertexId member = hit->communities()[0].vertices[0];
          ASSERT_EQ(hit->body(), AnswerOf({member})->body);
          continue;
        }
        // Answers recur across threads and keys, so concurrent Interns
        // race on the same table slots.
        const api::SearchAnswerPtr answer =
            cache.Intern(AnswerOf({i % 8}));
        ASSERT_EQ(answer->communities[0].vertices, VertexList{i % 8});
        cache.Put(key, std::make_shared<api::CachedSearch>(answer));
      }
    });
  }
  for (int round = 0; round < 2000; ++round) {
    const api::ResultCache::Stats stats = cache.GetStats();
    ASSERT_EQ(stats.lookups, stats.hits + stats.misses);
    ASSERT_LE(stats.evictions, stats.insertions);
    ASSERT_LE(stats.insertions, stats.lookups);
    if (round % 500 == 499) cache.Clear();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
}

}  // namespace
}  // namespace cexplorer
