// Threaded tests for the shared-dataset, multi-session server: many
// sessions querying one immutable Dataset in parallel while another thread
// swaps in fresh uploads. Designed to run under -fsanitize=thread (see the
// CEXPLORER_SANITIZE CMake option); without TSan it still checks the
// functional guarantees: sessions never observe a half-swapped snapshot,
// stale caches are refused, and the CL-tree is built exactly once per
// upload no matter how many sessions share it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "acq/acq.h"
#include "common/json.h"
#include "core/kcore.h"
#include "data/dblp.h"
#include "explorer/dataset.h"
#include "explorer/explorer.h"
#include "server/http.h"
#include "server/server.h"

namespace cexplorer {
namespace {

DblpOptions SmallDblp(std::uint64_t seed) {
  DblpOptions options;
  options.num_authors = 1200;
  options.num_areas = 8;
  options.vocabulary_size = 300;
  options.seed = seed;
  return options;
}

std::string NewSession(CExplorerServer* server) {
  HttpResponse response = server->Handle("GET /v1/session/new");
  EXPECT_EQ(response.code, 200) << response.body;
  auto v = JsonValue::Parse(response.body);
  EXPECT_TRUE(v.ok());
  return v->Get("session").AsString();
}

// The acceptance scenario: two sessions created via /session/new interleave
// /search and /explore against one uploaded graph without re-uploading, and
// the CL-tree is built exactly once.
TEST(ConcurrencyTest, TwoSessionsInterleaveWithOneIndexBuild) {
  CExplorerServer server;
  const std::uint64_t builds_before = Dataset::TotalIndexBuilds();
  ASSERT_TRUE(server.UploadGraph(GenerateDblp(SmallDblp(2017)).graph).ok());
  EXPECT_EQ(Dataset::TotalIndexBuilds(), builds_before + 1);

  const std::string s1 = NewSession(&server);
  const std::string s2 = NewSession(&server);
  ASSERT_NE(s1, s2);

  const std::size_t n = server.dataset()->graph().num_vertices();
  for (VertexId v = 0; v < 6; ++v) {
    const std::string vertex = std::to_string(v % n);
    // s1 searches, s2 explores, interleaved request by request.
    HttpResponse search = server.Handle(
        "GET /v1/search?vertex=" + vertex + "&k=3&algo=Global&session=" + s1);
    EXPECT_EQ(search.code, 200) << search.body;
    HttpResponse explore = server.Handle(
        "GET /v1/explore?vertex=" + vertex + "&k=2&algo=Local&session=" + s2);
    EXPECT_EQ(explore.code, 200) << explore.body;
  }

  // Per-session history: 6 searches in s1, 6 explores in s2.
  auto h1 =
      JsonValue::Parse(server.Handle("GET /v1/history?session=" + s1).body);
  auto h2 =
      JsonValue::Parse(server.Handle("GET /v1/history?session=" + s2).body);
  ASSERT_TRUE(h1.ok() && h2.ok());
  EXPECT_EQ(h1->Get("history").Items().size(), 6u);
  EXPECT_EQ(h2->Get("history").Items().size(), 6u);

  // All of it reused the single build from the upload.
  EXPECT_EQ(Dataset::TotalIndexBuilds(), builds_before + 1);
}

// Eight sessions hammer /search, /compare and /profile in parallel while
// another thread swaps in new uploads. Every response must be a clean
// outcome (success, not-found, or stale-cache conflict) and every 200 body
// must parse; after the dust settles all sessions work against the final
// snapshot.
TEST(ConcurrencyTest, ParallelQueriesAcrossDatasetSwaps) {
  constexpr int kSessions = 8;
  constexpr int kIterations = 30;
  constexpr int kSwaps = 3;

  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(GenerateDblp(SmallDblp(1)).graph).ok());
  const std::uint64_t builds_before = Dataset::TotalIndexBuilds();
  const std::size_t n = server.dataset()->graph().num_vertices();
  // A query name from the first snapshot; after a swap it may legitimately
  // stop resolving (different synthetic names), which must surface as 404,
  // never as a crash or a community from the wrong graph.
  const std::string name = UrlEncode(server.dataset()->graph().Name(0));

  std::vector<std::string> ids;
  for (int i = 0; i < kSessions; ++i) ids.push_back(NewSession(&server));

  std::atomic<int> bad_codes{0};
  std::atomic<int> bad_bodies{0};

  auto worker = [&](int which) {
    const std::string& id = ids[static_cast<std::size_t>(which)];
    for (int it = 0; it < kIterations; ++it) {
      const std::string vertex =
          std::to_string((which * kIterations + it * 7) % n);
      std::string request;
      switch (it % 4) {
        case 0:
          request = "GET /v1/search?vertex=" + vertex +
                    "&k=3&algo=Global&session=" + id;
          break;
        case 1:
          request = "GET /v1/profile?vertex=" + vertex + "&session=" + id;
          break;
        case 2:
          request = "GET /v1/compare?name=" + name +
                    "&k=3&algos=Global,Local&session=" + id;
          break;
        default:
          request = "GET /v1/community?id=0&session=" + id;
          break;
      }
      HttpResponse response = server.Handle(request);
      if (response.code != 200 && response.code != 404 &&
          response.code != 409) {
        ++bad_codes;
      }
      if (response.code == 200 && !JsonValue::Parse(response.body).ok()) {
        ++bad_bodies;
      }
    }
  };

  std::thread swapper([&] {
    for (int i = 0; i < kSwaps; ++i) {
      // Build happens outside the exclusive lock; queries keep running
      // against the previous snapshot until the pointer swap.
      ASSERT_TRUE(
          server
              .UploadGraph(
                  GenerateDblp(SmallDblp(static_cast<std::uint64_t>(100 + i)))
                      .graph)
              .ok());
    }
  });

  std::vector<std::thread> workers;
  for (int i = 0; i < kSessions; ++i) workers.emplace_back(worker, i);
  for (auto& t : workers) t.join();
  swapper.join();

  EXPECT_EQ(bad_codes.load(), 0);
  EXPECT_EQ(bad_bodies.load(), 0);
  // Exactly one CL-tree build per swap, regardless of session count.
  EXPECT_EQ(Dataset::TotalIndexBuilds(), builds_before + kSwaps);

  // Every session converges on the final snapshot.
  const std::uint64_t final_id = server.dataset()->id();
  for (const auto& id : ids) {
    HttpResponse search =
        server.Handle("GET /v1/search?vertex=0&k=2&algo=Global&session=" + id);
    EXPECT_EQ(search.code, 200) << search.body;
  }
  auto sessions = JsonValue::Parse(server.Handle("GET /v1/sessions").body);
  ASSERT_TRUE(sessions.ok());
  for (const auto& s : sessions->Get("sessions").Items()) {
    if (s.Get("id").AsString() == "default") continue;
    EXPECT_EQ(static_cast<std::uint64_t>(s.Get("dataset_id").AsInt()),
              final_id);
  }
}

// /batch requests hammered from several threads while uploads swap the
// dataset: every response is a clean outcome, every 200 body parses, and
// each batch's entries all ran under ONE snapshot (the response's
// dataset_id is a valid published snapshot — never a mix).
TEST(ConcurrencyTest, BatchQueriesAcrossDatasetSwaps) {
  constexpr int kThreads = 4;
  constexpr int kIterations = 12;
  constexpr int kSwaps = 2;

  CExplorerServer server;
  server.ConfigureWorkers(4);
  ASSERT_TRUE(server.UploadGraph(GenerateDblp(SmallDblp(11)).graph).ok());
  const std::size_t n = server.dataset()->graph().num_vertices();
  const std::uint64_t first_id = server.dataset()->id();

  // One request: three vertex queries with mixed algorithms.
  auto batch_request = [n](int salt) {
    JsonWriter array;
    array.BeginArray();
    for (int j = 0; j < 3; ++j) {
      array.BeginObject();
      array.Key("vertex");
      array.UInt(static_cast<std::uint64_t>((salt * 37 + j * 11) %
                                            static_cast<int>(n)));
      array.Key("k");
      array.UInt(2);
      array.Key("algo");
      array.String(j % 2 == 0 ? "Global" : "Local");
      array.EndObject();
    }
    array.EndArray();
    return "POST /v1/batch\n\n" + array.TakeString();
  };

  std::atomic<int> bad{0};
  auto worker = [&](int which) {
    for (int it = 0; it < kIterations; ++it) {
      HttpResponse response =
          server.Handle(batch_request(which * kIterations + it));
      if (response.code != 200) {
        ++bad;
        continue;
      }
      auto parsed = JsonValue::Parse(response.body);
      if (!parsed.ok()) {
        ++bad;
        continue;
      }
      // One snapshot per batch, and a published one.
      const std::uint64_t dataset_id =
          static_cast<std::uint64_t>(parsed->Get("dataset_id").AsInt());
      if (dataset_id < first_id || dataset_id > first_id + kSwaps + 1) ++bad;
      if (parsed->Get("results").Items().size() != 3u) ++bad;
      for (const auto& entry : parsed->Get("results").Items()) {
        // Every entry is an object with either communities or an error.
        if (!entry.is_object()) ++bad;
      }
    }
  };

  std::thread swapper([&] {
    for (int i = 0; i < kSwaps; ++i) {
      ASSERT_TRUE(
          server
              .UploadGraph(
                  GenerateDblp(SmallDblp(static_cast<std::uint64_t>(200 + i)))
                      .graph)
              .ok());
    }
  });
  std::vector<std::thread> workers;
  for (int i = 0; i < kThreads; ++i) workers.emplace_back(worker, i);
  for (auto& t : workers) t.join();
  swapper.join();
  EXPECT_EQ(bad.load(), 0);

  // The async executor path serves the same batches.
  auto future = server.SubmitAsync(batch_request(0));
  HttpResponse async_response = future.get();
  EXPECT_EQ(async_response.code, 200) << async_response.body;
  EXPECT_TRUE(JsonValue::Parse(async_response.body).ok());
  EXPECT_EQ(server.num_workers(), 4u);

  // Malformed batches are clean 400s, and bad entries fail per-slot.
  EXPECT_EQ(server.Handle("POST /v1/batch").code, 400);
  EXPECT_EQ(server.Handle("POST /v1/batch\n\nnotjson").code, 400);
  HttpResponse mixed = server.Handle(
      "POST /v1/batch\n\n"
      "[{\"vertex\":0,\"k\":2,\"algo\":\"Global\"},{\"k\":2}]");
  ASSERT_EQ(mixed.code, 200) << mixed.body;
  auto mixed_parsed = JsonValue::Parse(mixed.body);
  ASSERT_TRUE(mixed_parsed.ok());
  ASSERT_EQ(mixed_parsed->Get("results").Items().size(), 2u);
  EXPECT_FALSE(mixed_parsed->Get("results").Items()[0].Has("error"));
  EXPECT_TRUE(mixed_parsed->Get("results").Items()[1].Has("error"));
}

// The dynamic-graph tier under race: eight query sessions hammer /search,
// /community and /stats while two mutator threads stream edge batches and
// a compactor repeatedly folds the overlay, all against one server. Every
// response must be a clean outcome — a mutation may lose the publish race
// (409, batch discarded whole), but there is never silent corruption — and
// the settled dataset's incrementally maintained core numbers must match
// the full-recompute oracle.
TEST(ConcurrencyTest, MutationsCompactionsAndQueriesRace) {
  constexpr int kSessions = 8;
  constexpr int kIterations = 25;
  constexpr int kMutators = 2;
  constexpr int kBatches = 40;

  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(GenerateDblp(SmallDblp(3)).graph).ok());
  const std::size_t n = server.dataset()->graph().num_vertices();

  std::vector<std::string> ids;
  for (int i = 0; i < kSessions; ++i) ids.push_back(NewSession(&server));

  std::atomic<int> bad{0};
  std::atomic<int> applied{0};

  auto query_worker = [&](int which) {
    const std::string& id = ids[static_cast<std::size_t>(which)];
    for (int it = 0; it < kIterations; ++it) {
      const std::string vertex =
          std::to_string((which * kIterations + it * 13) % n);
      std::string request;
      switch (it % 3) {
        case 0:
          request = "GET /v1/search?vertex=" + vertex +
                    "&k=3&algo=Global&session=" + id;
          break;
        case 1:
          request = "GET /v1/community?id=0&session=" + id;
          break;
        default:
          request = "GET /v1/stats";
          break;
      }
      HttpResponse response = server.Handle(request);
      if (response.code != 200 && response.code != 404 &&
          response.code != 409) {
        ++bad;
      }
      if (response.code == 200 && !JsonValue::Parse(response.body).ok()) {
        ++bad;
      }
    }
  };

  auto mutator_worker = [&](int which) {
    // Thread-local LCG so the two mutators stream different edges.
    std::uint64_t state =
        0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(which + 1);
    auto next = [&state] {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      return state >> 33;
    };
    for (int b = 0; b < kBatches; ++b) {
      const std::uint64_t u = next() % n;
      const std::uint64_t v = next() % n;
      if (u == v) continue;
      const std::string body = "{\"edges\": [[" + std::to_string(u) + ", " +
                               std::to_string(v) + "]]}";
      const bool remove = b % 3 == 2;
      HttpResponse response = server.Handle(
          std::string(remove ? "DELETE" : "POST") + " /v1/edges\n\n" + body);
      if (response.code == 200) {
        ++applied;
      } else if (response.code != 409) {
        ++bad;
      }
    }
  };

  std::thread compactor([&] {
    for (int i = 0; i < 10; ++i) {
      HttpResponse response = server.Handle("POST /v1/compact");
      if (response.code != 200 && response.code != 409) ++bad;
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> threads;
  for (int i = 0; i < kMutators; ++i) threads.emplace_back(mutator_worker, i);
  for (int i = 0; i < kSessions; ++i) threads.emplace_back(query_worker, i);
  for (auto& t : threads) t.join();
  compactor.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(applied.load(), 0);

  // Settled invariant: the incrementally maintained core numbers of the
  // final snapshot equal a full recompute on its graph.
  DatasetPtr final_dataset = server.dataset();
  std::vector<std::uint32_t> oracle =
      CoreDecomposition(final_dataset->graph().graph());
  auto cores = final_dataset->core_numbers();
  ASSERT_EQ(cores.size(), oracle.size());
  EXPECT_TRUE(
      std::equal(cores.begin(), cores.end(), oracle.begin(), oracle.end()));

  // A final fold succeeds and leaves an owned dataset serving queries.
  EXPECT_EQ(server.Handle("POST /v1/compact").code, 200);
  EXPECT_FALSE(server.dataset()->is_overlay());
  EXPECT_EQ(
      server.Handle("GET /v1/search?vertex=0&k=2&algo=Global").code, 200);
}

// Dataset-level sharing without the server: Explorer views are cheap and
// independent, and the shared profile store is thread-safe.
TEST(ConcurrencyTest, ExplorerViewsShareDatasetAndProfiles) {
  auto built = Dataset::Build(GenerateDblp(SmallDblp(7)).graph);
  ASSERT_TRUE(built.ok());
  DatasetPtr dataset = built.value();

  constexpr int kViews = 8;
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kViews; ++i) {
    threads.emplace_back([&dataset, &errors, i] {
      Explorer view;
      view.AttachDataset(dataset);
      Query query;
      query.vertices.push_back(static_cast<VertexId>(i));
      query.k = 2;
      if (!view.Search("Global", query).ok()) ++errors;
      // All views hit the same lazily-built profile entries.
      for (VertexId v = 0; v < 32; ++v) {
        if (!view.Profile(v).ok()) ++errors;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(errors.load(), 0);

  // Profiles are deterministic and shared: one more view sees cached data.
  Explorer view;
  view.AttachDataset(dataset);
  auto p0 = view.Profile(0);
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(p0->name, dataset->graph().Name(0));
}

// Satellite of the profile-store rework: heavy same-vertex contention on
// the shared_mutex read path. Every thread opens the same small profile set
// (maximal lock sharing on warm entries) plus a private cold range, and all
// threads must observe identical, deterministic profiles.
TEST(ConcurrencyTest, ConcurrentProfileLookupsShareReadLock) {
  auto built = Dataset::Build(GenerateDblp(SmallDblp(11)).graph);
  ASSERT_TRUE(built.ok());
  DatasetPtr dataset = built.value();

  constexpr int kThreads = 8;
  constexpr VertexId kHotProfiles = 16;
  std::vector<std::vector<std::string>> seen(kThreads);
  std::atomic<int> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&dataset, &seen, &errors, t] {
      for (int round = 0; round < 20; ++round) {
        for (VertexId v = 0; v < kHotProfiles; ++v) {
          auto profile = dataset->Profile(v);
          if (!profile.ok()) {
            ++errors;
            continue;
          }
          if (round == 0) seen[t].push_back(profile->institute);
        }
        // A per-thread cold slice exercises the generate-then-publish path
        // concurrently with the warm readers above.
        const VertexId cold =
            kHotProfiles + static_cast<VertexId>(t * 20 + round);
        if (!dataset->Profile(cold).ok()) ++errors;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
  }
}

// Satellite of the result cache: concurrent identical searches (cache hits
// and fills from many sessions) racing against dataset swaps that bump the
// graph epoch and clear the cache. Every response must be a 200 rendered
// against ONE snapshot; the epoch in the cache key makes a stale hit
// structurally impossible.
TEST(ConcurrencyTest, ResultCacheHitsDuringDatasetSwaps) {
  CExplorerServer server;
  server.service().ConfigureResultCache(128);
  ASSERT_TRUE(server.UploadGraph(GenerateDblp(SmallDblp(21)).graph).ok());

  constexpr int kSessions = 6;
  constexpr int kSwaps = 4;
  constexpr int kQueriesPerSession = 30;
  std::atomic<int> errors{0};

  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    const std::string id = NewSession(&server);
    threads.emplace_back([&server, &errors, id] {
      for (int i = 0; i < kQueriesPerSession; ++i) {
        // The same query every time: after the first fill, every session
        // should hit the shared entry (until a swap clears it).
        HttpResponse response = server.Handle(
            "GET /v1/search?vertex=1&k=2&algo=Global&session=" + id);
        if (response.code != 200) ++errors;
        HttpResponse stats = server.Handle("GET /v1/stats");
        if (stats.code != 200) ++errors;
      }
    });
  }
  threads.emplace_back([&server, &errors] {
    for (int i = 0; i < kSwaps; ++i) {
      if (!server.UploadGraph(GenerateDblp(SmallDblp(100 + i)).graph).ok()) {
        ++errors;
      }
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);

  auto stats = server.service().ResultCacheStats();
  // Every search was answered by an execution (miss) or a cache hit.
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<std::uint64_t>(kSessions) * kQueriesPerSession);
  EXPECT_GT(stats.hits, 0u);
}

// Four sessions make their first /community click on one cached search
// result at the same moment: one fills the entry's analysis memo while the
// others wait for it, and all four get the same body.
TEST(ConcurrencyTest, FirstClicksOnOneCachedEntryRace) {
  CExplorerServer server;
  const AttributedGraph graph = GenerateDblp(SmallDblp(31)).graph;
  VertexId hub = 0;
  for (VertexId v = 1; v < graph.num_vertices(); ++v) {
    if (graph.graph().Degree(v) > graph.graph().Degree(hub)) hub = v;
  }
  ASSERT_TRUE(server.UploadGraph(graph).ok());

  constexpr int kSessions = 4;
  const std::string search =
      "GET /v1/search?vertex=" + std::to_string(hub) + "&k=2&algo=Global";
  std::vector<std::string> ids;
  for (int s = 0; s < kSessions; ++s) {
    ids.push_back(NewSession(&server));
    ASSERT_EQ(server.Handle(search + "&session=" + ids.back()).code, 200);
  }
  EXPECT_EQ(server.service().ResultCacheStats().hits, kSessions - 1u);

  // A page wider than the community: the body carries no cursor, whose
  // generation would differ per session.
  std::vector<HttpResponse> clicks(kSessions);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int s = 0; s < kSessions; ++s) {
    threads.emplace_back([&, s] {
      ready.fetch_add(1);
      while (ready.load() < kSessions) std::this_thread::yield();
      clicks[s] = server.Handle("GET /v1/community?id=0&limit=100000&session=" +
                                ids[s]);
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(clicks[0].code, 200) << clicks[0].body;
  EXPECT_NE(clicks[0].body.find("\"stats\""), std::string::npos);
  for (int s = 1; s < kSessions; ++s) {
    EXPECT_EQ(clicks[s].code, 200);
    EXPECT_EQ(clicks[s].body, clicks[0].body) << "session " << s;
  }
}

// The zero-copy persistence tier under contention: 8 sessions hammer
// /v1/search and /v1/stats while another thread swaps mapped snapshot files
// in via POST /v1/snapshot/load. Every response is a clean outcome and a
// dataset pointer captured before a swap keeps serving afterwards — the
// aliased backing keeps the mapped file alive even after the file is
// unlinked and the server has moved on.
TEST(ConcurrencyTest, SnapshotLoadsRacingSearches) {
  constexpr int kSessions = 8;
  constexpr int kIterations = 25;
  constexpr int kSwaps = 6;

  const std::string dir = ::testing::TempDir();
  const std::string paths[2] = {dir + "/race_a.snap", dir + "/race_b.snap"};
  std::size_t min_n = static_cast<std::size_t>(-1);
  for (int i = 0; i < 2; ++i) {
    auto built = Dataset::Build(
        GenerateDblp(SmallDblp(static_cast<std::uint64_t>(40 + i))).graph);
    ASSERT_TRUE(built.ok());
    ASSERT_TRUE(built.value()->SaveSnapshot(paths[i]).ok());
    min_n = std::min(min_n, built.value()->graph().num_vertices());
  }

  CExplorerServer server;
  ASSERT_EQ(
      server.Handle("POST /v1/snapshot/load?path=" + paths[0]).code, 200);
  ASSERT_EQ(server.dataset()->storage().mode, "mmap");
  // Capture the first mapped dataset; it must stay valid across every swap.
  const DatasetPtr held = server.dataset();

  std::vector<std::string> ids;
  for (int i = 0; i < kSessions; ++i) ids.push_back(NewSession(&server));

  std::atomic<int> bad_codes{0};
  std::atomic<int> bad_bodies{0};
  auto worker = [&](int which) {
    const std::string& id = ids[static_cast<std::size_t>(which)];
    for (int it = 0; it < kIterations; ++it) {
      const std::string vertex =
          std::to_string((which * 131 + it * 17) % min_n);
      HttpResponse response =
          it % 5 == 4
              ? server.Handle("GET /v1/stats")
              : server.Handle("GET /v1/search?vertex=" + vertex +
                              "&k=3&algo=Global&session=" + id);
      // A swap mid-flight may surface as 404 (vertex gone) or 409 (stale
      // session cache) — anything else is a bug.
      if (response.code != 200 && response.code != 404 &&
          response.code != 409) {
        ++bad_codes;
      }
      if (response.code == 200 && !JsonValue::Parse(response.body).ok()) {
        ++bad_bodies;
      }
    }
  };

  std::thread swapper([&] {
    for (int i = 0; i < kSwaps; ++i) {
      HttpResponse response = server.Handle(
          "POST /v1/snapshot/load?path=" + paths[(i + 1) % 2]);
      EXPECT_EQ(response.code, 200) << response.body;
    }
  });

  std::vector<std::thread> workers;
  for (int i = 0; i < kSessions; ++i) workers.emplace_back(worker, i);
  for (auto& t : workers) t.join();
  swapper.join();

  EXPECT_EQ(bad_codes.load(), 0);
  EXPECT_EQ(bad_bodies.load(), 0);

  // The server has moved on and the file name is gone, but the held
  // snapshot's mapping stays readable end to end: walk every adjacency
  // page and run index queries against it.
  ASSERT_EQ(std::remove(paths[0].c_str()), 0);
  ASSERT_NE(server.dataset(), held);
  const AttributedGraph& g = held->graph();
  std::uint64_t degree_sum = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.graph().Neighbors(v)) degree_sum += u;
    ASSERT_FALSE(g.Name(v).empty());
  }
  EXPECT_GT(degree_sum, 0u);
  ASSERT_GT(held->index().num_nodes(), 0u);
  EXPECT_EQ(held->index().SubtreeSize(0), g.num_vertices());
  EXPECT_EQ(held->core_numbers().size(), g.num_vertices());
}

// Mutation publishes racing searches: a mutator thread streams edge flips
// and vertex appends (each publish building a fresh overlay and CL-tree)
// while query threads pin snapshots mid-publish. No crash, no torn body,
// and every accepted batch is counted once.
TEST(ConcurrencyTest, PublishesRacingSearches) {
  constexpr int kSessions = 4;
  constexpr int kIterations = 16;
  constexpr int kMutations = 24;

  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(GenerateDblp(SmallDblp(9)).graph).ok());
  const std::size_t n = server.dataset()->graph().num_vertices();

  std::vector<std::string> ids;
  for (int i = 0; i < kSessions; ++i) ids.push_back(NewSession(&server));

  std::atomic<int> bad_codes{0};
  std::atomic<int> bad_bodies{0};
  int accepted = 0;  // 200 answers to the mutator (its thread only)
  auto worker = [&](int which) {
    const std::string& id = ids[static_cast<std::size_t>(which)];
    for (int it = 0; it < kIterations; ++it) {
      const std::string vertex = std::to_string((which * 89 + it * 17) % n);
      const char* algo = it % 2 == 0 ? "Global" : "ACQ";
      HttpResponse response =
          server.Handle("GET /v1/search?vertex=" + vertex + "&k=3&algo=" +
                        algo + "&session=" + id);
      if (response.code != 200 && response.code != 404 &&
          response.code != 409) {
        ++bad_codes;
      }
      if (response.code == 200 && !JsonValue::Parse(response.body).ok()) {
        ++bad_bodies;
      }
    }
  };

  std::thread mutator([&] {
    for (int i = 0; i < kMutations; ++i) {
      HttpResponse response;
      if (i % 6 == 5) {
        response = server.Handle(
            "POST /v1/vertices\n\n{\"vertices\": [{\"name\": \"raced "
            "author " +
            std::to_string(i) + "\", \"keywords\": [\"db\"]}]}");
      } else {
        const std::size_t u = (static_cast<std::size_t>(i) * 7 + 1) % n;
        const std::size_t v = (static_cast<std::size_t>(i) * 13 + 3) % n;
        if (u == v) continue;
        const std::string body = "\n\n{\"edges\": [[" + std::to_string(u) +
                                 ", " + std::to_string(v) + "]]}";
        response = server.Handle(
            (i % 2 == 0 ? "POST /v1/edges" : "DELETE /v1/edges") + body);
      }
      if (response.code == 200) {
        ++accepted;
      } else {
        ++bad_codes;
      }
    }
  });

  std::vector<std::thread> workers;
  for (int i = 0; i < kSessions; ++i) workers.emplace_back(worker, i);
  for (auto& t : workers) t.join();
  mutator.join();

  EXPECT_EQ(bad_codes.load(), 0);
  EXPECT_EQ(bad_bodies.load(), 0);

  auto stats = JsonValue::Parse(server.Handle("GET /v1/stats").body);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->Get("mutations").Get("batches").AsInt(), accepted);
}

// The first searches of one community on a fresh dataset: 8 threads search
// one (CL-tree node, keyword set) from 8 query vertices at once, through
// the dataset's memo of Dec's first level. Each may peel and the first
// insert wins; every answer must equal BruteForce.
TEST(ConcurrencyTest, FirstSearchesOfOneComponentRace) {
  constexpr int kThreads = 8;
  constexpr std::uint32_t kK = 2;
  auto built = Dataset::Build(GenerateDblp(SmallDblp(37)).graph);
  ASSERT_TRUE(built.ok());
  const DatasetPtr dataset = std::move(built.value());
  const AttributedGraph& g = dataset->graph();
  const ClTree& tree = dataset->index();

  // The hub's k-core component and the hub keyword most of it carries.
  VertexId hub = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (g.graph().Degree(v) > g.graph().Degree(hub)) hub = v;
  }
  const ClNodeId node = tree.LocateKCore(hub, kK);
  ASSERT_NE(node, kInvalidClNode);
  KeywordId keyword = kInvalidKeyword;
  for (KeywordId kw : g.Keywords(hub)) {
    if (keyword == kInvalidKeyword ||
        tree.CountKeyword(node, kw) > tree.CountKeyword(node, keyword)) {
      keyword = kw;
    }
  }
  ASSERT_NE(keyword, kInvalidKeyword);
  VertexList queries;
  for (VertexId v : tree.SubtreeVertices(node)) {
    if (g.HasKeyword(v, keyword) && queries.size() < kThreads) {
      queries.push_back(v);
    }
  }
  ASSERT_EQ(queries.size(), static_cast<std::size_t>(kThreads));

  const AcqEngine oracle(&g, &tree);
  std::vector<std::vector<AttributedCommunity>> expected(kThreads);
  int keyword_communities = 0;
  for (int t = 0; t < kThreads; ++t) {
    auto answer = oracle.Search(queries[t], kK, {keyword},
                                AcqAlgorithm::kBruteForce);
    ASSERT_TRUE(answer.ok());
    expected[t] = std::move(answer->communities);
    if (expected[t].size() == 1 && !expected[t][0].shared_keywords.empty()) {
      ++keyword_communities;
    }
  }
  ASSERT_GT(keyword_communities, 1) << "the race needs a shared community";

  std::vector<Result<std::vector<Community>>> answers(
      kThreads, Status::Internal("not run"));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Explorer view;
      view.AttachDataset(dataset);
      Query query;
      query.vertices = {queries[t]};
      query.k = kK;
      query.keywords = {std::string(g.vocabulary().Word(keyword))};
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      answers[t] = view.Search("ACQ", query);
    });
  }
  for (auto& thread : threads) thread.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_TRUE(answers[t].ok()) << answers[t].status().ToString();
    ASSERT_EQ(answers[t]->size(), expected[t].size())
        << "vertex " << queries[t];
    for (std::size_t i = 0; i < expected[t].size(); ++i) {
      EXPECT_EQ((*answers[t])[i].vertices, expected[t][i].vertices);
      EXPECT_EQ((*answers[t])[i].shared_keywords,
                expected[t][i].shared_keywords);
    }
  }
  const AcqMemo::Stats memo = dataset->acq_memo().GetStats();
  EXPECT_EQ(memo.entries, 1u);
  EXPECT_EQ(memo.hits + memo.misses, static_cast<std::uint64_t>(kThreads));
}

}  // namespace
}  // namespace cexplorer
