// Tests for the asynchronous job subsystem: submit / poll / cancel /
// result over the /v1/jobs routes, cooperative cancellation latency,
// deadline expiry mid-algorithm, progress monotonicity under concurrent
// polling, the synchronous-deadline wrapper on /v1/detect, and job
// lifecycle coherence across dataset swaps (run under TSan in CI).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/jobs.h"
#include "common/json.h"
#include "data/planted.h"
#include "graph/fixtures.h"
#include "server/server.h"

namespace cexplorer {
namespace {

#if defined(__SANITIZE_THREAD__)
constexpr bool kUnderTsan = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr bool kUnderTsan = true;
#else
constexpr bool kUnderTsan = false;
#endif
#else
constexpr bool kUnderTsan = false;
#endif

using Clock = std::chrono::steady_clock;

std::int64_t MillisSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                               start)
      .count();
}

/// A planted graph big enough that Girvan-Newman runs for many seconds:
/// ~5000 vertices, comfortably under the 20000-edge GN cap.
AttributedGraph BigPlanted(std::uint64_t seed = 7) {
  PlantedOptions options;
  options.num_vertices = 5000;
  options.num_communities = 25;
  options.internal_degree = 5.0;
  options.external_degree = 1.0;
  options.seed = seed;
  return GeneratePlanted(options).graph;
}

JsonValue ParseBody(const HttpResponse& response) {
  auto parsed = JsonValue::Parse(response.body);
  EXPECT_TRUE(parsed.ok()) << response.body;
  return parsed.value_or(JsonValue{});
}

/// Submits a job spec and returns its id (expects admission to succeed).
std::string Submit(CExplorerServer* server, const std::string& spec) {
  HttpResponse response = server->Handle("POST /v1/jobs\n\n" + spec);
  EXPECT_EQ(response.code, 200) << response.body;
  std::string id = ParseBody(response).Get("job").Get("id").AsString();
  EXPECT_FALSE(id.empty()) << response.body;
  return id;
}

std::string StateOf(CExplorerServer* server, const std::string& id) {
  HttpResponse response = server->Handle("GET /v1/jobs/" + id);
  EXPECT_EQ(response.code, 200) << response.body;
  return ParseBody(response).Get("job").Get("state").AsString();
}

/// Polls until the job state satisfies `done` or the timeout elapses.
bool WaitFor(CExplorerServer* server, const std::string& id,
             const std::vector<std::string>& accepted,
             std::int64_t timeout_ms = 30000) {
  const auto start = Clock::now();
  while (MillisSince(start) < timeout_ms) {
    const std::string state = StateOf(server, id);
    for (const auto& want : accepted) {
      if (state == want) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// --------------------------------------------------------------------------
// Lifecycle basics
// --------------------------------------------------------------------------

TEST(JobsTest, DetectJobRunsToCompletionAndServesResult) {
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());
  const std::string id =
      Submit(&server, R"({"algo": "Louvain", "params": {"seed": "3"}})");
  ASSERT_TRUE(WaitFor(&server, id, {"DONE"}));

  JsonValue status = ParseBody(server.Handle("GET /v1/jobs/" + id));
  EXPECT_EQ(status.Get("job").Get("kind").AsString(), "detect");
  EXPECT_DOUBLE_EQ(status.Get("job").Get("progress").AsDouble(), 1.0);
  EXPECT_GE(status.Get("result").Get("num_clusters").AsInt(), 1);

  JsonValue result = ParseBody(server.Handle("GET /v1/jobs/" + id + "/result"));
  EXPECT_EQ(result.Get("job").AsString(), id);
  EXPECT_EQ(result.Get("algorithm").AsString(), "Louvain");
  EXPECT_GE(result.Get("num_clusters").AsInt(), 1);
}

TEST(JobsTest, SearchJobServesPagedResult) {
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());
  const std::string id =
      Submit(&server,
             R"({"algo": "Global", "kind": "search", "name": "A", "k": 2})");
  ASSERT_TRUE(WaitFor(&server, id, {"DONE"}));

  JsonValue full = ParseBody(server.Handle("GET /v1/jobs/" + id + "/result"));
  const std::int64_t count = full.Get("num_communities").AsInt();
  ASSERT_GE(count, 1);
  const std::int64_t size =
      full.Get("communities").Items()[0].Get("size").AsInt();
  ASSERT_GE(size, 3);

  // Page community 0 two members at a time and reassemble the list.
  std::vector<std::int64_t> paged;
  std::string cursor;
  while (true) {
    std::string url = "GET /v1/jobs/" + id + "/result?member_of=0&limit=2";
    if (!cursor.empty()) url += "&cursor=" + cursor;
    JsonValue page = ParseBody(server.Handle(url));
    for (const auto& member :
         page.Get("community").Get("members").Items()) {
      paged.push_back(member.Get("id").AsInt());
    }
    cursor = page.Get("page").Get("next_cursor").AsString();
    if (cursor.empty()) break;
  }
  EXPECT_EQ(static_cast<std::int64_t>(paged.size()), size);

  // A cursor minted by the community endpoint family cannot page a job
  // result: different kind -> INVALID_ARGUMENT.
  HttpResponse foreign = server.Handle("GET /v1/jobs/" + id +
                                       "/result?member_of=0&limit=2&cursor=" +
                                       "g1-t0-i0-r1-o2");
  EXPECT_EQ(foreign.code, 400) << foreign.body;
}

TEST(JobsTest, ListAndUnknownAndValidation) {
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());

  EXPECT_EQ(server.Handle("GET /v1/jobs/nope").code, 404);
  EXPECT_EQ(server.Handle("DELETE /v1/jobs/nope").code, 404);
  // Submitting needs a loaded graph, a known algo, valid params, and a
  // resolvable kind.
  EXPECT_EQ(server.Handle("POST /v1/jobs\n\n{\"algo\": \"NoSuch\"}").code,
            404);
  EXPECT_EQ(
      server.Handle("POST /v1/jobs\n\n{\"algo\": \"CODICIL\"}").code,
      400);  // ambiguous kind: registered for both search and detect
  EXPECT_EQ(server
                .Handle("POST /v1/jobs\n\n{\"algo\": \"Louvain\", "
                        "\"params\": {\"bogus\": \"1\"}}")
                .code,
            400);
  EXPECT_EQ(server
                .Handle("POST /v1/jobs\n\n{\"algo\": \"GirvanNewman\", "
                        "\"params\": {\"max_edges\": \"0\"}}")
                .code,
            400);  // declared range is [1, 1e9]
  EXPECT_EQ(
      server.Handle("POST /v1/jobs\n\n{\"algo\": \"Global\"}").code,
      400);  // search job without name/vertex
  // deadline_ms is an integer in [0, 10^12]: 10^13 ms would overflow the
  // submit-time steady_clock sum, and a non-integer is not "no deadline".
  for (const char* deadline :
       {"10000000000000", "1e300", "\"5\"", "-1", "2.5"}) {
    const std::string spec =
        std::string(R"({"algo": "LabelProp", "deadline_ms": )") + deadline +
        "}";
    HttpResponse refused = server.Handle("POST /v1/jobs\n\n" + spec);
    EXPECT_EQ(refused.code, 400) << spec;
    EXPECT_NE(refused.body.find("1000000000000"), std::string::npos)
        << refused.body;
  }

  const std::string id = Submit(&server, R"({"algo": "LabelProp"})");
  ASSERT_TRUE(WaitFor(&server, id, {"DONE"}));
  JsonValue listing = ParseBody(server.Handle("GET /v1/jobs"));
  ASSERT_EQ(listing.Get("jobs").Items().size(), 1u);
  EXPECT_EQ(listing.Get("jobs").Items()[0].Get("id").AsString(), id);

  // DELETE on a finished job is a no-op: the state stays DONE.
  HttpResponse cancel = server.Handle("DELETE /v1/jobs/" + id);
  EXPECT_EQ(cancel.code, 200);
  EXPECT_EQ(ParseBody(cancel).Get("job").Get("state").AsString(), "DONE");
}

TEST(JobsTest, ResultOfUnfinishedJobConflicts) {
  CExplorerServer server;
  server.ConfigureWorkers(1);
  ASSERT_TRUE(server.UploadGraph(BigPlanted()).ok());
  const std::string id = Submit(&server, R"({"algo": "GirvanNewman"})");
  HttpResponse early = server.Handle("GET /v1/jobs/" + id + "/result");
  EXPECT_EQ(early.code, 409) << early.body;
  EXPECT_EQ(server.Handle("DELETE /v1/jobs/" + id).code, 200);
  ASSERT_TRUE(WaitFor(&server, id, {"CANCELLED"}));
  // The result of a cancelled job is its cancellation.
  HttpResponse cancelled = server.Handle("GET /v1/jobs/" + id + "/result");
  EXPECT_EQ(cancelled.code, 499) << cancelled.body;
  EXPECT_EQ(ParseBody(cancelled).Get("error").Get("code").AsString(),
            "CANCELLED");
}

// --------------------------------------------------------------------------
// Cancellation latency (acceptance criterion)
// --------------------------------------------------------------------------

TEST(JobsTest, CancelFreesGirvanNewmanWorkerFast) {
  CExplorerServer server;
  server.ConfigureWorkers(1);  // one worker: the GN job owns it
  ASSERT_TRUE(server.UploadGraph(BigPlanted()).ok());

  const std::string id = Submit(&server, R"({"algo": "GirvanNewman"})");
  ASSERT_TRUE(WaitFor(&server, id, {"RUNNING"}, 10000));
  // Let it sink into the betweenness sweep.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const auto cancel_start = Clock::now();
  EXPECT_EQ(server.Handle("DELETE /v1/jobs/" + id).code, 200);
  api::JobPtr job = server.service().jobs().Get(id);
  ASSERT_NE(job, nullptr);
  while (!api::IsTerminal(job->Read().state) &&
         MillisSince(cancel_start) < 10000) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  const std::int64_t latency_ms = MillisSince(cancel_start);
  EXPECT_EQ(job->Read().state, api::JobState::kCancelled);
  // The worker must be freed in < 100 ms (one betweenness-source BFS);
  // sanitizer builds get slack for their instrumentation overhead.
  EXPECT_LT(latency_ms, kUnderTsan ? 2000 : 100);

  // The freed worker serves new jobs immediately.
  const std::string next = Submit(&server, R"({"algo": "LabelProp"})");
  EXPECT_TRUE(WaitFor(&server, next, {"DONE"}));
}

TEST(JobsTest, CancelQueuedJobNeverRuns) {
  CExplorerServer server;
  server.ConfigureWorkers(1);
  ASSERT_TRUE(server.UploadGraph(BigPlanted()).ok());
  const std::string running = Submit(&server, R"({"algo": "GirvanNewman"})");
  const std::string queued = Submit(&server, R"({"algo": "Louvain"})");
  // The queued job dies without ever reaching a worker.
  EXPECT_EQ(server.Handle("DELETE /v1/jobs/" + queued).code, 200);
  EXPECT_EQ(StateOf(&server, queued), "CANCELLED");
  JsonValue doc = ParseBody(server.Handle("GET /v1/jobs/" + queued));
  EXPECT_EQ(doc.Get("job").Get("runtime_ms").AsInt(), 0);
  EXPECT_EQ(server.Handle("DELETE /v1/jobs/" + running).code, 200);
  ASSERT_TRUE(WaitFor(&server, running, {"CANCELLED"}));
}

// --------------------------------------------------------------------------
// Deadlines
// --------------------------------------------------------------------------

TEST(JobsTest, DeadlineExpiresMidGirvanNewman) {
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(BigPlanted()).ok());
  const std::string id =
      Submit(&server, R"({"algo": "GirvanNewman", "deadline_ms": 60})");
  ASSERT_TRUE(WaitFor(&server, id, {"FAILED"}));
  JsonValue doc = ParseBody(server.Handle("GET /v1/jobs/" + id));
  EXPECT_EQ(doc.Get("job").Get("error").Get("code").AsString(),
            "DEADLINE_EXCEEDED");
  HttpResponse result = server.Handle("GET /v1/jobs/" + id + "/result");
  EXPECT_EQ(result.code, 504) << result.body;
}

TEST(JobsTest, SyncDetectHonorsServerDeadline) {
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(BigPlanted()).ok());
  server.service().set_sync_deadline_ms(50);
  // The synchronous endpoint runs the same cooperative execution path: it
  // answers DEADLINE_EXCEEDED instead of occupying the caller for the
  // full multi-second Girvan-Newman run.
  const auto start = Clock::now();
  HttpResponse response = server.Handle("GET /v1/detect?algo=GirvanNewman");
  EXPECT_EQ(response.code, 504) << response.body;
  EXPECT_EQ(ParseBody(response).Get("error").Get("code").AsString(),
            "DEADLINE_EXCEEDED");
  EXPECT_LT(MillisSince(start), kUnderTsan ? 10000 : 2000);

  // Fast algorithms still finish within the same deadline.
  server.service().set_sync_deadline_ms(30000);
  EXPECT_EQ(server.Handle("GET /v1/detect?algo=LabelProp").code, 200);
}

// --------------------------------------------------------------------------
// Progress
// --------------------------------------------------------------------------

TEST(JobsTest, ProgressIsMonotonicUnderConcurrentPolling) {
  CExplorerServer server;
  ASSERT_TRUE(server.UploadGraph(BigPlanted(11)).ok());
  const std::string id =
      Submit(&server, R"({"algo": "GirvanNewman", "deadline_ms": 1500})");

  std::atomic<bool> failed{false};
  std::vector<std::thread> pollers;
  for (int t = 0; t < 3; ++t) {
    pollers.emplace_back([&server, &id, &failed] {
      api::JobPtr job = server.service().jobs().Get(id);
      if (job == nullptr) {
        failed = true;
        return;
      }
      double last = 0.0;
      while (!api::IsTerminal(job->Read().state)) {
        const double progress = job->Read().progress;
        if (progress + 1e-12 < last) failed = true;
        if (progress < 0.0 || progress > 1.0) failed = true;
        last = progress;
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
  }
  for (auto& poller : pollers) poller.join();
  EXPECT_FALSE(failed) << "progress regressed or left [0, 1]";
  ASSERT_TRUE(WaitFor(&server, id, {"FAILED", "DONE"}));
}

// --------------------------------------------------------------------------
// Concurrency across dataset swaps (the TSan workhorse)
// --------------------------------------------------------------------------

TEST(JobsTest, ConcurrentSubmitPollCancelAcrossDatasetSwap) {
  CExplorerServer server;
  server.ConfigureWorkers(4);
  ASSERT_TRUE(server.UploadGraph(Figure5Graph()).ok());

  constexpr int kSubmitters = 4;
  constexpr int kJobsEach = 6;
  std::atomic<bool> stop{false};
  std::vector<std::string> ids[kSubmitters];

  std::vector<std::thread> workers;
  for (int t = 0; t < kSubmitters; ++t) {
    workers.emplace_back([&server, &ids, t] {
      for (int i = 0; i < kJobsEach; ++i) {
        const char* algo = (i % 2 == 0) ? "Louvain" : "LabelProp";
        HttpResponse response = server.Handle(
            std::string("POST /v1/jobs\n\n{\"algo\": \"") + algo + "\"}");
        if (response.code != 200) continue;  // registry full is acceptable
        auto parsed = JsonValue::Parse(response.body);
        if (parsed.ok()) {
          ids[t].push_back(parsed->Get("job").Get("id").AsString());
        }
      }
    });
  }
  // One thread swaps the dataset underneath the running jobs...
  workers.emplace_back([&server] {
    for (int i = 0; i < 3; ++i) {
      PlantedOptions options;
      options.num_vertices = 400;
      options.seed = static_cast<std::uint64_t>(50 + i);
      (void)server.UploadGraph(GeneratePlanted(options).graph);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // ... while another polls the listing and cancels whatever it sees.
  workers.emplace_back([&server, &stop] {
    while (!stop.load()) {
      JsonValue listing = ParseBody(server.Handle("GET /v1/jobs"));
      for (const auto& job : listing.Get("jobs").Items()) {
        const std::string id = job.Get("id").AsString();
        if (!id.empty() && id.back() % 3 == 0) {
          (void)server.Handle("DELETE /v1/jobs/" + id);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  for (int t = 0; t < kSubmitters; ++t) workers[t].join();
  // Every submitted job reaches a terminal state; results stay pinned to
  // the snapshot they were submitted against (dataset_id never changes).
  for (int t = 0; t < kSubmitters; ++t) {
    for (const auto& id : ids[t]) {
      ASSERT_TRUE(
          WaitFor(&server, id, {"DONE", "FAILED", "CANCELLED"}, 60000))
          << id;
      JsonValue doc = ParseBody(server.Handle("GET /v1/jobs/" + id));
      EXPECT_GT(doc.Get("job").Get("dataset_id").AsInt(), 0);
      if (doc.Get("job").Get("state").AsString() == "DONE") {
        EXPECT_EQ(server.Handle("GET /v1/jobs/" + id + "/result").code, 200);
      }
    }
  }
  stop = true;
  workers[kSubmitters].join();
  workers[kSubmitters + 1].join();
}

}  // namespace
}  // namespace cexplorer
