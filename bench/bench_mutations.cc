// Measures the dynamic-graph tier end to end: sustained mutation
// throughput (each batch = validate + copy-on-write patch + incremental
// k-core repair + CL-tree build + CAS publish of a fresh overlay snapshot)
// and the impact of a live mutation stream on repeated-query latency.
//
// The acceptance bar of the tier: repeated-query p50 under a sustained
// single-edge mutation stream stays within 10% of the quiescent p50. The
// overlay preserves the sorted-span Neighbors() contract, so the SIMD
// intersection and peel kernels run unchanged against a mutated snapshot,
// and queries never wait on a mutation or a compaction fold — they keep
// their pinned snapshot.
//
//   $ ./bench_mutations
//
// Emits BENCH_JSON lines:
//   mutation_single_ms       one-edge batch end to end (publish-bound: every
//                            publish builds the CL-tree)
//   mutation_batch64_ms      64-edge batch (one tree build amortized)
//   mutation_ops_per_sec     sustained single-edge batches per second
//   mutation_query_p50_static  repeated-query p50, quiescent owned dataset
//   mutation_query_p50_live    the same queries while a mutator thread
//                              streams one-edge batches at a sustained
//                              ingest rate (~1/3 CPU duty cycle; the
//                              saturated ceiling is mutation_ops_per_sec)
//   mutation_p50_ratio       live / static (the "stays flat" gate; 1.0 =
//                            mutations are invisible to query latency)
//   mutation_compaction_ms   folding the matured overlay into owned storage

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "data/dblp.h"
#include "graph/attributed_graph.h"
#include "server/http.h"
#include "server/server.h"

namespace cexplorer {
namespace {

/// Median of a latency sample (ms). Sorts in place.
double P50(std::vector<double>* samples) {
  if (samples->empty()) return 0.0;
  std::sort(samples->begin(), samples->end());
  return (*samples)[samples->size() / 2];
}

/// Deterministic edge stream: (u, v) pairs from a fixed LCG.
struct EdgeStream {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  std::size_t n;

  explicit EdgeStream(std::size_t num_vertices) : n(num_vertices) {}

  std::pair<VertexId, VertexId> Next() {
    for (;;) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const VertexId u = static_cast<VertexId>((state >> 33) % n);
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const VertexId v = static_cast<VertexId>((state >> 33) % n);
      if (u != v) return {u, v};
    }
  }
};

std::string EdgesBody(const std::vector<std::pair<VertexId, VertexId>>& es) {
  std::string body = "{\"edges\": [";
  for (std::size_t i = 0; i < es.size(); ++i) {
    if (i) body += ", ";
    body += "[" + std::to_string(es[i].first) + ", " +
            std::to_string(es[i].second) + "]";
  }
  return body + "]}";
}

/// Applies one add batch and its mirror-image removal, returning the mean
/// time per request; the add/remove pairing keeps the graph at its original
/// edge count, so every iteration measures the same workload.
double AddRemoveRoundTripMs(CExplorerServer* server, EdgeStream* stream,
                            std::size_t batch_size, int rounds) {
  double total_ms = 0.0;
  int requests = 0;
  for (int r = 0; r < rounds; ++r) {
    std::vector<std::pair<VertexId, VertexId>> edges;
    edges.reserve(batch_size);
    for (std::size_t i = 0; i < batch_size; ++i) edges.push_back(stream->Next());
    const std::string body = EdgesBody(edges);
    for (const char* method : {"POST", "DELETE"}) {
      Timer timer;
      HttpResponse response =
          server->Handle(std::string(method) + " /v1/edges\n\n" + body);
      total_ms += timer.ElapsedMillis();
      ++requests;
      if (response.code != 200) {
        std::printf("mutation failed (%d): %s\n", response.code,
                    response.body.c_str());
        std::abort();
      }
    }
  }
  return total_ms / requests;
}

int Run() {
  DblpOptions options = bench::BenchDblpOptions();
  DblpDataset data = GenerateDblp(options);

  CExplorerServer server;
  if (!server.UploadGraph(std::move(data.graph)).ok()) {
    std::printf("upload failed\n");
    return 1;
  }
  // Every mutation bumps the graph epoch, so the result cache cannot serve
  // the live phase; switching it off keeps static vs. live comparable.
  server.service().ConfigureResultCache(0);

  DatasetPtr dataset = server.dataset();
  const std::size_t n = dataset->graph().num_vertices();
  const std::size_t m = dataset->graph().graph().num_edges();

  bench::Banner("dynamic-graph mutations",
                "repeated-query p50 under a sustained mutation stream stays "
                "within 10% of the quiescent p50");

  // --- Mutation throughput ------------------------------------------------
  EdgeStream stream(n);
  (void)AddRemoveRoundTripMs(&server, &stream, 1, 2);  // warmup
  const double single_ms = AddRemoveRoundTripMs(&server, &stream, 1, 10);
  std::printf("one-edge batch:  %8.3f ms  (%.1f batches/sec sustained)\n",
              single_ms, 1000.0 / single_ms);
  bench::EmitJsonLine("mutation_single_ms", n, m, 1, single_ms);
  bench::EmitJsonMetricLine("mutation_ops_per_sec", n, m, 1, "ops_per_sec",
                            1000.0 / single_ms);

  const double batch64_ms = AddRemoveRoundTripMs(&server, &stream, 64, 5);
  std::printf("64-edge batch:   %8.3f ms  (%.3f ms/edge amortized)\n",
              batch64_ms, batch64_ms / 64.0);
  bench::EmitJsonLine("mutation_batch64_ms", n, m, 1, batch64_ms);

  // --- Query p50, quiescent vs. under a live mutation stream --------------
  constexpr int kQuerySamples = 240;
  const VertexId anchor =
      bench::PickQueryAuthor(dataset->graph(), dataset->core_numbers());
  std::vector<std::string> queries;
  for (int i = 0; i < 4; ++i) {
    const VertexId v =
        (anchor + static_cast<VertexId>(i * 17)) % static_cast<VertexId>(n);
    queries.push_back("GET /v1/search?vertex=" + std::to_string(v) +
                      "&k=4&algo=Global");
  }

  auto sample_p50 = [&]() {
    std::vector<double> latencies;
    latencies.reserve(kQuerySamples);
    for (int i = 0; i < kQuerySamples; ++i) {
      const std::string& request =
          queries[static_cast<std::size_t>(i) % queries.size()];
      Timer timer;
      HttpResponse response = server.Handle(request);
      latencies.push_back(timer.ElapsedMillis());
      if (response.code != 200) {
        std::printf("query failed (%d): %s\n", response.code,
                    response.body.c_str());
        std::abort();
      }
    }
    return P50(&latencies);
  };

  // Quiescent baseline on owned storage.
  (void)server.Handle("POST /v1/compact");
  (void)sample_p50();  // warmup
  const double p50_static = sample_p50();

  // The same queries while a mutator thread streams one-edge batches at a
  // sustained (non-saturating) ingest rate: two requests, then an idle gap
  // of 4x the single-batch cost (~1/3 CPU duty cycle). A spin-looped
  // stream measures CPU oversubscription, not the tier — the saturated
  // ceiling is already reported as mutation_ops_per_sec; this phase
  // checks that queries never *wait* on a mutation (pinned snapshots, no
  // shared locks on the read path).
  const auto idle_gap = std::chrono::milliseconds(
      static_cast<long>(4.0 * single_ms) + 1);
  std::atomic<bool> stop{false};
  std::atomic<int> streamed{0};
  std::thread mutator([&] {
    EdgeStream live(n);
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<std::pair<VertexId, VertexId>> one = {live.Next()};
      const std::string body = EdgesBody(one);
      (void)server.Handle("POST /v1/edges\n\n" + body);
      (void)server.Handle("DELETE /v1/edges\n\n" + body);
      streamed.fetch_add(2, std::memory_order_relaxed);
      std::this_thread::sleep_for(idle_gap);
    }
  });
  const double p50_live = sample_p50();
  stop.store(true);
  mutator.join();

  const double ratio = p50_static > 0 ? p50_live / p50_static : 0.0;
  std::printf("\nrepeated-query p50 (%d samples x %zu queries):\n",
              kQuerySamples, queries.size());
  std::printf("  quiescent:        %8.3f ms\n", p50_static);
  std::printf("  under mutations:  %8.3f ms  (%d batches streamed)\n",
              p50_live, streamed.load());
  std::printf("  live/static: %.2fx %s\n", ratio,
              ratio <= 1.10 ? "(PASS: within 10%)" : "(FAIL: > 10%)");
  bench::EmitJsonMetricLine("mutation_query_p50_static", n, m, 1, "p50_ms",
                            p50_static);
  bench::EmitJsonMetricLine("mutation_query_p50_live", n, m, 1, "p50_ms",
                            p50_live);
  bench::EmitJsonMetricLine("mutation_p50_ratio", n, m, 1, "ratio", ratio);

  // --- Compaction fold ----------------------------------------------------
  std::vector<std::pair<VertexId, VertexId>> grow;
  for (int i = 0; i < 256; ++i) grow.push_back(stream.Next());
  (void)server.Handle("POST /v1/edges\n\n" + EdgesBody(grow));
  Timer timer;
  HttpResponse folded = server.Handle("POST /v1/compact");
  const double compaction_ms = timer.ElapsedMillis();
  if (folded.code != 200) {
    std::printf("compaction failed: %s\n", folded.body.c_str());
    return 1;
  }
  std::printf("compaction fold (256-edge overlay): %.3f ms\n", compaction_ms);
  bench::EmitJsonLine("mutation_compaction_ms", n, m, 1, compaction_ms);
  return 0;
}

}  // namespace
}  // namespace cexplorer

int main() { return cexplorer::Run(); }
