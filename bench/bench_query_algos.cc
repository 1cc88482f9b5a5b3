// Experiment: Section 3.2 claim "Since Dec is generally faster than Inc-S
// and Inc-T, we choose Dec for the system."
//
// Reproduction: sweep the minimum degree k and the query keyword count |S|
// over a pool of well-embedded query authors, timing the three index-based
// ACQ algorithms (plus the work counters that explain the gap). Shape
// claim: Dec <= Inc-T <= Inc-S on typical queries.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>

#include "acq/acq.h"
#include "bench/bench_common.h"
#include "cltree/cltree.h"
#include "common/strings.h"
#include "common/timer.h"
#include "data/dblp.h"

namespace {

using namespace cexplorer;
using cexplorer::bench::Banner;

struct Workload {
  AttributedGraph graph;
  ClTree tree;
  std::vector<VertexId> queries;  // well-embedded authors
};

Workload* PrepareWorkload() {
  auto* w = new Workload();
  DblpDataset data = GenerateDblp(cexplorer::bench::BenchDblpOptions());
  w->graph = std::move(data.graph);
  w->tree = ClTree::Build(w->graph);
  // Query pool: authors with core >= 4 and >= 8 keywords, spread over the
  // graph.
  for (VertexId v = 0; v < w->graph.num_vertices() && w->queries.size() < 32;
       v += 97) {
    if (w->tree.CoreOf(v) >= 4 && w->graph.Keywords(v).size() >= 8) {
      w->queries.push_back(v);
    }
  }
  return w;
}

Workload& TheWorkload() {
  static Workload* w = PrepareWorkload();
  return *w;
}

KeywordList QueryKeywords(const Workload& w, VertexId q, std::size_t count) {
  auto wq = w.graph.Keywords(q);
  KeywordList S(wq.begin(),
                wq.begin() + std::min<std::size_t>(wq.size(), count));
  return S;
}

void PrintSweepTable() {
  Banner("Query algorithms: Dec vs Inc-S vs Inc-T",
         "'Dec is generally faster than Inc-S and Inc-T' (Section 3.2)");

  Workload& w = TheWorkload();
  std::printf("dataset: %s authors, %s edges; %zu query authors\n\n",
              FormatWithCommas(w.graph.num_vertices()).c_str(),
              FormatWithCommas(w.graph.graph().num_edges()).c_str(),
              w.queries.size());
  if (w.queries.empty()) {
    std::printf("no suitable query authors found\n");
    return;
  }

  AcqEngine engine(&w.graph, &w.tree);
  std::printf("%-4s %-4s %12s %12s %12s %16s\n", "k", "|S|", "Inc-S(ms)",
              "Inc-T(ms)", "Dec(ms)", "fastest");
  for (std::uint32_t k : {2u, 4u, 6u}) {
    for (std::size_t num_kws : {2u, 4u, 6u, 8u}) {
      double total_ms[3] = {0, 0, 0};
      const AcqAlgorithm algos[3] = {AcqAlgorithm::kIncS, AcqAlgorithm::kIncT,
                                     AcqAlgorithm::kDec};
      for (VertexId q : w.queries) {
        KeywordList S = QueryKeywords(w, q, num_kws);
        for (int a = 0; a < 3; ++a) {
          Timer timer;
          auto result = engine.Search(q, k, S, algos[a]);
          total_ms[a] += timer.ElapsedMillis();
          if (!result.ok()) {
            std::printf("query failed: %s\n",
                        result.status().ToString().c_str());
            return;
          }
        }
      }
      const char* names[3] = {"Inc-S", "Inc-T", "Dec"};
      int fastest = 0;
      for (int a = 1; a < 3; ++a) {
        if (total_ms[a] < total_ms[fastest]) fastest = a;
      }
      std::printf("%-4u %-4zu %12.2f %12.2f %12.2f %16s\n", k, num_kws,
                  total_ms[0], total_ms[1], total_ms[2], names[fastest]);
      if (k == 4 && num_kws == 4) {
        // One stable headline configuration per algorithm.
        cexplorer::bench::EmitJsonLine("query_incs_k4_s4",
                                       w.graph.num_vertices(),
                                       w.graph.graph().num_edges(),
                                       DefaultThreadCount(), total_ms[0]);
        cexplorer::bench::EmitJsonLine("query_inct_k4_s4",
                                       w.graph.num_vertices(),
                                       w.graph.graph().num_edges(),
                                       DefaultThreadCount(), total_ms[1]);
        cexplorer::bench::EmitJsonLine("query_dec_k4_s4",
                                       w.graph.num_vertices(),
                                       w.graph.graph().num_edges(),
                                       DefaultThreadCount(), total_ms[2]);
      }
    }
  }

  // Work counters for one representative query.
  VertexId q = w.queries.front();
  KeywordList S = QueryKeywords(w, q, 6);
  std::printf("\nwork counters (q=%u, k=4, |S|=%zu):\n", q, S.size());
  std::printf("%-8s %12s %12s %12s\n", "algo", "candidates", "verified",
              "pruned");
  for (AcqAlgorithm algo :
       {AcqAlgorithm::kIncS, AcqAlgorithm::kIncT, AcqAlgorithm::kDec}) {
    auto result = engine.Search(q, 4, S, algo);
    if (result.ok()) {
      std::printf("%-8s %12zu %12zu %12zu\n", AcqAlgorithmName(algo),
                  result->stats.candidates_generated,
                  result->stats.candidates_verified,
                  result->stats.support_pruned);
    }
  }
  std::printf("\n");
}

// The zero-allocation hot-path acceptance metric: allocations per cold ACQ
// query on a 50k-vertex graph, per algorithm, measured with the counting
// allocator in bench/alloc_counter.cc. "Cold" means the engine-level query
// runs in full (no server-side result cache involved); the per-thread
// scratch is warmed by one throwaway query first so the steady state — not
// the first-touch growth of the reusable buffers — is what gets reported.
//
// The fixture is fixed-size, so the counts are deterministic and CI gates
// them against the committed baseline (bench/compare.py --gate). Steady
// state after the scratch-buffer work: ~58 (Inc-S), ~61 (Inc-T), ~46 (Dec)
// allocs/query — the remainder is the per-level result vectors and the
// exact-size copies the query result owns, not gather/peel churn.
void PrintAllocTable() {
  DblpOptions options = cexplorer::bench::BenchDblpOptions();
  options.num_authors = 50000;
  DblpDataset data = GenerateDblp(options);
  const AttributedGraph& graph = data.graph;
  ClTree tree = ClTree::Build(graph);
  std::vector<VertexId> queries;
  for (VertexId v = 0; v < graph.num_vertices() && queries.size() < 16;
       v += 97) {
    if (tree.CoreOf(v) >= 4 && graph.Keywords(v).size() >= 8) {
      queries.push_back(v);
    }
  }
  if (queries.empty()) {
    std::printf("alloc sweep: no suitable query authors found\n");
    return;
  }

  auto keywords_of = [&graph](VertexId q, std::size_t count) {
    auto wq = graph.Keywords(q);
    return KeywordList(wq.begin(),
                       wq.begin() + std::min<std::size_t>(wq.size(), count));
  };

  // A query runs on the calling thread: a deterministic allocation count.
  AcqEngine engine(&graph, &tree);
  std::printf("allocations per cold query (%s authors, k=4, |S|=4):\n",
              FormatWithCommas(graph.num_vertices()).c_str());
  std::printf("%-8s %16s %16s\n", "algo", "allocs/query", "total");
  const std::size_t n = graph.num_vertices();
  const std::size_t m = graph.graph().num_edges();
  for (AcqAlgorithm algo :
       {AcqAlgorithm::kIncS, AcqAlgorithm::kIncT, AcqAlgorithm::kDec}) {
    // Warm-up pass: excludes the first-touch growth of any reusable
    // per-thread scratch from the steady-state number.
    for (VertexId q : queries) {
      auto warm = engine.Search(q, 4, keywords_of(q, 4), algo);
      if (!warm.ok()) {
        std::printf("alloc sweep query failed: %s\n",
                    warm.status().ToString().c_str());
        return;
      }
    }
    const std::uint64_t before = cexplorer::bench::AllocationCount();
    for (VertexId q : queries) {
      auto result = engine.Search(q, 4, keywords_of(q, 4), algo);
      benchmark::DoNotOptimize(result.ok());
    }
    const std::uint64_t total = cexplorer::bench::AllocationCount() - before;
    const double per_query =
        static_cast<double>(total) / static_cast<double>(queries.size());
    std::printf("%-8s %16.1f %16llu\n", AcqAlgorithmName(algo), per_query,
                static_cast<unsigned long long>(total));
    const char* metric_name = algo == AcqAlgorithm::kIncS
                                  ? "acq_allocs_incs_k4_s4"
                                  : (algo == AcqAlgorithm::kIncT
                                         ? "acq_allocs_inct_k4_s4"
                                         : "acq_allocs_dec_k4_s4");
    cexplorer::bench::EmitJsonMetricLine(metric_name, n, m, 1,
                                         "allocs_per_query", per_query);
  }
  std::printf("\n");
}

void RunAlgo(benchmark::State& state, AcqAlgorithm algo) {
  Workload& w = TheWorkload();
  if (w.queries.empty()) {
    state.SkipWithError("no queries");
    return;
  }
  AcqEngine engine(&w.graph, &w.tree);
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  const std::size_t num_kws = static_cast<std::size_t>(state.range(1));
  std::size_t i = 0;
  for (auto _ : state) {
    VertexId q = w.queries[i++ % w.queries.size()];
    auto result = engine.Search(q, k, QueryKeywords(w, q, num_kws), algo);
    benchmark::DoNotOptimize(result.ok());
  }
}

void BM_IncS(benchmark::State& state) { RunAlgo(state, AcqAlgorithm::kIncS); }
void BM_IncT(benchmark::State& state) { RunAlgo(state, AcqAlgorithm::kIncT); }
void BM_Dec(benchmark::State& state) { RunAlgo(state, AcqAlgorithm::kDec); }

BENCHMARK(BM_IncS)->Args({4, 4})->Args({4, 8})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncT)->Args({4, 4})->Args({4, 8})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Dec)->Args({4, 4})->Args({4, 8})->Unit(benchmark::kMillisecond);

void BM_MultiVertexDec(benchmark::State& state) {
  Workload& w = TheWorkload();
  if (w.queries.size() < 2) {
    state.SkipWithError("no queries");
    return;
  }
  AcqEngine engine(&w.graph, &w.tree);
  std::size_t i = 0;
  for (auto _ : state) {
    VertexId q = w.queries[i++ % w.queries.size()];
    auto result = engine.SearchMulti({q}, 4, QueryKeywords(w, q, 4));
    benchmark::DoNotOptimize(result.ok());
  }
}
BENCHMARK(BM_MultiVertexDec)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintSweepTable();
  PrintAllocTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
