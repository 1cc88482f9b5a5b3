// Experiment: Figure 5 + Section 3.2 index claims.
//
// Paper: "the CL-tree can be built in linear space and time cost", and the
// worked example of Figure 5(b) (the CL-tree of the 10-vertex graph).
//
// Reproduction: (a) print the CL-tree of the Figure 5(a) graph and check it
// against the paper's drawing; (b) sweep graph sizes and show build time
// and index memory grow linearly in |V|+|E|; (c) ablation: basic top-down
// vs advanced bottom-up construction (the paper chose the advanced one).

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "cltree/cltree.h"
#include "common/strings.h"
#include "common/timer.h"
#include "data/dblp.h"
#include "graph/fixtures.h"

namespace {

using namespace cexplorer;
using cexplorer::bench::Banner;

void PrintFigure5Tree() {
  Banner("Figure 5(b): CL-tree of the example graph",
         "0:{J} -> 1:{F,G} -> 2:{E} -> 3:{A,B,C,D}; 0 -> 1:{H,I}");

  AttributedGraph g = Figure5Graph();
  ClTree tree = ClTree::Build(g);

  // Indented preorder print.
  struct Item {
    ClNodeId id;
    int depth;
  };
  std::vector<Item> stack{{tree.root(), 0}};
  while (!stack.empty()) {
    Item item = stack.back();
    stack.pop_back();
    const ClTreeNode& node = tree.node(item.id);
    std::string names;
    for (VertexId v : node.vertices) {
      if (!names.empty()) names += ",";
      names += g.Name(v);
    }
    std::printf("%*score %u: {%s}\n", item.depth * 2, "", node.core,
                names.c_str());
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back({*it, item.depth + 1});
    }
  }
  std::printf("\n");
}

void PrintLinearityTable() {
  std::printf("--- Linear build cost (advanced builder) ---\n");
  std::printf("%-10s %12s %10s %12s %14s %14s\n", "authors", "n+m",
              "build(s)", "(n+m)/s", "index MB", "bytes/(n+m)");
  std::vector<std::size_t> sizes = {10000, 20000, 40000, 80000};
  if (cexplorer::bench::FullScale()) sizes.push_back(977288);
  for (std::size_t n : sizes) {
    DblpOptions options = cexplorer::bench::BenchDblpOptions();
    options.num_authors = n;
    DblpDataset data = GenerateDblp(options);
    const double nm = static_cast<double>(data.graph.num_vertices() +
                                          data.graph.graph().num_edges());
    Timer timer;
    ClTree tree = ClTree::Build(data.graph, ClTreeBuildMethod::kAdvanced);
    double secs = timer.ElapsedSeconds();
    std::printf("%-10s %12s %10.3f %12s %14.1f %14.1f\n",
                FormatWithCommas(n).c_str(),
                FormatWithCommas(static_cast<std::uint64_t>(nm)).c_str(), secs,
                FormatWithCommas(static_cast<std::uint64_t>(nm / secs)).c_str(),
                static_cast<double>(tree.MemoryBytes()) / 1e6,
                static_cast<double>(tree.MemoryBytes()) / nm);
    cexplorer::bench::EmitJsonLine("fig5_cltree_build",
                                   data.graph.num_vertices(),
                                   data.graph.graph().num_edges(), 1,
                                   secs * 1e3);
  }
  std::printf("\nShape check: throughput ((n+m)/s) and bytes/(n+m) stay flat\n"
              "as the graph grows -> linear time and space, as claimed.\n\n");
}

void PrintAblationTable() {
  std::printf("--- Ablation: basic (top-down) vs advanced (union-find) ---\n");
  std::printf("%-10s %12s %12s %8s\n", "authors", "basic(s)", "advanced(s)",
              "speedup");
  for (std::size_t n : {10000ul, 20000ul, 40000ul}) {
    DblpOptions options = cexplorer::bench::BenchDblpOptions();
    options.num_authors = n;
    DblpDataset data = GenerateDblp(options);
    Timer t1;
    ClTree basic = ClTree::Build(data.graph, ClTreeBuildMethod::kBasic);
    double basic_s = t1.ElapsedSeconds();
    Timer t2;
    ClTree advanced = ClTree::Build(data.graph, ClTreeBuildMethod::kAdvanced);
    double advanced_s = t2.ElapsedSeconds();
    std::printf("%-10s %12.3f %12.3f %7.2fx\n", FormatWithCommas(n).c_str(),
                basic_s, advanced_s, basic_s / advanced_s);
  }
  std::printf("\n");
}

void BM_ClTreeBuildAdvanced(benchmark::State& state) {
  DblpOptions options = cexplorer::bench::BenchDblpOptions();
  options.num_authors = static_cast<std::size_t>(state.range(0));
  DblpDataset data = GenerateDblp(options);
  for (auto _ : state) {
    ClTree tree = ClTree::Build(data.graph, ClTreeBuildMethod::kAdvanced);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(data.graph.num_vertices() +
                                data.graph.graph().num_edges()));
}
BENCHMARK(BM_ClTreeBuildAdvanced)
    ->Arg(10000)
    ->Arg(20000)
    ->Arg(40000)
    ->Unit(benchmark::kMillisecond);

void BM_ClTreeBuildBasic(benchmark::State& state) {
  DblpOptions options = cexplorer::bench::BenchDblpOptions();
  options.num_authors = static_cast<std::size_t>(state.range(0));
  DblpDataset data = GenerateDblp(options);
  for (auto _ : state) {
    ClTree tree = ClTree::Build(data.graph, ClTreeBuildMethod::kBasic);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
}
BENCHMARK(BM_ClTreeBuildBasic)
    ->Arg(10000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintFigure5Tree();
  PrintLinearityTable();
  PrintAblationTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
