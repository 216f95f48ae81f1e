// Component micro-benchmarks (google-benchmark): the real host-side costs
// behind the simulator — CPU compaction throughput (formula (2)'s Thpt_cpt),
// kernel edge-relaxation throughput, the thread pool's fork-join round
// trip, frontier/bitmap operations, partition stats construction, and RMAT
// generation.

#include <benchmark/benchmark.h>

#include "algorithms/programs.h"
#include "engine/compactor.h"
#include "engine/kernels.h"
#include "engine/partition_state.h"
#include "graph/rmat_generator.h"
#include "sim/pcie_model.h"
#include "util/atomic_bitmap.h"
#include "util/thread_pool.h"

namespace hytgraph {
namespace {

const CsrGraph& BenchGraph() {
  static const CsrGraph* graph = [] {
    RmatOptions opts;
    opts.scale = 16;
    opts.edge_factor = 16;
    opts.seed = 99;
    auto result = GenerateRmat(opts);
    HYT_CHECK(result.ok());
    return new CsrGraph(std::move(result).value());
  }();
  return *graph;
}

std::vector<VertexId> EveryKthVertex(const CsrGraph& graph, VertexId k) {
  std::vector<VertexId> actives;
  for (VertexId v = 0; v < graph.num_vertices(); v += k) actives.push_back(v);
  return actives;
}

void BM_CompactionThroughput(benchmark::State& state) {
  const CsrGraph& graph = BenchGraph();
  const auto actives =
      EveryKthVertex(graph, static_cast<VertexId>(state.range(0)));
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto result = CompactActiveEdges(graph, actives, /*include_weights=*/true);
    benchmark::DoNotOptimize(result.sub.column_index.data());
    bytes += result.bytes_moved;
  }
  state.SetBytesProcessed(static_cast<int64_t>(bytes));
}
BENCHMARK(BM_CompactionThroughput)->Arg(1)->Arg(4)->Arg(16);

void BM_KernelRelaxation(benchmark::State& state) {
  const CsrGraph& graph = BenchGraph();
  const auto actives =
      EveryKthVertex(graph, static_cast<VertexId>(state.range(0)));
  uint64_t edges = 0;
  for (auto _ : state) {
    CcProgram program(graph);  // every vertex processable
    Frontier next(graph.num_vertices());
    edges += RunKernel(graph, actives, program, &next);
  }
  state.SetItemsProcessed(static_cast<int64_t>(edges));
}
// Kernels and the pool run on several threads: rates use wall time, not
// the calling thread's CPU time.
BENCHMARK(BM_KernelRelaxation)->Arg(1)->Arg(16)->UseRealTime();

// Dense PageRank push: every vertex active with its initial delta, so
// nearly every edge improves its target — the per-edge activation cost the
// accumulation family pays.
void BM_PageRankDenseKernel(benchmark::State& state) {
  const CsrGraph& graph = BenchGraph();
  const auto actives = EveryKthVertex(graph, 1);
  uint64_t edges = 0;
  for (auto _ : state) {
    PageRankProgram program(graph);
    Frontier next(graph.num_vertices());
    edges += RunKernel(graph, actives, program, &next);
  }
  state.SetItemsProcessed(static_cast<int64_t>(edges));
}
BENCHMARK(BM_PageRankDenseKernel)->UseRealTime();

// One empty batch on the default pool with a shard per thread: the
// fork-join cost every kernel launch pays before any edge work.
void BM_ParallelForRoundTrip(benchmark::State& state) {
  ThreadPool* pool = ThreadPool::Default();
  const auto shards = static_cast<uint64_t>(pool->num_threads());
  for (auto _ : state) {
    pool->ParallelFor(
        shards, [](int /*shard*/, uint64_t /*begin*/, uint64_t /*end*/) {},
        /*min_grain=*/1);
  }
  state.counters["threads"] = static_cast<double>(shards);
}
BENCHMARK(BM_ParallelForRoundTrip)->UseRealTime();

void BM_PartitionStatsBuild(benchmark::State& state) {
  const CsrGraph& graph = BenchGraph();
  auto partitions = PartitionGraphIntoN(graph, 256).value();
  PcieModel pcie{DefaultGpu()};
  ZeroCopyAccess access(&pcie);
  Frontier frontier(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); v += 3) {
    frontier.Activate(v);
  }
  for (auto _ : state) {
    auto is = BuildIterationState(graph, partitions, frontier, access, true);
    benchmark::DoNotOptimize(is.total_active_edges);
  }
}
BENCHMARK(BM_PartitionStatsBuild);

void BM_FrontierActivation(benchmark::State& state) {
  AtomicBitmap bitmap(1 << 20);
  for (auto _ : state) {
    bitmap.ClearAll();
    for (uint64_t i = 0; i < bitmap.size(); i += 7) {
      benchmark::DoNotOptimize(bitmap.TestAndSet(i));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>((1 << 20) / 7));
}
BENCHMARK(BM_FrontierActivation);

void BM_RmatGeneration(benchmark::State& state) {
  for (auto _ : state) {
    RmatOptions opts;
    opts.scale = static_cast<uint32_t>(state.range(0));
    opts.edge_factor = 8;
    auto graph = GenerateRmat(opts);
    benchmark::DoNotOptimize(graph->num_edges());
  }
}
BENCHMARK(BM_RmatGeneration)->Arg(12)->Arg(14);

void BM_ZeroCopyRequestCounting(benchmark::State& state) {
  const CsrGraph& graph = BenchGraph();
  PcieModel pcie{DefaultGpu()};
  ZeroCopyAccess access(&pcie);
  for (auto _ : state) {
    uint64_t requests = 0;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      requests += access.RequestsForVertex(graph, v, true);
    }
    benchmark::DoNotOptimize(requests);
  }
  state.SetItemsProcessed(state.iterations() * graph.num_vertices());
}
BENCHMARK(BM_ZeroCopyRequestCounting);

}  // namespace
}  // namespace hytgraph

BENCHMARK_MAIN();
