#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <map>
#include <utility>

#include "graph/degree_stats.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hytgraph::bench {

uint32_t ScaleDelta() {
  const char* env = std::getenv("HYT_BENCH_SCALE_DELTA");
  if (env == nullptr) return 2;
  return static_cast<uint32_t>(std::atoi(env));
}

const BenchDataset& LoadBenchDataset(const std::string& name) {
  static std::map<std::string, BenchDataset>* cache =
      new std::map<std::string, BenchDataset>();
  auto it = cache->find(name);
  if (it != cache->end()) return it->second;

  auto spec = FindDataset(name);
  HYT_CHECK(spec.ok()) << spec.status().ToString();
  BenchDataset dataset;
  dataset.spec = *spec;
  dataset.spec.scale =
      dataset.spec.scale > ScaleDelta() ? dataset.spec.scale - ScaleDelta()
                                        : dataset.spec.scale;
  auto graph = LoadDataset(dataset.spec);
  HYT_CHECK(graph.ok()) << graph.status().ToString();
  dataset.device_memory =
      DeviceMemoryBudget(dataset.spec, *graph);

  // Engine defaults: the paper-faithful HyTGraph configuration at this
  // dataset's memory budget. Benches running other systems/configurations
  // pass explicit options per query; the preparation cache is shared.
  SolverOptions defaults = SolverOptions::Defaults(SystemKind::kHyTGraph);
  defaults.device_memory_override = dataset.device_memory;
  dataset.engine = std::make_unique<Engine>(std::move(graph).value(),
                                            std::move(defaults));
  return cache->emplace(name, std::move(dataset)).first->second;
}

SolverOptions MakeOptions(SystemKind system, const BenchDataset& dataset) {
  SolverOptions opts = SolverOptions::Defaults(system);
  opts.device_memory_override = dataset.device_memory;
  return opts;
}

VertexId PickSource(const CsrGraph& graph) {
  return HighestOutDegreeVertex(graph);
}

RunTrace MustRun(AlgorithmId algorithm, SystemKind system,
                 const BenchDataset& dataset) {
  return MustRunWith(algorithm, dataset, MakeOptions(system, dataset));
}

RunTrace MustRunWith(AlgorithmId algorithm, const BenchDataset& dataset,
                     const SolverOptions& options) {
  Query query;
  query.algorithm = algorithm;  // source defaults to the engine's pick
  auto result = dataset.engine->Run(query, options);
  HYT_CHECK(result.ok()) << result.status().ToString();
  return std::move(result->trace);
}

void PrintHeader(const std::string& experiment,
                 const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", experiment.c_str());
  std::printf("Reproduces: %s (HyTGraph, ICDE 2023)\n", paper_ref.c_str());
  std::printf("Bench scale delta: -%u (set HYT_BENCH_SCALE_DELTA to change)\n",
              ScaleDelta());
  // Kernel shards, and so PR/PHP sums and the simulated time they drive,
  // follow the pool size.
  std::printf("Pool threads: %d\n\n", ThreadPool::Default()->num_threads());
}

}  // namespace hytgraph::bench
