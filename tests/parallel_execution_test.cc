// Kernel sharding must be a pure performance feature. A lone Engine::Run
// shards each push, pull and fold kernel over ThreadPool::Default(); a
// RunBatch runs each query on one pool shard, whose kernels run serially —
// exactly what a one-thread pool runs. For every algorithm and execution
// context (static graph, mutated delta overlay, pull-direction traversal,
// tight-budget out-of-core streaming) a lone Run's values must equal that
// serial-kernel reference: bitwise for the value-selection family (their
// fixed points are unique and u32), within accumulation tolerance for the
// f64 delta-accumulation family (PR/PHP).
//
// PR/PHP fold their shard-private share rows in shard order, so at a fixed
// pool size they are reproducible outright: values and the whole trace are
// bitwise equal run to run, and for a lone Run and a one-query RunBatch
// (DeltaDeterminismTest).
//
// The frontier determinism check runs on BFS with the in-iteration extra
// rounds off, because those rounds are the one intentionally asynchronous
// piece: whether a task's extra round sees a re-activation depends on
// which kernel shard set its bit first — same values either way (the
// identity checks prove it), different per-iteration counts. With extra
// rounds disabled every activation crosses the barrier, and the shards'
// merged activations must reproduce the exact per-iteration active-vertex
// sequence run after run: BFS candidates in iteration i are all level i+1,
// never an improvement on a settled vertex, so the activation SET of each
// iteration is unique — any run-to-run wobble would be a bug in the shard
// activation merge itself.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/reference.h"
#include "core/engine.h"
#include "dynamic/mutation.h"
#include "test_graphs.h"
#include "util/thread_pool.h"

namespace hytgraph {
namespace {

using testing::SmallRmat;

enum class Context { kStatic, kMutated, kPull, kOutOfCore };

const char* ContextName(Context context) {
  switch (context) {
    case Context::kStatic:
      return "Static";
    case Context::kMutated:
      return "MutatedOverlay";
    case Context::kPull:
      return "PullDirection";
    case Context::kOutOfCore:
      return "OutOfCore";
  }
  return "?";
}

CsrGraph TestGraph() { return SmallRmat(12, 8, /*seed=*/7); }

/// Deterministic mutation workload for the overlay context: four batches
/// of pseudo-random inserts plus a few deletes of base edges, applied
/// identically to every engine.
void ApplyDeterministicMutations(Engine* engine) {
  const CsrGraph base = TestGraph();
  const VertexId n = base.num_vertices();
  uint64_t state = 99;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (int b = 0; b < 4; ++b) {
    MutationBatch batch;
    for (int i = 0; i < 64; ++i) {
      batch.InsertEdge(static_cast<VertexId>(next() % n),
                       static_cast<VertexId>(next() % n),
                       static_cast<Weight>(1 + next() % 16));
    }
    for (int i = 0; i < 8; ++i) {
      const VertexId src = static_cast<VertexId>(next() % n);
      const auto nbrs = base.neighbors(src);
      if (!nbrs.empty()) batch.DeleteEdge(src, nbrs[next() % nbrs.size()]);
    }
    auto applied = engine->ApplyMutations(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }
}

std::unique_ptr<Engine> MakeEngine(Context context, int extra_rounds = 1) {
  CsrGraph graph = TestGraph();
  SolverOptions options = SolverOptions::Defaults(SystemKind::kHyTGraph);
  // Oversubscribed device so the hybrid filter/compaction/zero-copy mix
  // actually engages.
  options.device_memory_override = graph.EdgeDataBytes() / 2;
  // Many small partitions, so an iteration runs many tasks.
  options.partition_bytes = 8 << 10;
  options.extra_rounds = extra_rounds;
  CompactionPolicy compaction;
  StorageOptions storage;
  switch (context) {
    case Context::kStatic:
      break;
    case Context::kMutated:
      // Manual compaction: queries keep running on the delta overlay.
      compaction.mode = CompactionMode::kManual;
      break;
    case Context::kPull:
      options.direction = TraversalDirection::kPull;
      break;
    case Context::kOutOfCore:
      // Tight streaming regime: cache under 25% of the edge data.
      storage.memory_budget_bytes = graph.EdgeDataBytes() / 5;
      break;
  }
  auto engine = std::make_unique<Engine>(std::move(graph), options,
                                         compaction, storage);
  if (context == Context::kOutOfCore) {
    EXPECT_TRUE(engine->out_of_core()) << "spill failed, context not tested";
  }
  if (context == Context::kMutated) ApplyDeterministicMutations(engine.get());
  return engine;
}

Query QueryFor(AlgorithmId algorithm) {
  Query query;
  query.algorithm = algorithm;
  if (GetAlgorithmInfo(algorithm).needs_source) query.source = 1;
  return query;
}

QueryResult RunOne(Engine& engine, AlgorithmId algorithm) {
  auto result = engine.Run(QueryFor(algorithm));
  HYT_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Bitwise for the u32 value-selection family; within accumulation
/// tolerance of the largest reference value for the f64 family.
void ExpectSameValues(const QueryResult& got, const QueryResult& want,
                      const std::string& label) {
  if (got.is_f64()) {
    ASSERT_EQ(got.f64().size(), want.f64().size()) << label;
    double max_ref = 1e-12;
    for (double v : want.f64()) max_ref = std::max(max_ref, std::abs(v));
    for (size_t v = 0; v < got.f64().size(); ++v) {
      ASSERT_NEAR(got.f64()[v], want.f64()[v], 1e-3 * max_ref)
          << label << " vertex " << v;
    }
  } else {
    EXPECT_EQ(got.u32(), want.u32())
        << label << " diverged from the serial-kernel reference";
  }
}

/// Every algorithm with serial kernels: one RunBatch of all six queries,
/// each of which runs on a pool shard.
std::map<AlgorithmId, QueryResult> SerialKernelReference(Engine& engine) {
  std::vector<Query> queries;
  for (AlgorithmId algorithm : kAllAlgorithms) {
    queries.push_back(QueryFor(algorithm));
  }
  auto batch = engine.RunBatch(queries);
  HYT_CHECK(batch.ok()) << batch.status().ToString();
  std::map<AlgorithmId, QueryResult> reference;
  for (size_t i = 0; i < queries.size(); ++i) {
    reference.emplace(queries[i].algorithm, std::move((*batch)[i]));
  }
  return reference;
}

class ParallelExecutionTest : public ::testing::TestWithParam<Context> {};

TEST_P(ParallelExecutionTest, LoneRunMatchesSerialKernelReference) {
  const Context context = GetParam();
  auto engine = MakeEngine(context);
  const std::map<AlgorithmId, QueryResult> reference =
      SerialKernelReference(*engine);
  for (AlgorithmId algorithm : kAllAlgorithms) {
    ExpectSameValues(RunOne(*engine, algorithm), reference.at(algorithm),
                     std::string(AlgorithmName(algorithm)) + " on " +
                         std::to_string(ThreadPool::Default()->num_threads()) +
                         " pool threads");
  }
}

TEST_P(ParallelExecutionTest, MergedFrontierIsDeterministicAcrossRuns) {
  const Context context = GetParam();
  auto first_engine = MakeEngine(context, /*extra_rounds=*/0);
  const QueryResult first = RunOne(*first_engine, AlgorithmId::kBfs);
  ASSERT_FALSE(first.trace.iterations.empty());
  for (int run = 0; run < 3; ++run) {
    auto engine = MakeEngine(context, /*extra_rounds=*/0);
    const QueryResult again = RunOne(*engine, AlgorithmId::kBfs);
    EXPECT_EQ(again.u32(), first.u32()) << "BFS values varied on run " << run;
    ASSERT_EQ(again.trace.iterations.size(), first.trace.iterations.size())
        << "iteration count varied on run " << run;
    for (size_t i = 0; i < first.trace.iterations.size(); ++i) {
      EXPECT_EQ(again.trace.iterations[i].active_vertices,
                first.trace.iterations[i].active_vertices)
          << "merged frontier diverged at iteration " << i << " on run "
          << run;
    }
  }
}

/// Lone Runs from concurrent callers share the one pool: their kernel
/// batches queue on it without deadlock, and every value matches the
/// serial-kernel reference.
TEST(ParallelExecutionPoolTest, ConcurrentRunsShareThePool) {
  auto engine = MakeEngine(Context::kStatic);
  const std::map<AlgorithmId, QueryResult> reference =
      SerialKernelReference(*engine);
  const std::vector<AlgorithmId> algorithms = {
      AlgorithmId::kBfs, AlgorithmId::kSssp, AlgorithmId::kCc,
      AlgorithmId::kSswp};
  std::vector<std::string> failures[3];
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 2; ++round) {
        for (AlgorithmId algorithm : algorithms) {
          auto got = engine->Run(QueryFor(algorithm));
          if (!got.ok()) {
            failures[t].push_back(got.status().ToString());
          } else if (got->u32() != reference.at(algorithm).u32()) {
            failures[t].push_back(std::string(AlgorithmName(algorithm)) +
                                  " diverged");
          }
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (int t = 0; t < 3; ++t) {
    for (const std::string& failure : failures[t]) {
      ADD_FAILURE() << "caller " << t << ": " << failure;
    }
  }
}

constexpr AlgorithmId kDeltaAlgorithms[] = {AlgorithmId::kPageRank,
                                            AlgorithmId::kPhp};

/// Bitwise equal values and trace: the iteration count, each iteration's
/// frontier and kernel work, and the simulated time.
void ExpectSameRun(const QueryResult& got, const QueryResult& want,
                   const std::string& label) {
  EXPECT_EQ(got.f64(), want.f64()) << label << ": values differ";
  EXPECT_EQ(got.trace.total_sim_seconds, want.trace.total_sim_seconds)
      << label;
  ASSERT_EQ(got.trace.iterations.size(), want.trace.iterations.size())
      << label;
  for (size_t i = 0; i < want.trace.iterations.size(); ++i) {
    const IterationTrace& g = got.trace.iterations[i];
    const IterationTrace& w = want.trace.iterations[i];
    EXPECT_EQ(g.active_vertices, w.active_vertices) << label << " iter " << i;
    EXPECT_EQ(g.active_edges, w.active_edges) << label << " iter " << i;
    EXPECT_EQ(g.transfers.kernel_edges, w.transfers.kernel_edges)
        << label << " iter " << i;
  }
}

TEST(DeltaDeterminismTest, RunsAreBitwiseReproducible) {
  auto engine = MakeEngine(Context::kStatic);
  for (AlgorithmId algorithm : kDeltaAlgorithms) {
    const QueryResult first = RunOne(*engine, algorithm);
    ASSERT_GT(first.trace.iterations.size(), 1u);
    for (int run = 1; run < 3; ++run) {
      ExpectSameRun(RunOne(*engine, algorithm), first,
                    std::string(AlgorithmName(algorithm)) + " run " +
                        std::to_string(run));
    }
  }
}

TEST(DeltaDeterminismTest, ValuesMatchTheSynchronousReference) {
  auto engine = MakeEngine(Context::kStatic);
  for (AlgorithmId algorithm : kDeltaAlgorithms) {
    const QueryResult got = RunOne(*engine, algorithm);
    const std::vector<double> want =
        algorithm == AlgorithmId::kPageRank
            ? ReferencePageRank(engine->graph())
            : ReferencePhp(engine->graph(), QueryFor(algorithm).source);
    ASSERT_EQ(got.f64().size(), want.size());
    for (size_t v = 0; v < want.size(); ++v) {
      ASSERT_NEAR(got.f64()[v], want[v], 2e-3)
          << AlgorithmName(algorithm) << " vertex " << v;
    }
  }
}

/// A one-query batch runs on the caller like a lone Run, so it is the
/// same run bit for bit.
TEST(DeltaDeterminismTest, OneQueryBatchEqualsRun) {
  auto engine = MakeEngine(Context::kStatic);
  for (AlgorithmId algorithm : kDeltaAlgorithms) {
    auto batch = engine->RunBatch({QueryFor(algorithm)});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), 1u);
    ExpectSameRun((*batch)[0], RunOne(*engine, algorithm),
                  std::string(AlgorithmName(algorithm)) + " batch of one");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllContexts, ParallelExecutionTest,
    ::testing::Values(Context::kStatic, Context::kMutated, Context::kPull,
                      Context::kOutOfCore),
    [](const ::testing::TestParamInfo<Context>& info) {
      return ContextName(info.param);
    });

}  // namespace
}  // namespace hytgraph
