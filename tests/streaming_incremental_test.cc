// Streaming incremental recomputation, validated against the serial
// references: chains of mixed insert+delete batches, with RunIncremental
// warm-starting from the previous epoch's result and every epoch checked
// against the textbook algorithm on the materialized mutated graph. This
// is the end-to-end acceptance property of the deletion-aware incremental
// paths — the cone recompute for the value-selection family and residual
// re-injection for the accumulation family — under the same mutation
// stream, for all six algorithms.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "algorithms/reference.h"
#include "core/engine.h"
#include "dynamic/incremental.h"
#include "test_graphs.h"
#include "util/random.h"

namespace hytgraph {
namespace {

using testing::SmallRmat;

SolverOptions CpuDefaults() {
  return SolverOptions::Defaults(SystemKind::kCpu);
}

/// Termination-threshold slack for the accumulation family: both the
/// engine (warm-started push kernels on the pool) and the
/// reference (synchronous, cold) stop at epsilon = 1e-6 residual, and the
/// warm-start chain re-accumulates each epoch's truncation. ~n*eps/(1-d)
/// per epoch, a few epochs deep.
constexpr double kF64Tolerance = 2e-3;

/// Serial ground truth on the materialized snapshot.
QueryValues Reference(const CsrGraph& graph, AlgorithmId algorithm,
                      VertexId source) {
  switch (algorithm) {
    case AlgorithmId::kBfs:
      return ReferenceBfs(graph, source);
    case AlgorithmId::kSssp:
      return ReferenceSssp(graph, source);
    case AlgorithmId::kCc:
      return ReferenceCc(graph);
    case AlgorithmId::kSswp:
      return ReferenceSswp(graph, source);
    case AlgorithmId::kPageRank:
      return ReferencePageRank(graph);
    case AlgorithmId::kPhp:
      return ReferencePhp(graph, source);
  }
  return std::vector<uint32_t>{};
}

void ExpectMatchesReference(const QueryResult& result, const CsrGraph& graph,
                            AlgorithmId algorithm, uint64_t epoch) {
  const QueryValues want = Reference(graph, algorithm, result.source);
  if (result.is_f64()) {
    const auto& expected = std::get<std::vector<double>>(want);
    ASSERT_EQ(result.f64().size(), expected.size());
    for (size_t v = 0; v < expected.size(); ++v) {
      ASSERT_NEAR(result.f64()[v], expected[v], kF64Tolerance)
          << AlgorithmName(algorithm) << " diverged from the serial"
          << " reference at epoch " << epoch << ", vertex " << v;
    }
  } else {
    ASSERT_EQ(result.u32(), std::get<std::vector<uint32_t>>(want))
        << AlgorithmName(algorithm) << " diverged from the serial"
        << " reference at epoch " << epoch;
  }
}

/// ~`deletes` random existing edges (sampled from the snapshot) plus
/// `inserts` random edges, one batch.
MutationBatch MixedBatch(const CsrGraph& snapshot, int inserts, int deletes,
                         Rng* rng) {
  MutationBatch batch;
  const VertexId n = snapshot.num_vertices();
  for (int i = 0; i < deletes; ++i) {
    const auto v = static_cast<VertexId>(rng->NextBounded(n));
    const auto nbrs = snapshot.neighbors(v);
    if (nbrs.empty()) continue;
    batch.DeleteEdge(v, nbrs[rng->NextBounded(nbrs.size())]);
  }
  for (int i = 0; i < inserts; ++i) {
    batch.InsertEdge(static_cast<VertexId>(rng->NextBounded(n)),
                     static_cast<VertexId>(rng->NextBounded(n)),
                     static_cast<Weight>(1 + rng->NextBounded(16)));
  }
  return batch;
}

class StreamingIncrementalTest
    : public ::testing::TestWithParam<std::tuple<AlgorithmId, uint64_t>> {};

TEST_P(StreamingIncrementalTest, ChainedMixedBatchesMatchSerialReference) {
  const auto [algorithm, seed] = GetParam();
  Engine engine(SmallRmat(7, 6, seed), CpuDefaults());
  Rng rng(seed * 1033 + 11);

  Query query;
  query.algorithm = algorithm;
  auto previous = engine.Run(query);
  ASSERT_TRUE(previous.ok()) << previous.status().ToString();
  query.source = previous->source;  // pin the resolved source

  {
    auto snapshot = engine.View().Materialize();
    ASSERT_TRUE(snapshot.ok());
    ExpectMatchesReference(*previous, *snapshot, algorithm, 0);
  }

  for (int round = 0; round < 4; ++round) {
    auto before = engine.View().Materialize();
    ASSERT_TRUE(before.ok());
    auto applied = engine.ApplyMutations(
        MixedBatch(*before, 12, 4 + round, &rng));
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();

    auto incremental = engine.RunIncremental(query, *previous);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_TRUE(incremental->incremental)
        << AlgorithmName(algorithm) << " fell back at epoch "
        << applied->epoch << ": "
        << IncrementalFallbackName(incremental->trace.incremental_fallback);
    EXPECT_EQ(incremental->trace.incremental_fallback,
              IncrementalFallback::kNone);
    EXPECT_EQ(incremental->epoch, applied->epoch);

    auto snapshot = engine.View().Materialize();
    ASSERT_TRUE(snapshot.ok());
    ExpectMatchesReference(*incremental, *snapshot, algorithm,
                           applied->epoch);

    previous = std::move(incremental);  // chain the warm start
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSixAlgorithms, StreamingIncrementalTest,
    ::testing::Combine(::testing::Values(AlgorithmId::kBfs,
                                         AlgorithmId::kSssp,
                                         AlgorithmId::kCc,
                                         AlgorithmId::kSswp,
                                         AlgorithmId::kPageRank,
                                         AlgorithmId::kPhp),
                       ::testing::Values(5u, 23u)),
    [](const ::testing::TestParamInfo<std::tuple<AlgorithmId, uint64_t>>&
           info) {
      return std::string(AlgorithmName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// The same chain admitted through the wait-free ingest queue instead of
// ApplyMutations: the barrier (WaitForIngest) makes each epoch visible,
// and the incremental result must keep matching the reference — mutations
// admitted concurrently with queries is the serving-path contract.
TEST(StreamingIncrementalTest, IngestQueueAdmissionMatchesReference) {
  Engine engine(SmallRmat(7, 6, 41), CpuDefaults());
  Rng rng(271);

  Query query;
  query.algorithm = AlgorithmId::kSssp;
  auto previous = engine.Run(query);
  ASSERT_TRUE(previous.ok());
  query.source = previous->source;

  for (int round = 0; round < 3; ++round) {
    auto before = engine.View().Materialize();
    ASSERT_TRUE(before.ok());
    ASSERT_TRUE(
        engine.EnqueueMutations(MixedBatch(*before, 10, 5, &rng)).ok());
    engine.WaitForIngest();

    auto incremental = engine.RunIncremental(query, *previous);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_TRUE(incremental->incremental);

    auto snapshot = engine.View().Materialize();
    ASSERT_TRUE(snapshot.ok());
    ExpectMatchesReference(*incremental, *snapshot, AlgorithmId::kSssp,
                           incremental->epoch);
    previous = std::move(incremental);
  }
}

}  // namespace
}  // namespace hytgraph
