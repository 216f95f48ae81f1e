// Incremental recomputation: warm-started runs must produce values
// identical to a full recompute on the mutated graph (the acceptance
// property of the dynamic subsystem) — insert-only warm starts and
// deletion-cone recomputes for BFS/SSSP/CC/SSWP, residual re-injection
// for the accumulation family (PR/PHP). When the mutation log was
// retired, the transparent full-recompute fallback must report its reason
// in RunTrace::incremental_fallback.

#include "dynamic/incremental.h"

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>
#include <utility>
#include <vector>

#include "algorithms/reference.h"
#include "core/engine.h"
#include "test_graphs.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;
using testing::SmallRmat;

SolverOptions CpuDefaults() {
  return SolverOptions::Defaults(SystemKind::kCpu);
}

MutationBatch RandomInserts(VertexId n, int count, Rng* rng) {
  MutationBatch batch;
  for (int i = 0; i < count; ++i) {
    batch.InsertEdge(static_cast<VertexId>(rng->NextBounded(n)),
                     static_cast<VertexId>(rng->NextBounded(n)),
                     static_cast<Weight>(1 + rng->NextBounded(16)));
  }
  return batch;
}

TEST(IncrementalSupportTest, MonotoneFamilyOnly) {
  EXPECT_TRUE(SupportsIncremental(AlgorithmId::kBfs));
  EXPECT_TRUE(SupportsIncremental(AlgorithmId::kSssp));
  EXPECT_TRUE(SupportsIncremental(AlgorithmId::kCc));
  EXPECT_TRUE(SupportsIncremental(AlgorithmId::kSswp));
  EXPECT_FALSE(SupportsIncremental(AlgorithmId::kPageRank));
  EXPECT_FALSE(SupportsIncremental(AlgorithmId::kPhp));
}

TEST(IncrementalRecomputeTest, RejectsAccumulationFamilyAndBadSizes) {
  DeltaOverlay overlay(
      std::make_shared<const CsrGraph>(PaperFigure1Graph()));
  std::vector<uint32_t> values(overlay.num_vertices(), 0);
  EXPECT_TRUE(IncrementalRecompute(overlay, AlgorithmId::kPageRank, 0, {},
                                   &values)
                  .status()
                  .IsInvalidArgument());
  std::vector<uint32_t> wrong_size(3, 0);
  EXPECT_TRUE(
      IncrementalRecompute(overlay, AlgorithmId::kBfs, 0, {}, &wrong_size)
          .status()
          .IsInvalidArgument());
  std::vector<VertexId> bad_seed = {99};
  EXPECT_TRUE(
      IncrementalRecompute(overlay, AlgorithmId::kBfs, 0, bad_seed, &values)
          .status()
          .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Property: chained incremental runs across random insert-only batches
// equal a full recompute at every epoch, for all four monotone algorithms.

class IncrementalPropertyTest
    : public ::testing::TestWithParam<std::tuple<AlgorithmId, uint64_t>> {};

TEST_P(IncrementalPropertyTest, MatchesFullRecomputeAcrossEpochs) {
  const auto [algorithm, seed] = GetParam();
  Engine engine(SmallRmat(8, 5, seed), CpuDefaults());
  const VertexId n = engine.graph().num_vertices();
  Rng rng(seed * 131 + 7);

  Query query;
  query.algorithm = algorithm;
  auto previous = engine.Run(query);
  ASSERT_TRUE(previous.ok()) << previous.status().ToString();
  query.source = previous->source;  // pin the resolved source

  for (int round = 0; round < 5; ++round) {
    auto applied =
        engine.ApplyMutations(RandomInserts(n, 16 + round * 8, &rng));
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();

    // Incremental first — a full query folds the overlay away, and the
    // incremental path must cope with the overlay present.
    auto incremental = engine.RunIncremental(query, *previous);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    EXPECT_TRUE(incremental->incremental);
    EXPECT_EQ(incremental->epoch, applied->epoch);

    auto full = engine.Run(query);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    EXPECT_FALSE(full->incremental);
    ASSERT_EQ(incremental->u32(), full->u32())
        << AlgorithmName(algorithm) << " diverged at epoch "
        << applied->epoch;

    previous = std::move(incremental);  // chain the warm start
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMonotoneAlgorithms, IncrementalPropertyTest,
    ::testing::Combine(::testing::Values(AlgorithmId::kBfs,
                                         AlgorithmId::kSssp,
                                         AlgorithmId::kCc,
                                         AlgorithmId::kSswp),
                       ::testing::Values(3u, 11u, 29u)),
    [](const ::testing::TestParamInfo<std::tuple<AlgorithmId, uint64_t>>&
           info) {
      return std::string(AlgorithmName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(IncrementalEngineTest, SameEpochReturnsPreviousValuesWithoutWork) {
  Engine engine(SmallRmat(8, 5, 3), CpuDefaults());
  Query query;
  query.algorithm = AlgorithmId::kBfs;
  auto first = engine.Run(query);
  ASSERT_TRUE(first.ok());
  query.source = first->source;

  auto again = engine.RunIncremental(query, *first);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->incremental);
  EXPECT_EQ(again->epoch, first->epoch);
  EXPECT_EQ(again->u32(), first->u32());
  EXPECT_EQ(again->trace.NumIterations(), 0u);  // nothing re-propagated
}

TEST(IncrementalEngineTest, DeletionRunsTheConeIncrementalPath) {
  Engine engine(PaperFigure1Graph(), CpuDefaults());
  Query query;
  query.algorithm = AlgorithmId::kSssp;
  query.source = 0;
  auto initial = engine.Run(query);
  ASSERT_TRUE(initial.ok());

  // Deleting a->b (the shortest-path tree edge) must *increase* distances;
  // the deletion cone invalidates b's subtree and re-seeds from its
  // boundary — exact against a full recompute, no fallback.
  MutationBatch batch;
  batch.DeleteEdge(0, 1);
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());

  auto rerun = engine.RunIncremental(query, *initial);
  ASSERT_TRUE(rerun.ok());
  EXPECT_TRUE(rerun->incremental);
  EXPECT_EQ(rerun->trace.incremental_fallback, IncrementalFallback::kNone);
  auto full = engine.Run(query);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(rerun->u32(), full->u32());
  // The mutated graph genuinely differs: b is now reached the long way.
  EXPECT_NE(rerun->u32(), initial->u32());
}

TEST(IncrementalEngineTest, RetiredMutationLogReportsTheFallbackReason) {
  CompactionPolicy policy;
  policy.mutation_log_horizon = 1;  // retire aggressively
  Engine engine(SmallRmat(8, 5, 5), CpuDefaults(), policy);
  const VertexId n = engine.graph().num_vertices();
  Rng rng(17);
  Query query;
  query.algorithm = AlgorithmId::kBfs;
  auto initial = engine.Run(query);
  ASSERT_TRUE(initial.ok());
  query.source = initial->source;

  // Two epochs with horizon 1: the epoch-1 entry is retired when epoch 2
  // lands, so the delta since epoch 0 can no longer be reconstructed.
  ASSERT_TRUE(engine.ApplyMutations(RandomInserts(n, 8, &rng)).ok());
  ASSERT_TRUE(engine.ApplyMutations(RandomInserts(n, 8, &rng)).ok());

  auto rerun = engine.RunIncremental(query, *initial);
  ASSERT_TRUE(rerun.ok());
  EXPECT_FALSE(rerun->incremental);
  EXPECT_EQ(rerun->trace.incremental_fallback,
            IncrementalFallback::kRetiredLog);
  auto full = engine.Run(query);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(rerun->u32(), full->u32());
}

TEST(IncrementalEngineTest, DeleteThenInsertChainsIncrementally) {
  Engine engine(SmallRmat(8, 5, 5), CpuDefaults());
  const VertexId n = engine.graph().num_vertices();
  Rng rng(99);
  Query query;
  query.algorithm = AlgorithmId::kBfs;
  auto initial = engine.Run(query);
  ASSERT_TRUE(initial.ok());
  query.source = initial->source;

  // Epoch 1 deletes; epoch 2 inserts. A warm start from epoch 0 spans a
  // deletion, so the cone path (not the insert-only path) must run — and
  // still match the full recompute exactly.
  MutationBatch deletes;
  deletes.DeleteEdge(query.source, engine.graph().neighbors(query.source)[0]);
  ASSERT_TRUE(engine.ApplyMutations(deletes).ok());
  ASSERT_TRUE(engine.ApplyMutations(RandomInserts(n, 8, &rng)).ok());

  auto warm = engine.RunIncremental(query, *initial);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->incremental);
  EXPECT_EQ(warm->trace.incremental_fallback, IncrementalFallback::kNone);
  {
    auto full = engine.Run(query);
    ASSERT_TRUE(full.ok());
    EXPECT_EQ(warm->u32(), full->u32());
  }

  // Chaining from the caught-up result across an insert-only epoch takes
  // the plain warm-start path.
  ASSERT_TRUE(engine.ApplyMutations(RandomInserts(n, 8, &rng)).ok());
  auto incremental = engine.RunIncremental(query, *warm);
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->incremental);
  auto full = engine.Run(query);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(incremental->u32(), full->u32());
}

TEST(IncrementalEngineTest, AccumulationFamilyRunsResidualReinjection) {
  Engine engine(SmallRmat(8, 5, 7), CpuDefaults());
  Query query;
  query.algorithm = AlgorithmId::kPageRank;
  auto initial = engine.Run(query);
  ASSERT_TRUE(initial.ok());

  MutationBatch batch;
  batch.InsertEdge(0, 1, 1);
  batch.DeleteEdge(1, 2);
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());

  auto rerun = engine.RunIncremental(query, *initial);
  ASSERT_TRUE(rerun.ok());
  EXPECT_TRUE(rerun->incremental);
  EXPECT_EQ(rerun->trace.incremental_fallback, IncrementalFallback::kNone);
  ASSERT_TRUE(rerun->is_f64());
  auto full = engine.Run(query);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(rerun->f64().size(), full->f64().size());
  for (size_t v = 0; v < full->f64().size(); ++v) {
    EXPECT_NEAR(rerun->f64()[v], full->f64()[v], 1e-4) << "vertex " << v;
  }
}

// ---------------------------------------------------------------------------
// AccumulativeRecompute called directly, on RMAT scale 12: large enough that
// the active lists and the share-row fold span several pool shards.

/// Same slack as streaming_incremental_test: both sides stop at an epsilon
/// = 1e-6 residual.
constexpr double kF64Tolerance = 2e-3;

/// A base graph, the reference fixpoint on it, and a delta applied through
/// an overlay, with the log records AccumulativeRecompute consumes. The PHP
/// source is the highest out-degree vertex.
struct AccumulativeCase {
  AlgorithmId algorithm;
  std::shared_ptr<const CsrGraph> base;
  VertexId source = 0;
  std::unique_ptr<DeltaOverlay> overlay;
  std::vector<EdgeRecord> inserts;
  std::vector<EdgeRecord> deletes;
  std::vector<double> previous;

  explicit AccumulativeCase(AlgorithmId id)
      : algorithm(id),
        base(std::make_shared<const CsrGraph>(SmallRmat(12, 8, 13))),
        overlay(std::make_unique<DeltaOverlay>(base)) {
    for (VertexId v = 0; v < base->num_vertices(); ++v) {
      if (base->out_degree(v) > base->out_degree(source)) source = v;
    }
    previous = Reference(*base);
  }

  std::vector<double> Reference(const CsrGraph& graph) const {
    return algorithm == AlgorithmId::kPageRank ? ReferencePageRank(graph)
                                               : ReferencePhp(graph, source);
  }

  void Apply(const MutationBatch& batch) {
    auto applied = overlay->Apply(batch);
    HYT_CHECK(applied.ok()) << applied.status().ToString();
    deletes = applied->deleted_edges;
    for (const EdgeMutation& m : batch.mutations()) {
      if (m.op == MutationOp::kInsertEdge) {
        inserts.push_back({m.src, m.dst, m.weight});
      }
    }
  }

  /// The reference fixpoint on the post-delta graph.
  std::vector<double> Expected() const {
    auto snapshot = overlay->Materialize();
    HYT_CHECK(snapshot.ok()) << snapshot.status().ToString();
    return Reference(*snapshot);
  }

  Result<IncrementalStats> Recompute(std::vector<double>* values) const {
    *values = previous;
    return AccumulativeRecompute(GraphView::Wrap(*overlay), algorithm,
                                 source, AlgoParams{}, inserts, deletes,
                                 values);
  }
};

void ExpectNear(const std::vector<double>& got,
                const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t v = 0; v < want.size(); ++v) {
    ASSERT_NEAR(got[v], want[v], kF64Tolerance) << "vertex " << v;
  }
}

class AccumulativeRecomputeTest
    : public ::testing::TestWithParam<AlgorithmId> {
 protected:
  /// 64 random inserts and 64 deletes of random base edges. One of each
  /// rewires the source, whose row holds PHP's mass: random edges
  /// elsewhere move PHP by less than epsilon.
  static AccumulativeCase MixedCase() {
    AccumulativeCase c(GetParam());
    const CsrGraph& base = *c.base;
    const VertexId n = base.num_vertices();
    Rng rng(57);
    MutationBatch batch;
    batch.DeleteEdge(c.source, base.neighbors(c.source)[0]);
    batch.InsertEdge(c.source, (c.source + 1) % n, 7);
    for (int i = 0; i < 63; ++i) {
      const auto v = static_cast<VertexId>(rng.NextBounded(n));
      const auto nbrs = base.neighbors(v);
      if (!nbrs.empty()) batch.DeleteEdge(v, nbrs[rng.NextBounded(nbrs.size())]);
      batch.InsertEdge(static_cast<VertexId>(rng.NextBounded(n)),
                       static_cast<VertexId>(rng.NextBounded(n)),
                       static_cast<Weight>(1 + rng.NextBounded(16)));
    }
    c.Apply(batch);
    return c;
  }
};

TEST_P(AccumulativeRecomputeTest, MixedDeltaMatchesReference) {
  const AccumulativeCase c = MixedCase();
  ASSERT_FALSE(c.deletes.empty());
  std::vector<double> values;
  auto stats = c.Recompute(&values);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->rounds, 0u);
  ExpectNear(values, c.Expected());
}

TEST_P(AccumulativeRecomputeTest, RepeatedCallsAreBitwiseIdentical) {
  const AccumulativeCase c = MixedCase();
  std::vector<double> first, second;
  auto stats = c.Recompute(&first);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(c.Recompute(&second).ok());
  EXPECT_EQ(first, second);
  EXPECT_GT(stats->rounds, 0u);
  EXPECT_GT(stats->seed_vertices, 0u);
  EXPECT_GE(stats->relaxed_vertices, stats->seed_vertices);
}

TEST_P(AccumulativeRecomputeTest, CallFromInsidePoolShardMatches) {
  const AccumulativeCase c = MixedCase();
  std::vector<double> top_level;
  ASSERT_TRUE(c.Recompute(&top_level).ok());

  // One call per shard, all running at once; each degrades to a serial
  // loop on its own thread instead of deadlocking on the pool.
  ThreadPool* pool = ThreadPool::Default();
  const int shards = pool->num_threads();
  std::vector<std::vector<double>> nested(shards);
  std::vector<uint8_t> ok(shards, 0), in_shard(shards, 0);
  pool->ParallelFor(
      shards,
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          in_shard[i] = ThreadPool::InWorkerThread();
          ok[i] = c.Recompute(&nested[i]).ok();
        }
      },
      /*min_grain=*/1);
  for (int i = 0; i < shards; ++i) {
    ASSERT_TRUE(ok[i]) << "call " << i;
    if (shards > 1) {
      EXPECT_TRUE(in_shard[i]) << "call " << i;
    }
    ExpectNear(nested[i], top_level);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PageRankAndPhp, AccumulativeRecomputeTest,
    ::testing::Values(AlgorithmId::kPageRank, AlgorithmId::kPhp),
    [](const ::testing::TestParamInfo<AlgorithmId>& info) {
      return std::string(AlgorithmName(info.param));
    });

TEST(AccumulativeDeletionTest, DeleteOnlyDeltaLowersTargets) {
  AccumulativeCase c(AlgorithmId::kPageRank);
  // Sixteen edges on pairwise distinct vertices: no deleted target is also
  // a source whose other out-edges gain the withdrawn share.
  MutationBatch batch;
  std::vector<VertexId> targets;
  std::unordered_set<VertexId> used;
  for (VertexId u = 0; u < c.base->num_vertices() && targets.size() < 16;
       ++u) {
    const auto nbrs = c.base->neighbors(u);
    if (nbrs.size() < 2 || nbrs[0] == u || used.count(u) ||
        used.count(nbrs[0])) {
      continue;
    }
    used.insert(u);
    used.insert(nbrs[0]);
    targets.push_back(nbrs[0]);
    batch.DeleteEdge(u, nbrs[0]);
  }
  c.Apply(batch);
  ASSERT_TRUE(c.inserts.empty());
  ASSERT_GE(c.deletes.size(), targets.size());

  std::vector<double> values;
  ASSERT_TRUE(c.Recompute(&values).ok());
  ExpectNear(values, c.Expected());
  for (VertexId t : targets) {
    EXPECT_LT(values[t], c.previous[t] - kF64Tolerance) << "vertex " << t;
  }
}

TEST(IncrementalEngineTest, MismatchedPreviousResultIsRejected) {
  Engine engine(SmallRmat(8, 5, 3), CpuDefaults());
  Query bfs;
  bfs.algorithm = AlgorithmId::kBfs;
  auto result = engine.Run(bfs);
  ASSERT_TRUE(result.ok());

  MutationBatch batch;
  batch.InsertEdge(0, 1, 1);
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());

  // Wrong algorithm.
  Query sssp;
  sssp.algorithm = AlgorithmId::kSssp;
  sssp.source = result->source;
  EXPECT_TRUE(
      engine.RunIncremental(sssp, *result).status().IsInvalidArgument());

  // Wrong source.
  Query other = bfs;
  other.source = result->source == 0 ? 1 : 0;
  EXPECT_TRUE(
      engine.RunIncremental(other, *result).status().IsInvalidArgument());

  // A "previous" result from a future epoch.
  QueryResult fake = *result;
  fake.epoch = 1000;
  bfs.source = result->source;
  EXPECT_TRUE(
      engine.RunIncremental(bfs, fake).status().IsInvalidArgument());
}

}  // namespace
}  // namespace hytgraph
