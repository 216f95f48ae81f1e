// Engine mutation semantics: epoch versioning, view/snapshot pinning,
// policy-driven compaction (threshold vs manual + explicit Compact()),
// zero-fold query execution on the live view, snapshot GC of the mutation
// log, and mutation validation. (The prepared-cache epoch-invalidation
// contract is covered alongside the other cache tests in
// core_engine_test.cc.)

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/engine.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;
using testing::SmallRmat;

SolverOptions CpuDefaults() {
  return SolverOptions::Defaults(SystemKind::kCpu);
}

TEST(EngineMutationTest, EachBatchBumpsTheEpoch) {
  Engine engine(PaperFigure1Graph(), CpuDefaults());
  EXPECT_EQ(engine.epoch(), 0u);

  MutationBatch batch;
  batch.InsertEdge(0, 3, 2);
  auto first = engine.ApplyMutations(batch);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(first->inserted, 1u);
  EXPECT_EQ(engine.epoch(), 1u);

  auto second = engine.ApplyMutations(batch);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(engine.pending_delta_edges(), 2u);
}

TEST(EngineMutationTest, EmptyBatchIsANoop) {
  Engine engine(PaperFigure1Graph(), CpuDefaults());
  auto result = engine.ApplyMutations(MutationBatch());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->epoch, 0u);
  EXPECT_EQ(engine.epoch(), 0u);
}

TEST(EngineMutationTest, AllNoopDeletionsDoNotBumpTheEpoch) {
  // Deleting absent edges changes nothing; bumping the epoch would force a
  // pointless refold + re-preparation on the next query.
  Engine engine(PaperFigure1Graph(), CpuDefaults());
  MutationBatch batch;
  batch.DeleteEdge(4, 0);  // no such edge
  batch.DeleteEdge(1, 5);  // no such edge
  auto result = engine.ApplyMutations(batch);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->deleted, 0u);
  EXPECT_EQ(result->epoch, 0u);
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_EQ(engine.compactor_stats().folds, 0u);
  (void)engine.graph();  // still the fresh epoch-0 snapshot, no fold
  EXPECT_EQ(engine.compactor_stats().folds, 0u);
}

TEST(EngineMutationTest, InvalidBatchRejectedWithoutEpochBump) {
  Engine engine(PaperFigure1Graph(), CpuDefaults());
  MutationBatch batch;
  batch.InsertEdge(0, 1, 1);
  batch.InsertEdge(0, 999, 1);  // out of range
  EXPECT_TRUE(engine.ApplyMutations(batch).status().IsInvalidArgument());
  EXPECT_EQ(engine.epoch(), 0u);
  EXPECT_EQ(engine.pending_delta_edges(), 0u);
}

TEST(EngineMutationTest, ViewReflectsMutationsAcrossEpochs) {
  Engine engine(PaperFigure1Graph(), CpuDefaults());
  const EdgeId before = engine.View().num_edges();

  MutationBatch batch;
  batch.InsertEdge(4, 1, 3);
  batch.DeleteEdge(0, 2);
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());

  // The live view merges the pending delta — no fold happens.
  const GraphView view = engine.View();
  EXPECT_EQ(view.num_edges(), before);  // +1 insert, -1 delete
  bool found = false;
  view.ForEachNeighbor(4, [&](VertexId nbr, Weight w) {
    if (nbr == 1) {
      found = true;
      EXPECT_EQ(w, 3u);
    }
  });
  EXPECT_TRUE(found);
  view.ForEachNeighbor(0, [&](VertexId nbr, Weight) { EXPECT_NE(nbr, 2u); });
  EXPECT_EQ(engine.compactor_stats().folds, 0u);

  // graph() keeps serving the *base* snapshot until a compaction lands.
  EXPECT_EQ(engine.graph().num_edges(), before);
  EXPECT_EQ(engine.pending_delta_edges(), 2u);
}

TEST(EngineMutationTest, PinnedViewsSurviveMutations) {
  Engine engine(PaperFigure1Graph(), CpuDefaults());
  const GraphView pinned = engine.View();
  const EdgeId pinned_edges = pinned.num_edges();

  MutationBatch batch;
  batch.InsertEdge(0, 5, 1);
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());

  // The pinned view is immutable; the engine serves the new epoch's view.
  EXPECT_EQ(pinned.num_edges(), pinned_edges);
  EXPECT_EQ(engine.View().num_edges(), pinned_edges + 1);
  EXPECT_EQ(engine.View().delta_edges(), 1u);

  // An explicit compaction replaces the base; the pinned view still reads
  // its original snapshot.
  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(pinned.num_edges(), pinned_edges);
  EXPECT_NE(engine.Snapshot().get(), pinned.base_ptr().get());
  EXPECT_EQ(engine.View().num_edges(), pinned_edges + 1);
  EXPECT_EQ(engine.pending_delta_edges(), 0u);
}

TEST(EngineMutationTest, ResultsFromBeforeTheMutationStayIntact) {
  Engine engine(PaperFigure1Graph(), CpuDefaults());
  Query query;
  query.algorithm = AlgorithmId::kSssp;
  query.source = 0;
  auto before = engine.Run(query);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->epoch, 0u);
  const std::vector<uint32_t> old_values = before->u32();

  MutationBatch batch;
  batch.InsertEdge(0, 5, 1);  // shortcut a->f
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());

  auto after = engine.Run(query);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->epoch, 1u);
  EXPECT_EQ(before->u32(), old_values);  // untouched
  EXPECT_EQ(after->u32()[5], 1u);        // the shortcut is visible
  EXPECT_EQ(old_values[5], 6u);
}

TEST(EngineMutationTest, WriteTriggeredCompactionAtThreshold) {
  CompactionPolicy eager;
  eager.min_delta_edges = 2;
  eager.delta_fraction = 0.0;
  Engine engine(PaperFigure1Graph(), CpuDefaults(), eager);

  MutationBatch one;
  one.InsertEdge(0, 3, 1);
  auto first = engine.ApplyMutations(one);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->compacted);  // delta 1 < threshold 2
  EXPECT_EQ(first->pending_delta_edges, 1u);

  // The logical graph the second batch publishes before its fold: the
  // unchanged base plus both batches.
  DeltaOverlay unfolded(engine.Snapshot());
  ASSERT_TRUE(unfolded.Apply(one).ok());
  ASSERT_TRUE(unfolded.Apply(one).ok());
  auto before = unfolded.Materialize();
  ASSERT_TRUE(before.ok());

  auto second = engine.ApplyMutations(one);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->compacted);
  EXPECT_EQ(second->pending_delta_edges, 0u);
  EXPECT_EQ(engine.compactor_stats().folds, 1u);
  EXPECT_EQ(engine.compactor_stats().edges_folded, engine.graph().num_edges());
  EXPECT_EQ(engine.graph().num_edges(), before->num_edges());

  // The fold moved only the physical layout.
  auto after = engine.View().Materialize();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->row_offsets(), before->row_offsets());
  EXPECT_EQ(after->column_index(), before->column_index());
  EXPECT_EQ(after->edge_weights(), before->edge_weights());
}

TEST(EngineMutationTest, ReadsAndQueriesNeverTriggerAFold) {
  // Threshold far away: under the old read-triggered design the first full
  // query would fold. Now the fold is purely policy-driven — reads and
  // queries leave the overlay in place.
  CompactionPolicy lazy;
  lazy.min_delta_edges = 1 << 20;
  Engine engine(PaperFigure1Graph(), CpuDefaults(), lazy);

  MutationBatch batch;
  batch.InsertEdge(0, 3, 1);
  auto applied = engine.ApplyMutations(batch);
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied->compacted);
  EXPECT_EQ(engine.pending_delta_edges(), 1u);

  (void)engine.graph();
  (void)engine.View();
  Query query;
  query.algorithm = AlgorithmId::kSssp;
  query.source = 0;
  ASSERT_TRUE(engine.Run(query).ok());
  EXPECT_EQ(engine.compactor_stats().folds, 0u);
  EXPECT_EQ(engine.pending_delta_edges(), 1u);  // still pending
}

TEST(EngineMutationTest, ManualPolicyOnlyFoldsOnExplicitCompact) {
  CompactionPolicy manual;
  manual.mode = CompactionMode::kManual;
  manual.min_delta_edges = 0;  // would fold on every batch in threshold mode
  manual.delta_fraction = 0.0;
  Engine engine(PaperFigure1Graph(), CpuDefaults(), manual);

  MutationBatch batch;
  batch.InsertEdge(0, 3, 1);
  auto applied = engine.ApplyMutations(batch);
  ASSERT_TRUE(applied.ok());
  EXPECT_FALSE(applied->compacted);
  EXPECT_EQ(engine.compactor_stats().folds, 0u);
  EXPECT_EQ(engine.pending_delta_edges(), 1u);

  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.compactor_stats().folds, 1u);
  EXPECT_EQ(engine.pending_delta_edges(), 0u);
  EXPECT_EQ(engine.epoch(), 1u);  // compaction does not bump the epoch

  // Compact() with nothing pending is a no-op.
  ASSERT_TRUE(engine.Compact().ok());
  EXPECT_EQ(engine.compactor_stats().folds, 1u);
}

TEST(EngineMutationTest, MutationLogRetiresBeyondTheHorizon) {
  // Horizon 2: after three single-insert epochs, epoch 1's log entry is
  // retired; a warm start from epoch 0 must fall back to a full recompute
  // while newer warm starts stay incremental.
  CompactionPolicy policy;
  policy.min_delta_edges = 1 << 20;
  policy.mutation_log_horizon = 2;
  Engine engine(PaperFigure1Graph(), CpuDefaults(), policy);

  Query query;
  query.algorithm = AlgorithmId::kBfs;
  query.source = 0;
  auto at_epoch0 = engine.Run(query);
  ASSERT_TRUE(at_epoch0.ok());

  for (VertexId dst = 1; dst <= 3; ++dst) {
    MutationBatch batch;
    batch.InsertEdge(4, dst, 1);
    ASSERT_TRUE(engine.ApplyMutations(batch).ok());
  }
  ASSERT_EQ(engine.epoch(), 3u);

  // Epoch-0 previous: the epoch-1 delta was retired -> full recompute.
  auto stale = engine.RunIncremental(query, *at_epoch0);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->incremental);
  EXPECT_EQ(stale->epoch, 3u);

  // The fallback result is from the current epoch; advancing it further
  // stays incremental (all needed log entries retained).
  MutationBatch more;
  more.InsertEdge(0, 4, 1);
  ASSERT_TRUE(engine.ApplyMutations(more).ok());
  auto warm = engine.RunIncremental(query, *stale);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->incremental);
  EXPECT_EQ(warm->u32(), engine.Run(query)->u32());
}

TEST(EngineMutationTest, BatchQueriesPinTheirPlanningEpoch) {
  Engine engine(SmallRmat(8, 5, 3), CpuDefaults());
  std::vector<Query> queries;
  for (VertexId source : {0u, 1u, 2u}) {
    Query query;
    query.algorithm = AlgorithmId::kBfs;
    query.source = source;
    queries.push_back(query);
  }
  auto results = engine.RunBatch(queries);
  ASSERT_TRUE(results.ok());
  for (const QueryResult& result : *results) {
    EXPECT_EQ(result.epoch, 0u);
  }

  MutationBatch batch;
  batch.InsertEdge(0, 1, 1);
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());
  auto after = engine.RunBatch(queries);
  ASSERT_TRUE(after.ok());
  for (const QueryResult& result : *after) {
    EXPECT_EQ(result.epoch, 1u);
  }
}

TEST(EngineMutationTest, DefaultSourceTracksTheMutatedGraph) {
  // Star hub 0 dominates; after deleting all hub spokes and wiring vertex
  // 1 into a new hub, the default source must move.
  Engine engine(testing::StarGraph(5), CpuDefaults());
  EXPECT_EQ(engine.DefaultSource(), 0u);

  MutationBatch batch;
  for (VertexId v = 1; v < 5; ++v) batch.DeleteEdge(0, v);
  for (VertexId v = 2; v < 5; ++v) batch.InsertEdge(1, v, 1);
  ASSERT_TRUE(engine.ApplyMutations(batch).ok());
  EXPECT_EQ(engine.DefaultSource(), 1u);
}

}  // namespace
}  // namespace hytgraph
