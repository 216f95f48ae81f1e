// DeltaOverlay: merged adjacency iteration (base + pending delta) must be
// indistinguishable from a CSR rebuilt from scratch after the same mutation
// sequence — exercised on hand-built cases and on random mutation
// sequences (the property test).

#include "dynamic/delta_overlay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "dynamic/snapshot_compactor.h"
#include "graph/graph_builder.h"
#include "test_graphs.h"
#include "util/random.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;
using testing::SmallRmat;

std::shared_ptr<const CsrGraph> Shared(CsrGraph graph) {
  return std::make_shared<const CsrGraph>(std::move(graph));
}

/// Adjacency of v as a sorted multiset of (dst, weight) pairs.
std::vector<std::pair<VertexId, Weight>> OverlayAdjacency(
    const DeltaOverlay& overlay, VertexId v) {
  std::vector<std::pair<VertexId, Weight>> edges;
  overlay.ForEachNeighbor(
      v, [&](VertexId dst, Weight w) { edges.emplace_back(dst, w); });
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::vector<std::pair<VertexId, Weight>> CsrAdjacency(const CsrGraph& graph,
                                                      VertexId v) {
  std::vector<std::pair<VertexId, Weight>> edges;
  const auto nbrs = graph.neighbors(v);
  const auto wts = graph.weights(v);
  for (size_t e = 0; e < nbrs.size(); ++e) {
    edges.emplace_back(nbrs[e], wts.empty() ? Weight{1} : wts[e]);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

TEST(DeltaOverlayTest, EmptyOverlayIsTransparent) {
  DeltaOverlay overlay(Shared(PaperFigure1Graph()));
  EXPECT_TRUE(overlay.empty());
  EXPECT_EQ(overlay.delta_edges(), 0u);
  EXPECT_EQ(overlay.num_edges(), overlay.base().num_edges());
  for (VertexId v = 0; v < overlay.num_vertices(); ++v) {
    EXPECT_EQ(OverlayAdjacency(overlay, v), CsrAdjacency(overlay.base(), v));
    EXPECT_EQ(overlay.out_degree(v), overlay.base().out_degree(v));
  }
}

TEST(DeltaOverlayTest, InsertAppearsInIteration) {
  DeltaOverlay overlay(Shared(PaperFigure1Graph()));
  MutationBatch batch;
  batch.InsertEdge(0, 4, 9);
  auto stats = overlay.Apply(batch);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->inserted, 1u);
  EXPECT_EQ(stats->deleted, 0u);
  EXPECT_EQ(overlay.num_edges(), overlay.base().num_edges() + 1);
  EXPECT_EQ(overlay.out_degree(0), overlay.base().out_degree(0) + 1);

  auto adjacency = OverlayAdjacency(overlay, 0);
  EXPECT_TRUE(std::find(adjacency.begin(), adjacency.end(),
                        std::make_pair(VertexId{4}, Weight{9})) !=
              adjacency.end());
}

TEST(DeltaOverlayTest, DeleteSuppressesAllParallelBaseEdges) {
  // Two parallel 0->1 edges; one delete removes both.
  auto base = BuildFromTriples(3, {{0, 1, 2}, {0, 1, 5}, {0, 2, 1}});
  ASSERT_TRUE(base.ok());
  DeltaOverlay overlay(Shared(std::move(base).value()));
  MutationBatch batch;
  batch.DeleteEdge(0, 1);
  auto stats = overlay.Apply(batch);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->deleted, 2u);
  EXPECT_EQ(overlay.num_edges(), 1u);
  EXPECT_EQ(OverlayAdjacency(overlay, 0),
            (std::vector<std::pair<VertexId, Weight>>{{2, 1}}));
}

TEST(DeltaOverlayTest, DeleteOfMissingEdgeIsRecordedNoop) {
  DeltaOverlay overlay(Shared(PaperFigure1Graph()));
  MutationBatch batch;
  batch.DeleteEdge(4, 0);  // no such edge
  auto stats = overlay.Apply(batch);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->deleted, 0u);
  EXPECT_TRUE(overlay.empty());
}

TEST(DeltaOverlayTest, OrderMattersInsertDeleteInsert) {
  DeltaOverlay overlay(Shared(PaperFigure1Graph()));
  // Base has 0->1 (weight 2). insert; delete (kills base + insert);
  // insert again: exactly one 0->1 edge, the newest.
  MutationBatch batch;
  batch.InsertEdge(0, 1, 7);
  batch.DeleteEdge(0, 1);
  batch.InsertEdge(0, 1, 9);
  auto stats = overlay.Apply(batch);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->inserted, 2u);
  EXPECT_EQ(stats->deleted, 2u);  // one base edge + one overlay insert

  auto adjacency = OverlayAdjacency(overlay, 0);
  const auto count_to_1 =
      std::count_if(adjacency.begin(), adjacency.end(),
                    [](const auto& e) { return e.first == 1; });
  EXPECT_EQ(count_to_1, 1);
  EXPECT_TRUE(std::find(adjacency.begin(), adjacency.end(),
                        std::make_pair(VertexId{1}, Weight{9})) !=
              adjacency.end());
}

TEST(DeltaOverlayTest, UnweightedBaseNormalizesInsertWeights) {
  BuilderOptions unweighted;
  unweighted.weighted = false;
  auto base = BuildFromTriples(3, {{0, 1, 1}}, unweighted);
  ASSERT_TRUE(base.ok());
  ASSERT_FALSE(base->is_weighted());
  DeltaOverlay overlay(Shared(std::move(base).value()));
  MutationBatch batch;
  batch.InsertEdge(0, 2, 9);  // weight ignored on an unweighted base
  ASSERT_TRUE(overlay.Apply(batch).ok());
  EXPECT_EQ(OverlayAdjacency(overlay, 0),
            (std::vector<std::pair<VertexId, Weight>>{{1, 1}, {2, 1}}));
  auto folded = overlay.Materialize();
  ASSERT_TRUE(folded.ok());
  EXPECT_FALSE(folded->is_weighted());
}

TEST(DeltaOverlayTest, OutOfRangeMutationIsRejectedAtomically) {
  DeltaOverlay overlay(Shared(PaperFigure1Graph()));
  MutationBatch batch;
  batch.InsertEdge(0, 1, 1);
  batch.InsertEdge(0, 99, 1);  // out of range
  EXPECT_TRUE(overlay.Apply(batch).status().IsInvalidArgument());
  // Validation precedes application: nothing landed.
  EXPECT_TRUE(overlay.empty());
}

TEST(DeltaOverlayTest, ResetReanchorsOnNewBase) {
  DeltaOverlay overlay(Shared(PaperFigure1Graph()));
  MutationBatch batch;
  batch.InsertEdge(0, 3, 4);
  ASSERT_TRUE(overlay.Apply(batch).ok());
  auto folded = overlay.Materialize();
  ASSERT_TRUE(folded.ok());
  auto new_base = Shared(std::move(folded).value());
  overlay.Reset(new_base);
  EXPECT_TRUE(overlay.empty());
  EXPECT_EQ(&overlay.base(), new_base.get());
  EXPECT_EQ(overlay.num_edges(), new_base->num_edges());
}

// ---------------------------------------------------------------------------
// Property test: random mutation sequences vs a rebuilt-from-scratch CSR.

/// Reference model: a plain edge list mutated exactly per the batch
/// semantics (delete removes all matching src->dst, insert appends).
struct EdgeListModel {
  VertexId num_vertices;
  std::vector<Edge> edges;

  void Apply(const MutationBatch& batch) {
    for (const EdgeMutation& m : batch.mutations()) {
      if (m.op == MutationOp::kInsertEdge) {
        edges.push_back({m.src, m.dst, m.weight});
      } else {
        edges.erase(std::remove_if(edges.begin(), edges.end(),
                                   [&](const Edge& e) {
                                     return e.src == m.src && e.dst == m.dst;
                                   }),
                    edges.end());
      }
    }
  }

  CsrGraph Rebuild(bool weighted) const {
    BuilderOptions opts;
    opts.weighted = weighted;
    auto result = BuildCsr(num_vertices, edges, opts);
    HYT_CHECK(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }
};

EdgeListModel ModelOf(const CsrGraph& graph) {
  EdgeListModel model;
  model.num_vertices = graph.num_vertices();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    const auto nbrs = graph.neighbors(v);
    const auto wts = graph.weights(v);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      model.edges.push_back(
          {v, nbrs[e], wts.empty() ? Weight{1} : wts[e]});
    }
  }
  return model;
}

MutationBatch RandomBatch(const EdgeListModel& model, Rng* rng, int ops) {
  MutationBatch batch;
  for (int i = 0; i < ops; ++i) {
    const bool insert = model.edges.empty() || rng->NextBool(0.6);
    if (insert) {
      batch.InsertEdge(
          static_cast<VertexId>(rng->NextBounded(model.num_vertices)),
          static_cast<VertexId>(rng->NextBounded(model.num_vertices)),
          static_cast<Weight>(1 + rng->NextBounded(16)));
    } else if (rng->NextBool(0.7)) {
      // Delete an edge that exists (most deletions should bite).
      const Edge& victim =
          model.edges[rng->NextBounded(model.edges.size())];
      batch.DeleteEdge(victim.src, victim.dst);
    } else {
      // Delete a random (likely missing) pair.
      batch.DeleteEdge(
          static_cast<VertexId>(rng->NextBounded(model.num_vertices)),
          static_cast<VertexId>(rng->NextBounded(model.num_vertices)));
    }
  }
  return batch;
}

class OverlayPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OverlayPropertyTest, MatchesRebuiltCsrUnderRandomMutations) {
  const CsrGraph base = SmallRmat(8, 4, /*seed=*/GetParam());
  const bool weighted = base.is_weighted();
  DeltaOverlay overlay(Shared(base));
  EdgeListModel model = ModelOf(base);
  Rng rng(GetParam() * 7919 + 1);

  for (int round = 0; round < 8; ++round) {
    const MutationBatch batch = RandomBatch(model, &rng, /*ops=*/24);
    model.Apply(batch);
    ASSERT_TRUE(overlay.Apply(batch).ok());

    const CsrGraph rebuilt = model.Rebuild(weighted);
    ASSERT_EQ(overlay.num_edges(), rebuilt.num_edges()) << "round " << round;
    for (VertexId v = 0; v < overlay.num_vertices(); ++v) {
      ASSERT_EQ(OverlayAdjacency(overlay, v), CsrAdjacency(rebuilt, v))
          << "round " << round << " vertex " << v;
      ASSERT_EQ(overlay.out_degree(v), rebuilt.out_degree(v));
    }

    // Materialize must agree with both the live iteration and Validate.
    auto folded = overlay.Materialize();
    ASSERT_TRUE(folded.ok());
    ASSERT_TRUE(folded->Validate().ok());
    ASSERT_EQ(folded->num_edges(), rebuilt.num_edges());
    for (VertexId v = 0; v < overlay.num_vertices(); ++v) {
      ASSERT_EQ(CsrAdjacency(*folded, v), CsrAdjacency(rebuilt, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlayPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 17u, 23u));

TEST(SnapshotCompactorTest, ThresholdCombinesFloorAndFraction) {
  CompactionPolicy policy;
  policy.min_delta_edges = 100;
  policy.delta_fraction = 0.01;
  EXPECT_EQ(policy.ThresholdFor(1000), 100u);     // floor wins
  EXPECT_EQ(policy.ThresholdFor(1000000), 10000u);  // fraction wins
}

}  // namespace
}  // namespace hytgraph
