#include "engine/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/programs.h"
#include "dynamic/delta_overlay.h"
#include "dynamic/mutation.h"
#include "engine/partition_state.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::ChainGraph;
using testing::PaperFigure1Graph;

TEST(KernelTest, SingleRelaxationStep) {
  const CsrGraph g = PaperFigure1Graph();
  SsspProgram program(g, 0);
  Frontier next(g.num_vertices());
  const std::vector<VertexId> actives = {0};
  const uint64_t edges = RunKernel(g, actives, program, &next);
  EXPECT_EQ(edges, 2u);  // a has 2 out-edges
  EXPECT_TRUE(next.IsActive(1));
  EXPECT_TRUE(next.IsActive(2));
  EXPECT_EQ(program.Values()[1], 2u);
  EXPECT_EQ(program.Values()[2], 6u);
}

TEST(KernelTest, NoActivationWhenValueNotImproved) {
  const CsrGraph g = PaperFigure1Graph();
  SsspProgram program(g, 0);
  Frontier next(g.num_vertices());
  const std::vector<VertexId> actives = {0};
  RunKernel(g, actives, program, &next);
  next.Clear();
  // Second identical pass: distances unchanged, nothing activates.
  RunKernel(g, actives, program, &next);
  EXPECT_TRUE(next.Empty());
}

TEST(KernelTest, SkipsVerticesWhoseBeginVertexDeclines) {
  const CsrGraph g = PaperFigure1Graph();
  SsspProgram program(g, 0);
  Frontier next(g.num_vertices());
  // Vertex 4 (e) is unreached (dist = inf): BeginVertex returns false, its
  // edges are not counted.
  const uint64_t edges =
      RunKernel(g, std::vector<VertexId>{4}, program, &next);
  EXPECT_EQ(edges, 0u);
  EXPECT_TRUE(next.Empty());
}

TEST(KernelTest, EmptyActivesIsNoop) {
  const CsrGraph g = PaperFigure1Graph();
  SsspProgram program(g, 0);
  Frontier next(g.num_vertices());
  EXPECT_EQ(RunKernel(g, std::vector<VertexId>{}, program, &next), 0u);
}

TEST(KernelTest, ParallelRelaxationMatchesSerialOnLargeFrontier) {
  const CsrGraph g = testing::SmallRmat(11, 8);
  // Process every vertex as a BFS wavefront from 0 until fixpoint; parallel
  // atomics must produce exactly the reference levels.
  BfsProgram program(g, 0);
  Frontier a(g.num_vertices());
  Frontier b(g.num_vertices());
  Frontier* cur = &a;
  Frontier* nxt = &b;
  cur->Activate(0);
  while (!cur->Empty()) {
    RunKernel(g, cur->Collect(), program, nxt);
    std::swap(cur, nxt);
    nxt->Clear();
  }
  // Spot-check: source is 0, every reached vertex's level is 1 + some
  // predecessor's level.
  const auto levels = program.Values();
  EXPECT_EQ(levels[0], 0u);
  const auto& in_degrees = g.in_degrees();
  (void)in_degrees;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (levels[v] == kUnreachable || v == 0) continue;
    EXPECT_GT(levels[v], 0u);
  }
}

TEST(KernelTest, SubCsrKernelMatchesGraphKernel) {
  const CsrGraph g = ChainGraph(20);
  const std::vector<VertexId> actives = {0, 1, 2};

  SsspProgram p1(g, 0);
  Frontier n1(g.num_vertices());
  const uint64_t e1 = RunKernel(g, actives, p1, &n1);

  SsspProgram p2(g, 0);
  Frontier n2(g.num_vertices());
  const auto compact = CompactActiveEdges(g, actives, true);
  const uint64_t e2 = RunKernelOnSubCsr(GraphView::Wrap(g), compact.sub, p2, &n2);

  EXPECT_EQ(e1, e2);
  EXPECT_EQ(p1.Values(), p2.Values());
  EXPECT_EQ(n1.Collect(), n2.Collect());
}

TEST(KernelTest, UnweightedGraphUsesWeightOne) {
  BuilderOptions opts;
  opts.weighted = false;
  auto g = BuildCsr(3, {{0, 1, 50}, {1, 2, 50}}, opts);
  ASSERT_TRUE(g.ok());
  SsspProgram program(*g, 0);
  Frontier next(g->num_vertices());
  RunKernel(*g, std::vector<VertexId>{0}, program, &next);
  EXPECT_EQ(program.Values()[1], 1u);  // weight defaulted to 1, not 50
}

TEST(PullKernelTest, OneIterationMatchesPush) {
  const CsrGraph g = PaperFigure1Graph();
  const GraphView view = GraphView::Wrap(g);

  SsspProgram push_program(view, 0);
  Frontier push_next(view);
  Frontier current(view);
  push_program.InitFrontier(&current);
  RunKernel(view, current.Collect(), push_program, &push_next);

  SsspProgram pull_program(view, 0);
  Frontier pull_current(view);
  Frontier pull_next(view);
  pull_program.InitFrontier(&pull_current);
  RunPullKernel(view, pull_current, pull_program, &pull_next);

  EXPECT_EQ(push_program.Values(), pull_program.Values());
  EXPECT_EQ(push_next.Collect(), pull_next.Collect());
}

TEST(PullKernelTest, RunsToTheSameFixpointAsPush) {
  const CsrGraph g = testing::SmallRmat(/*scale=*/8, /*edge_factor=*/6,
                                        /*seed=*/11);
  const GraphView view = GraphView::Wrap(g);

  BfsProgram push_program(view, 0);
  BfsProgram pull_program(view, 0);
  Frontier a(view), b(view), c(view), d(view);
  Frontier* push_cur = &a;
  Frontier* push_next = &b;
  Frontier* pull_cur = &c;
  Frontier* pull_next = &d;
  push_program.InitFrontier(push_cur);
  pull_program.InitFrontier(pull_cur);

  for (int iter = 0; iter < 64 && !push_cur->Empty(); ++iter) {
    RunKernel(view, push_cur->Collect(), push_program, push_next);
    std::swap(push_cur, push_next);
    push_next->Clear();
  }
  uint64_t pull_edges = 0;
  for (int iter = 0; iter < 64 && !pull_cur->Empty(); ++iter) {
    pull_edges += RunPullKernel(view, *pull_cur, pull_program, pull_next);
    std::swap(pull_cur, pull_next);
    pull_next->Clear();
  }
  EXPECT_TRUE(push_cur->Empty());
  EXPECT_TRUE(pull_cur->Empty());
  EXPECT_GT(pull_edges, 0u);
  EXPECT_EQ(push_program.Values(), pull_program.Values());
}

TEST(PullKernelTest, SettledCandidatesSkipTheirScan) {
  // Chain 0 -> 1 -> 2 -> 3: once BFS levels are final, a pull pass over a
  // frontier that can no longer improve anything scans (almost) nothing —
  // every candidate at or below the floor skips its in-neighbour walk.
  const CsrGraph g = ChainGraph(4);
  const GraphView view = GraphView::Wrap(g);
  BfsProgram program(view, 0);
  Frontier a(view), b(view);
  Frontier* current = &a;
  Frontier* next = &b;
  program.InitFrontier(current);
  while (!current->Empty()) {
    RunPullKernel(view, *current, program, next);
    std::swap(current, next);
    next->Clear();
  }
  // Re-activate the source: all levels are final (floor = level(0)+1 = 1;
  // vertices 2 and 3 sit above it but their only in-frontier parent offers
  // nothing better). No value changes, no activations.
  current->Activate(0);
  RunPullKernel(view, *current, program, next);
  EXPECT_TRUE(next->Empty());
}

TEST(PullKernelTest, PullsOverTheReverseOverlay) {
  // Base chain 0 -> 1 -> 2 -> 3 with an overlay insert 0 -> 3 and the
  // deletion of 1 -> 2: pull must see 3's new in-neighbour and not see 2's
  // deleted one.
  auto base =
      std::make_shared<const CsrGraph>(ChainGraph(4, /*w=*/2));
  auto overlay = std::make_shared<DeltaOverlay>(base);
  MutationBatch batch;
  batch.InsertEdge(0, 3, 9);
  batch.DeleteEdge(1, 2);
  ASSERT_TRUE(overlay->Apply(batch).ok());
  const GraphView view(base, overlay);

  SsspProgram program(view, 0);
  Frontier a(view), b(view);
  Frontier* current = &a;
  Frontier* next = &b;
  program.InitFrontier(current);
  while (!current->Empty()) {
    RunPullKernel(view, *current, program, next);
    std::swap(current, next);
    next->Clear();
  }
  const auto values = program.Values();
  EXPECT_EQ(values[1], 2u);            // 0 -> 1 (weight 2)
  EXPECT_EQ(values[2], kUnreachable);  // 1 -> 2 deleted
  EXPECT_EQ(values[3], 9u);            // via the inserted 0 -> 3
}

// --- Per-shard frontier accounting ---------------------------------------
// Kernel shards set bits first and publish their active and scout totals
// once per shard; after every kernel and every extra-round drain the
// frontier's O(1) counts must equal a rescan of its bitmap.

void ExpectCountsMatchBitmap(const GraphView& view, const Frontier& frontier,
                             const std::string& what) {
  EXPECT_EQ(frontier.CountActive(), frontier.Collect().size()) << what;
  EXPECT_TRUE(frontier.ScoutValid()) << what;
  EXPECT_EQ(frontier.ScoutCount(), FrontierActiveEdges(view, frontier))
      << what;
}

enum class KernelPath { kBase, kSubCsr };

/// Runs push iterations of `program` over `view`, each followed by an
/// extra-round drain of the lower half of the vertex space (restricted to
/// the iteration's actives on the sub-CSR path, as compaction tasks are)
/// and a kernel over the drained set, checking the counts after each step.
template <typename Program>
void RunCheckingCounts(const GraphView& view, Program& program,
                       KernelPath path, const std::string& name) {
  Frontier a(view), b(view);
  Frontier* current = &a;
  Frontier* next = &b;
  program.InitFrontier(current);
  // An accumulation program activates nothing until its shares are
  // folded: fold after every kernel, so the counts checked below cover
  // the fold's activations and the drain sees a real frontier.
  ShareRows shares(view.num_vertices());
  uint64_t first_fold_active = 0;
  const auto fold = [&] {
    if constexpr (Program::kHasDelta) {
      shares.Fold(view, 0, view.num_vertices(), program, next);
    }
  };
  size_t widest = 0;
  for (int iter = 0; iter < 8 && !current->Empty(); ++iter) {
    const std::string what = name + " iteration " + std::to_string(iter);
    const std::vector<VertexId> actives = current->Collect();
    widest = std::max(widest, actives.size());
    if (path == KernelPath::kSubCsr) {
      const auto compact = CompactActiveEdges(
          view, actives, Program::kNeedsWeights && view.is_weighted());
      RunKernelOnSubCsr(view, compact.sub, program, next, &shares);
    } else {
      RunKernel(view, actives, program, next, &shares);
    }
    fold();
    if (iter == 0) first_fold_active = next->CountActive();
    ExpectCountsMatchBitmap(view, *next, what + " kernel");

    std::vector<VertexId> pending;
    next->CollectRange(0, view.num_vertices() / 2, &pending);
    DrainPending(view, path == KernelPath::kSubCsr ? &actives : nullptr,
                 &pending, next);
    ExpectCountsMatchBitmap(view, *next, what + " drain");
    RunKernel(view, pending, program, next, &shares);
    fold();
    ExpectCountsMatchBitmap(view, *next, what + " extra round");

    std::swap(current, next);
    next->Clear();
  }
  // Kernels shard at 64 actives: a wider frontier ran on several shards
  // wherever the pool has more than one thread.
  EXPECT_GT(widest, 4u * 64u) << name;
  if constexpr (Program::kHasDelta) {
    // Without the fold `next` stays empty and every check above holds
    // vacuously: the first fold must activate a multi-shard frontier.
    EXPECT_GT(first_fold_active, 4u * 64u) << name;
  }
}

/// Scale-12 RMAT with an overlay that gives a third of the vertices an
/// inserted edge and a fifth a deleted one: kernels take the merged
/// delta-vertex path for those.
GraphView DeltaView(std::shared_ptr<const CsrGraph> base) {
  const VertexId n = base->num_vertices();
  MutationBatch batch;
  for (VertexId v = 0; v < n; v += 3) {
    batch.InsertEdge(v, (v * 7 + 1) % n, 1 + v % 9);
  }
  for (VertexId v = 1; v < n; v += 5) {
    const auto nbrs = base->neighbors(v);
    if (!nbrs.empty()) batch.DeleteEdge(v, nbrs[0]);
  }
  auto overlay = std::make_shared<DeltaOverlay>(base);
  HYT_CHECK(overlay->Apply(batch).ok());
  return GraphView(base, overlay);
}

TEST(KernelCountsTest, BfsCountsMatchBitmapOnEveryPath) {
  auto base = std::make_shared<const CsrGraph>(testing::SmallRmat(12));
  const GraphView plain(base);
  const GraphView delta = DeltaView(base);
  ASSERT_TRUE(delta.has_overlay());
  {
    BfsProgram program(plain, 0);
    RunCheckingCounts(plain, program, KernelPath::kBase, "bfs/base");
  }
  {
    BfsProgram program(delta, 0);
    RunCheckingCounts(delta, program, KernelPath::kBase, "bfs/delta");
  }
  {
    BfsProgram program(plain, 0);
    RunCheckingCounts(plain, program, KernelPath::kSubCsr, "bfs/sub-csr");
  }
}

TEST(KernelCountsTest, PageRankCountsMatchBitmapOnEveryPath) {
  auto base = std::make_shared<const CsrGraph>(testing::SmallRmat(12));
  const GraphView plain(base);
  const GraphView delta = DeltaView(base);
  ASSERT_TRUE(delta.has_overlay());
  {
    PageRankProgram program(plain);
    RunCheckingCounts(plain, program, KernelPath::kBase, "pr/base");
  }
  {
    PageRankProgram program(delta);
    RunCheckingCounts(delta, program, KernelPath::kBase, "pr/delta");
  }
  {
    PageRankProgram program(plain);
    RunCheckingCounts(plain, program, KernelPath::kSubCsr, "pr/sub-csr");
  }
}

TEST(KernelCountsTest, PullKernelKeepsTheScoutCountExact) {
  const CsrGraph g = testing::SmallRmat(12);
  const GraphView view = GraphView::Wrap(g);
  BfsProgram program(view, 0);
  Frontier a(view), b(view);
  Frontier* current = &a;
  Frontier* next = &b;
  program.InitFrontier(current);
  for (int iter = 0; iter < 8 && !current->Empty(); ++iter) {
    RunPullKernel(view, *current, program, next);
    ExpectCountsMatchBitmap(view, *next,
                            "pull iteration " + std::to_string(iter));
    std::swap(current, next);
    next->Clear();
  }
}

}  // namespace
}  // namespace hytgraph
