// Unit tests of the vertex programs' per-vertex/per-edge semantics,
// independent of the solver.

#include "algorithms/programs.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "algorithms/atomic_ops.h"
#include "algorithms/reference.h"
#include "core/engine.h"
#include "engine/kernels.h"
#include "graph/graph_builder.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;

TEST(AtomicOpsTest, AtomicMinOnlyDecreases) {
  std::atomic<uint32_t> value{10};
  EXPECT_TRUE(AtomicImprove(&value, 5u, std::less<uint32_t>()));
  EXPECT_EQ(value.load(), 5u);
  EXPECT_FALSE(AtomicImprove(&value, 7u, std::less<uint32_t>()));
  EXPECT_EQ(value.load(), 5u);
  EXPECT_FALSE(AtomicImprove(&value, 5u, std::less<uint32_t>()));

  // The same loop under the opposite comparison is an atomic max.
  std::atomic<uint32_t> widest{10};
  EXPECT_TRUE(AtomicImprove(&widest, 12u, std::greater<uint32_t>()));
  EXPECT_EQ(widest.load(), 12u);
  EXPECT_FALSE(AtomicImprove(&widest, 7u, std::greater<uint32_t>()));
  EXPECT_EQ(widest.load(), 12u);
  EXPECT_FALSE(AtomicImprove(&widest, 12u, std::greater<uint32_t>()));
}

TEST(BfsProgramTest, InitialState) {
  const CsrGraph g = PaperFigure1Graph();
  BfsProgram program(g, 2);
  const auto values = program.Values();
  EXPECT_EQ(values[2], 0u);
  for (VertexId v : {0u, 1u, 3u, 4u, 5u}) EXPECT_EQ(values[v], kUnreachable);
  Frontier f(6);
  program.InitFrontier(&f);
  EXPECT_EQ(f.Collect(), (std::vector<VertexId>{2}));
}

TEST(BfsProgramTest, BeginVertexSkipsUnreached) {
  const CsrGraph g = PaperFigure1Graph();
  BfsProgram program(g, 0);
  BfsProgram::VertexContext ctx;
  EXPECT_TRUE(program.BeginVertex(0, &ctx));
  EXPECT_EQ(ctx.value, 0u);
  EXPECT_FALSE(program.BeginVertex(3, &ctx));
}

TEST(BfsProgramTest, ProcessEdgeActivatesOnImprovement) {
  const CsrGraph g = PaperFigure1Graph();
  BfsProgram program(g, 0);
  BfsProgram::VertexContext ctx{0};
  EXPECT_TRUE(program.ProcessEdge(ctx, 0, 1, 1));
  EXPECT_FALSE(program.ProcessEdge(ctx, 0, 1, 1));  // same level again
  EXPECT_EQ(program.Values()[1], 1u);
}

TEST(SsspProgramTest, RelaxUsesWeights) {
  const CsrGraph g = PaperFigure1Graph();
  SsspProgram program(g, 0);
  SsspProgram::VertexContext ctx;
  ASSERT_TRUE(program.BeginVertex(0, &ctx));
  EXPECT_TRUE(program.ProcessEdge(ctx, 0, 2, 6));
  EXPECT_EQ(program.Values()[2], 6u);
  // A better path through b->c (dist 2 + weight 3) improves it.
  SsspProgram::VertexContext ctx_b{2};
  EXPECT_TRUE(program.ProcessEdge(ctx_b, 1, 2, 3));
  EXPECT_EQ(program.Values()[2], 5u);
}

TEST(CcProgramTest, AllVerticesStartActive) {
  const CsrGraph g = PaperFigure1Graph();
  CcProgram program(g);
  Frontier f(6);
  program.InitFrontier(&f);
  EXPECT_EQ(f.CountActive(), 6u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(program.Values()[v], v);
}

TEST(CcProgramTest, LabelsOnlyDecrease) {
  const CsrGraph g = PaperFigure1Graph();
  CcProgram program(g);
  CcProgram::VertexContext ctx;
  ASSERT_TRUE(program.BeginVertex(5, &ctx));
  EXPECT_EQ(ctx.value, 5u);
  EXPECT_FALSE(program.ProcessEdge(ctx, 5, 0, 1));  // 5 > 0: no change
  CcProgram::VertexContext ctx0{0};
  EXPECT_TRUE(program.ProcessEdge(ctx0, 0, 5, 1));
  EXPECT_EQ(program.Values()[5], 0u);
}

template <typename Rule>
std::unique_ptr<SelectionProgram<Rule>> MakeSelectionProgram(
    const GraphView& view, VertexId source) {
  if constexpr (Rule::kSourceSeeded) {
    return std::make_unique<SelectionProgram<Rule>>(view, source);
  } else {
    return std::make_unique<SelectionProgram<Rule>>(view);
  }
}

// The pull hooks SelectionProgram derives from each rule, checked against
// the rule's own Candidate and Improves at every push iteration of a run:
// a potential bounds every offer its vertex makes, the iteration floor
// (BetterBound folded over the frontier's potentials) bounds every offer
// the frontier makes, and SettledAt(v, b) holds exactly when b cannot
// improve v's value.
template <typename Rule>
class SelectionPullHooksTest : public ::testing::Test {};
using SelectionRules = ::testing::Types<BfsRule, SsspRule, CcRule, SswpRule>;
TYPED_TEST_SUITE(SelectionPullHooksTest, SelectionRules);

TYPED_TEST(SelectionPullHooksTest, HooksBoundEveryOffer) {
  using Rule = TypeParam;
  using Program = SelectionProgram<Rule>;
  const CsrGraph g = testing::SmallRmat(8, 8, 21);
  ASSERT_TRUE(g.is_weighted());
  const GraphView view = GraphView::Wrap(g);
  auto program = MakeSelectionProgram<Rule>(view, 1);
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();

  Frontier frontier(view);
  program->InitFrontier(&frontier);
  std::vector<VertexId> actives;
  frontier.CollectInto(&actives);
  int iterations = 0;
  while (!actives.empty()) {
    ++iterations;
    std::vector<uint8_t> active(g.num_vertices(), 0);
    typename Program::PullBound floor = Program::WorstBound();
    for (VertexId u : actives) {
      active[u] = 1;
      floor = Program::BetterBound(floor, program->PullPotential(u));
    }
    const std::vector<uint32_t> values = program->Values();
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      const uint32_t x = values[u];
      const uint32_t potential = program->PullPotential(u);
      if (Rule::Productive(x)) {
        view.ForEachNeighbor(u, [&](VertexId /*v*/, Weight w) {
          const uint32_t offer = Rule::Candidate(x, w);
          EXPECT_FALSE(Rule::Improves(offer, potential))
              << "vertex " << u << " offers " << offer << " past potential "
              << potential;
          if (active[u]) {
            EXPECT_FALSE(Rule::Improves(offer, floor))
                << "vertex " << u << " offers " << offer << " past floor "
                << floor;
          }
        });
      }
      EXPECT_TRUE(program->SettledAt(u, Program::WorstBound()));
      for (uint32_t b : {0u, 1u, x - 1, x, x + 1, kMax, floor}) {
        EXPECT_EQ(program->SettledAt(u, b), !Rule::Improves(b, x))
            << "vertex " << u << " value " << x << " bound " << b;
      }
    }
    frontier.Clear();
    RunKernel(view, actives, *program, &frontier);
    frontier.CollectInto(&actives);
  }
  EXPECT_GT(iterations, 1);

  if constexpr (std::is_same_v<Rule, SsspRule>) {
    // dist + min_w past the top of the range saturates at kUnreachable: a
    // wrapped sum would be a small, far-too-good potential.
    auto chain = BuildFromTriples(3, {{0, 1, kMax - 5}, {1, 2, 10}});
    ASSERT_TRUE(chain.ok());
    SsspProgram sssp(*chain, 0);
    SsspProgram::VertexContext ctx;
    ASSERT_TRUE(sssp.BeginVertex(0, &ctx));
    ASSERT_TRUE(sssp.ProcessEdge(ctx, 0, 1, kMax - 5));
    EXPECT_EQ(sssp.PullPotential(0), kMax - 5);
    EXPECT_EQ(sssp.PullPotential(1), kUnreachable);
    EXPECT_EQ(sssp.PullPotential(2), kUnreachable);  // unreached
    // The offer over 1 -> 2 saturates too: a wrapped one (4) would be a
    // push-only improvement that pull's floor calls settled.
    EXPECT_EQ(Rule::Candidate(kMax - 5, 10), kUnreachable);
    const std::vector<uint32_t> reference = ReferenceSssp(*chain, 0);
    Engine engine(std::move(*chain));
    Query query;
    query.algorithm = AlgorithmId::kSssp;
    query.source = 0;
    std::vector<std::vector<uint32_t>> runs;
    for (TraversalDirection direction :
         {TraversalDirection::kPush, TraversalDirection::kPull,
          TraversalDirection::kAuto}) {
      SolverOptions options = SolverOptions::Defaults(SystemKind::kHyTGraph);
      options.direction = direction;
      auto result = engine.Run(query, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      runs.push_back(result->u32());
    }
    EXPECT_EQ(runs[0], (std::vector<uint32_t>{0, kMax - 5, kUnreachable}));
    EXPECT_EQ(reference, runs[0]);
    EXPECT_EQ(runs[1], runs[0]);
    EXPECT_EQ(runs[2], runs[0]);
  }
}

TEST(PageRankProgramTest, InitialDeltaIsOneMinusDamping) {
  const CsrGraph g = PaperFigure1Graph();
  PageRankProgram program(g);
  for (VertexId v = 0; v < 6; ++v) {
    EXPECT_DOUBLE_EQ(program.DeltaOf(v), 0.15);
  }
  Frontier f(6);
  program.InitFrontier(&f);
  EXPECT_EQ(f.CountActive(), 6u);
}

TEST(PageRankProgramTest, BeginVertexConsumesDelta) {
  const CsrGraph g = PaperFigure1Graph();
  PageRankProgram program(g);
  PageRankProgram::VertexContext ctx;
  ASSERT_TRUE(program.BeginVertex(0, &ctx));
  // damping * delta / out_degree = 0.85 * 0.15 / 2.
  EXPECT_DOUBLE_EQ(ctx.contribution, 0.85 * 0.15 / 2);
  EXPECT_DOUBLE_EQ(program.DeltaOf(0), 0.0);
  // Second visit with no new delta: skipped.
  EXPECT_FALSE(program.BeginVertex(0, &ctx));
}

TEST(PageRankProgramTest, BeginVertexConsumesTheShardsOwnShare) {
  const CsrGraph g = PaperFigure1Graph();
  PageRankProgram program(g);
  PageRankProgram::VertexContext ctx;
  ASSERT_TRUE(program.BeginVertex(0, &ctx, /*own_share=*/0.05));
  EXPECT_DOUBLE_EQ(ctx.contribution, 0.85 * (0.15 + 0.05) / 2);
  EXPECT_DOUBLE_EQ(program.DeltaOf(0), 0.0);
  EXPECT_DOUBLE_EQ(program.Values()[0], 0.15 + 0.05);  // consumed into rank
  // An own share alone is pending mass too.
  EXPECT_TRUE(program.BeginVertex(0, &ctx, 0.02));
  EXPECT_DOUBLE_EQ(ctx.contribution, 0.85 * 0.02 / 2);
}

TEST(PageRankProgramTest, ApplyActivatesAboveEpsilon) {
  const CsrGraph g = PaperFigure1Graph();
  PageRankOptions opts;
  opts.epsilon = 0.01;
  PageRankProgram program(g, opts);
  // Drain 1's delta first so accumulation starts from zero.
  PageRankProgram::VertexContext drain;
  program.BeginVertex(1, &drain);
  PageRankProgram::VertexContext ctx{0.004};
  const double share = program.Share(ctx, 1, 1);
  EXPECT_DOUBLE_EQ(share, 0.004);  // the contribution, whatever the target
  EXPECT_FALSE(program.Apply(1, share));  // 0.004 < eps
  EXPECT_FALSE(program.Apply(1, share));  // 0.008 < eps
  EXPECT_TRUE(program.Apply(1, share));   // 0.012 >= eps
  EXPECT_DOUBLE_EQ(program.DeltaOf(1), 0.012);

  // A warm start's residual may be negative (mass a deletion withdrew):
  // its magnitude activates too.
  const GraphView view = GraphView::Wrap(g);
  PageRankProgram warm(view, std::vector<double>(6, 1.0),
                       std::vector<double>(6, 0.0), opts);
  EXPECT_FALSE(warm.Apply(2, -0.5 * opts.epsilon));
  EXPECT_TRUE(warm.Apply(3, -2 * opts.epsilon));
  EXPECT_DOUBLE_EQ(warm.DeltaOf(3), -2 * opts.epsilon);
}

TEST(PageRankProgramTest, WarmStartActivatesPendingResidualOnly) {
  const CsrGraph g = PaperFigure1Graph();
  const GraphView view = GraphView::Wrap(g);
  const std::vector<double> previous = {0.1, 1.0 / 3, 2.5, 0.7, 1e-9, 4.2};
  PageRankOptions opts;
  opts.epsilon = 0.01;

  PageRankProgram settled(view, previous, std::vector<double>(6, 0.0), opts);
  Frontier none(6);
  settled.InitFrontier(&none);
  EXPECT_TRUE(none.Empty());
  EXPECT_EQ(settled.Values(), previous);  // bitwise

  PageRankProgram warm(view, previous, {0.0, 0.02, -0.02, 0.005, -0.005, 0.0},
                       opts);
  Frontier pending(6);
  warm.InitFrontier(&pending);
  EXPECT_EQ(pending.Collect(), (std::vector<VertexId>{1, 2}));
}

TEST(PageRankProgramTest, ValuesIncludePendingDeltas) {
  const CsrGraph g = PaperFigure1Graph();
  PageRankProgram program(g);
  // Before any processing: rank 0 + pending 0.15 everywhere.
  for (double v : program.Values()) EXPECT_DOUBLE_EQ(v, 0.15);
}

TEST(PhpProgramTest, SourceSeededWithUnitMass) {
  const CsrGraph g = PaperFigure1Graph();
  PhpProgram program(g, 0);
  EXPECT_DOUBLE_EQ(program.DeltaOf(0), 1.0);
  EXPECT_DOUBLE_EQ(program.DeltaOf(1), 0.0);
}

TEST(PhpProgramTest, MassEnteringSourceIsDiscarded) {
  const CsrGraph g = PaperFigure1Graph();
  PhpProgram program(g, 0);
  PhpProgram::VertexContext ctx{0.5};
  EXPECT_EQ(program.Share(ctx, 0, 3), 0.0);         // edge into source
  EXPECT_DOUBLE_EQ(program.Share(ctx, 1, 3), 1.5);  // any other target
  EXPECT_DOUBLE_EQ(program.DeltaOf(0), 1.0);        // unchanged
}

TEST(PhpProgramTest, ApplyActivatesAboveEpsilon) {
  const CsrGraph g = PaperFigure1Graph();
  PhpOptions opts;
  opts.epsilon = 0.01;
  PhpProgram cold(g, 0, opts);
  EXPECT_FALSE(cold.Apply(1, 0.004));  // 0.004 < eps
  EXPECT_TRUE(cold.Apply(1, 0.008));   // 0.012 >= eps

  const GraphView view = GraphView::Wrap(g);
  PhpProgram warm(view, 0, std::vector<double>(6, 1.0),
                  std::vector<double>(6, 0.0), opts);
  EXPECT_FALSE(warm.Apply(2, -0.5 * opts.epsilon));
  EXPECT_TRUE(warm.Apply(3, -2 * opts.epsilon));
  EXPECT_DOUBLE_EQ(warm.DeltaOf(3), -2 * opts.epsilon);
}

TEST(PhpProgramTest, WarmStartActivatesPendingResidualOnly) {
  const CsrGraph g = PaperFigure1Graph();
  const GraphView view = GraphView::Wrap(g);
  const std::vector<double> previous = {1.0, 0.3, 1.0 / 3, 0.05, 1e-9, 0.2};

  PhpProgram settled(view, 0, previous, std::vector<double>(6, 0.0));
  Frontier none(6);
  settled.InitFrontier(&none);
  EXPECT_TRUE(none.Empty());
  EXPECT_EQ(settled.Values(), previous);  // bitwise

  // Unlike a cold start, the source need not be active.
  PhpProgram warm(view, 0, previous, {0.0, 0.0, 0.0, -1e-3, 0.0, 1e-7});
  Frontier pending(6);
  warm.InitFrontier(&pending);
  EXPECT_EQ(pending.Collect(), (std::vector<VertexId>{3}));
}

TEST(PhpProgramTest, PropagationWeightNormalized) {
  const CsrGraph g = PaperFigure1Graph();
  PhpProgram program(g, 0);
  PhpProgram::VertexContext ctx;
  ASSERT_TRUE(program.BeginVertex(0, &ctx));
  // a's out-weights: 2 (to b) + 6 (to c) = 8; scaled = 0.8 * 1.0 / 8 = 0.1.
  EXPECT_DOUBLE_EQ(ctx.scaled_delta, 0.1);
  EXPECT_TRUE(program.Apply(1, program.Share(ctx, 1, 2)));
  EXPECT_DOUBLE_EQ(program.DeltaOf(1), 0.2);  // 0.1 * weight 2
}

}  // namespace
}  // namespace hytgraph
