// Unit tests of the vertex programs' per-vertex/per-edge semantics,
// independent of the solver.

#include "algorithms/programs.h"

#include <gtest/gtest.h>

#include "algorithms/atomic_ops.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;

TEST(AtomicOpsTest, AtomicMinOnlyDecreases) {
  std::atomic<uint32_t> value{10};
  EXPECT_TRUE(AtomicMin(&value, 5u));
  EXPECT_EQ(value.load(), 5u);
  EXPECT_FALSE(AtomicMin(&value, 7u));
  EXPECT_EQ(value.load(), 5u);
  EXPECT_FALSE(AtomicMin(&value, 5u));
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
  EXPECT_EQ(ctx.level, 0u);
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
  EXPECT_EQ(ctx.label, 5u);
  EXPECT_FALSE(program.ProcessEdge(ctx, 5, 0, 1));  // 5 > 0: no change
  CcProgram::VertexContext ctx0{0};
  EXPECT_TRUE(program.ProcessEdge(ctx0, 0, 5, 1));
  EXPECT_EQ(program.Values()[5], 0u);
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
