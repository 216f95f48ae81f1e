// The high-level runner API: PreparedGraph preparation/mapping semantics,
// hub-sort transparency, and the Algorithm dispatch used by benches.

#include "algorithms/runner.h"

#include <gtest/gtest.h>

#include <variant>
#include <vector>

#include "algorithms/reference.h"
#include "core/engine.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::PaperFigure1Graph;
using testing::SmallRmat;

TEST(PreparedGraphTest, HyTGraphWithCdsReorders) {
  const CsrGraph g = SmallRmat(9, 6);
  SolverOptions opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  auto prepared = PreparedGraph::Make(g, opts);
  ASSERT_TRUE(prepared.ok());
  EXPECT_TRUE(prepared->reordered());
  EXPECT_EQ(prepared->view().num_edges(), g.num_edges());
}

TEST(PreparedGraphTest, BaselinesDoNotReorder) {
  const CsrGraph g = SmallRmat(9, 6);
  for (SystemKind system : {SystemKind::kEmogi, SystemKind::kSubway,
                            SystemKind::kExpFilter, SystemKind::kCpu}) {
    auto prepared =
        PreparedGraph::Make(g, SolverOptions::Defaults(system));
    ASSERT_TRUE(prepared.ok());
    EXPECT_FALSE(prepared->reordered()) << SystemKindName(system);
    EXPECT_EQ(&prepared->view().base(), &g);  // zero-copy reference
  }
}

TEST(PreparedGraphTest, CdsDisabledSkipsReorder) {
  const CsrGraph g = SmallRmat(9, 6);
  SolverOptions opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  opts.enable_contribution_scheduling = false;
  auto prepared = PreparedGraph::Make(g, opts);
  ASSERT_TRUE(prepared.ok());
  EXPECT_FALSE(prepared->reordered());
}

TEST(PreparedGraphTest, MapSourceAndBackAreConsistent) {
  const CsrGraph g = SmallRmat(9, 6);
  SolverOptions opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  auto prepared = PreparedGraph::Make(g, opts);
  ASSERT_TRUE(prepared.ok());
  for (VertexId v = 0; v < g.num_vertices(); v += 37) {
    EXPECT_EQ(prepared->MapVertexBack(prepared->MapSource(v)), v);
  }
}

TEST(PreparedGraphTest, MapValuesBackInvertsRelabeling) {
  const CsrGraph g = SmallRmat(8, 4);
  SolverOptions opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  auto prepared = PreparedGraph::Make(g, opts);
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->reordered());
  // Value of solver-vertex i := i; mapping back must place new-id i at
  // original position new_to_old[i], i.e. values_back[v] == MapSource(v).
  std::vector<uint32_t> solver_values(g.num_vertices());
  for (VertexId i = 0; i < g.num_vertices(); ++i) solver_values[i] = i;
  const auto back = prepared->MapValuesBack(std::move(solver_values));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(back[v], prepared->MapSource(v));
  }
}

TEST(RunnerTest, HubSortIsInvisibleInResults) {
  // The same SSSP through a reordering preparation and through a
  // non-reordering baseline must agree exactly (both equal the reference).
  const CsrGraph g = SmallRmat(9, 8, 13);
  const VertexId source = 5;
  const SolverOptions hyt_opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  const SolverOptions emogi_opts = SolverOptions::Defaults(SystemKind::kEmogi);
  auto hyt_prepared = PreparedGraph::Make(g, hyt_opts);
  auto emogi_prepared = PreparedGraph::Make(g, emogi_opts);
  ASSERT_TRUE(hyt_prepared.ok());
  ASSERT_TRUE(emogi_prepared.ok());
  ASSERT_TRUE(hyt_prepared->reordered());
  auto hyt = RunAlgorithmOn(*hyt_prepared, AlgorithmId::kSssp, source, {},
                            hyt_opts);
  auto emogi = RunAlgorithmOn(*emogi_prepared, AlgorithmId::kSssp, source, {},
                              emogi_opts);
  ASSERT_TRUE(hyt.ok());
  ASSERT_TRUE(emogi.ok());
  EXPECT_EQ(hyt->values, emogi->values);
  EXPECT_EQ(std::get<std::vector<uint32_t>>(hyt->values),
            ReferenceSssp(g, source));
}

TEST(RunnerTest, CcReturnsNaturalIdLabels) {
  Engine engine(testing::TwoCyclesGraph(12),
                SolverOptions::Defaults(SystemKind::kHyTGraph));
  auto out = engine.Run({.algorithm = AlgorithmId::kCc});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->u32(), ReferenceCc(engine.graph()));
  // Labels are representatives: each label is a member of its component.
  const std::vector<uint32_t>& labels = out->u32();
  for (VertexId v = 0; v < engine.graph().num_vertices(); ++v) {
    EXPECT_EQ(labels[labels[v]], labels[v]);
  }
}

TEST(RunnerTest, AlgorithmNamesStable) {
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kPageRank), "PR");
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kSssp), "SSSP");
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kCc), "CC");
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kBfs), "BFS");
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kPhp), "PHP");
  EXPECT_STREQ(AlgorithmName(AlgorithmId::kSswp), "SSWP");
}

TEST(RunnerTest, RunAlgorithmTraceDispatchesAllSix) {
  const CsrGraph g = PaperFigure1Graph();
  const SolverOptions opts = SolverOptions::Defaults(SystemKind::kEmogi);
  for (AlgorithmId algorithm : kAllAlgorithms) {
    auto trace = RunAlgorithmTrace(g, algorithm, 0, opts);
    ASSERT_TRUE(trace.ok()) << AlgorithmName(algorithm);
    EXPECT_TRUE(trace->converged);
    EXPECT_GT(trace->NumIterations(), 0u);
  }
}

TEST(RunnerTest, ErrorsPropagateThroughRunners) {
  const CsrGraph g = PaperFigure1Graph();
  SolverOptions opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  opts.device_memory_override = 1;  // nothing fits
  auto prepared = PreparedGraph::Make(g, opts);
  ASSERT_TRUE(prepared.ok());  // preparation is host-side, it must succeed
  for (AlgorithmId id :
       {AlgorithmId::kBfs, AlgorithmId::kPageRank, AlgorithmId::kSswp}) {
    EXPECT_TRUE(RunAlgorithmOn(*prepared, id, 0, {}, opts)
                    .status()
                    .IsOutOfMemory());
  }
}

TEST(RunnerTest, ReusedPreparedGraphMatchesEngineRun) {
  CsrGraph g = SmallRmat(8, 6, 3);
  const SolverOptions opts = SolverOptions::Defaults(SystemKind::kHyTGraph);
  auto prepared = PreparedGraph::Make(g, opts);
  ASSERT_TRUE(prepared.ok());
  auto via_prepared =
      RunAlgorithmOn(*prepared, AlgorithmId::kBfs, 2, {}, opts);
  ASSERT_TRUE(via_prepared.ok());
  Engine engine(std::move(g), opts);
  auto via_engine = engine.Run({.algorithm = AlgorithmId::kBfs, .source = 2});
  ASSERT_TRUE(via_engine.ok());
  EXPECT_EQ(std::get<std::vector<uint32_t>>(via_prepared->values),
            via_engine->u32());
}

}  // namespace
}  // namespace hytgraph
