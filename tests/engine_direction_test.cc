// Direction-optimizing traversal: push-only, forced-pull, and auto (hybrid)
// execution must produce identical values for every algorithm — on the
// static fixtures, on R-MAT, and on mutated views (pull over the reverse
// overlay vs the folded-CSR reference). PR/PHP are pinned to push, so a
// pull/auto request degrades to the paper's push pipeline for them. The
// incremental scout count that feeds auto's push -> pull decision is
// checked for exactness at kernel level by KernelCountsTest.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/engine.h"
#include "dynamic/mutation.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::ChainGraph;
using testing::PaperFigure1Graph;
using testing::SmallRmat;
using testing::StarGraph;
using testing::TwoCyclesGraph;

SolverOptions WithDirection(TraversalDirection direction) {
  SolverOptions options = SolverOptions::Defaults(SystemKind::kHyTGraph);
  options.direction = direction;
  return options;
}

void ExpectSameValues(const QueryResult& a, const QueryResult& b,
                      const std::string& what) {
  ASSERT_EQ(a.is_f64(), b.is_f64()) << what;
  if (a.is_f64()) {
    // The accumulation family always runs push, but parallel double adds
    // reorder between runs (and sub-epsilon residual mass lands slightly
    // differently) — compare within the tolerance bench_view_overhead
    // established for cross-run PR/PHP values.
    ASSERT_EQ(a.f64().size(), b.f64().size()) << what;
    for (size_t v = 0; v < a.f64().size(); ++v) {
      EXPECT_NEAR(a.f64()[v], b.f64()[v], 1e-4) << what << " vertex " << v;
    }
  } else {
    // Value-selection fixpoints are schedule-independent: bitwise equal.
    EXPECT_EQ(a.u32(), b.u32()) << what;
  }
}

MutationBatch MixedBatch(const CsrGraph& base, uint64_t inserts,
                         uint64_t deletes, uint64_t seed) {
  MutationBatch batch;
  const VertexId n = base.num_vertices();
  uint64_t state = seed;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (uint64_t i = 0; i < deletes; ++i) {
    const VertexId src = static_cast<VertexId>(next() % n);
    const auto nbrs = base.neighbors(src);
    if (nbrs.empty()) continue;
    batch.DeleteEdge(src, nbrs[next() % nbrs.size()]);
  }
  for (uint64_t i = 0; i < inserts; ++i) {
    batch.InsertEdge(static_cast<VertexId>(next() % n),
                     static_cast<VertexId>(next() % n),
                     static_cast<Weight>(1 + next() % 32));
  }
  return batch;
}

/// Runs every algorithm on `engine` under push, pull, and auto, expecting
/// identical values. Optionally cross-checks the push values against a
/// second engine (the folded-CSR reference for mutated views).
void ExpectDirectionsAgree(Engine& engine, const std::string& graph_name,
                           Engine* reference = nullptr) {
  for (AlgorithmId algorithm : kAllAlgorithms) {
    Query query;
    query.algorithm = algorithm;
    const std::string what =
        graph_name + "/" + AlgorithmName(algorithm);

    auto push = engine.Run(query, WithDirection(TraversalDirection::kPush));
    ASSERT_TRUE(push.ok()) << what << ": " << push.status().ToString();
    auto pull = engine.Run(query, WithDirection(TraversalDirection::kPull));
    ASSERT_TRUE(pull.ok()) << what << ": " << pull.status().ToString();
    auto hybrid = engine.Run(query, WithDirection(TraversalDirection::kAuto));
    ASSERT_TRUE(hybrid.ok()) << what << ": " << hybrid.status().ToString();

    ExpectSameValues(*push, *pull, what + " push-vs-pull");
    ExpectSameValues(*push, *hybrid, what + " push-vs-auto");

    if (reference != nullptr) {
      Query ref_query = query;
      ref_query.source = push->source;  // pin the same source across engines
      auto folded =
          reference->Run(ref_query, WithDirection(TraversalDirection::kPush));
      ASSERT_TRUE(folded.ok()) << what << ": " << folded.status().ToString();
      ExpectSameValues(*push, *folded, what + " view-vs-folded");
    }
  }
}

TEST(EngineDirectionTest, AllDirectionsAgreeOnFixtures) {
  struct Fixture {
    const char* name;
    CsrGraph graph;
  };
  Fixture fixtures[] = {
      {"paper-fig1", PaperFigure1Graph()},
      {"chain", ChainGraph(64)},
      {"star", StarGraph(64)},
      {"two-cycles", TwoCyclesGraph(32)},
  };
  for (Fixture& fixture : fixtures) {
    Engine engine(std::move(fixture.graph));
    ExpectDirectionsAgree(engine, fixture.name);
  }
}

TEST(EngineDirectionTest, AllDirectionsAgreeOnRmat) {
  Engine engine(SmallRmat(/*scale=*/10, /*edge_factor=*/8, /*seed=*/17));
  ExpectDirectionsAgree(engine, "rmat-10");
}

TEST(EngineDirectionTest, AllDirectionsAgreeOnMutatedView) {
  CompactionPolicy manual;
  manual.mode = CompactionMode::kManual;  // keep the delta pending: pull
                                          // must run over the reverse
                                          // overlay, not a folded CSR
  Engine engine(SmallRmat(/*scale=*/9, /*edge_factor=*/8, /*seed=*/13),
                SolverOptions::Defaults(SystemKind::kHyTGraph), manual);
  auto applied =
      engine.ApplyMutations(MixedBatch(engine.graph(), 500, 250, 4242));
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_GT(engine.pending_delta_edges(), 0u);

  // Folded reference engine: the same logical graph as a standalone CSR.
  auto folded = engine.View().Materialize();
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  Engine reference(std::move(folded).value());

  ExpectDirectionsAgree(engine, "rmat-9+delta", &reference);
  EXPECT_GT(engine.pending_delta_edges(), 0u);  // still zero folds
}

TEST(EngineDirectionTest, TraceRecordsChosenDirections) {
  Engine engine(SmallRmat(/*scale=*/10, /*edge_factor=*/8, /*seed=*/23));
  Query bfs;
  bfs.algorithm = AlgorithmId::kBfs;

  auto push = engine.Run(bfs, WithDirection(TraversalDirection::kPush));
  ASSERT_TRUE(push.ok());
  EXPECT_EQ(push->trace.PullIterations(), 0u);

  auto pull = engine.Run(bfs, WithDirection(TraversalDirection::kPull));
  ASSERT_TRUE(pull.ok());
  EXPECT_EQ(pull->trace.PullIterations(), pull->trace.NumIterations());
  for (const IterationTrace& it : pull->trace.iterations) {
    EXPECT_EQ(it.direction, TraversalDirection::kPull);
  }

  // BFS on R-MAT has a dense middle: auto must use both directions.
  auto hybrid = engine.Run(bfs, WithDirection(TraversalDirection::kAuto));
  ASSERT_TRUE(hybrid.ok());
  EXPECT_GT(hybrid->trace.PullIterations(), 0u);
  EXPECT_LT(hybrid->trace.PullIterations(), hybrid->trace.NumIterations());

  // The point of the exercise: hybrid relaxes measurably fewer edges.
  EXPECT_LT(hybrid->trace.TotalKernelEdges(), push->trace.TotalKernelEdges());
}

TEST(EngineDirectionTest, AccumulationFamilyStaysPush) {
  Engine engine(SmallRmat(/*scale=*/9, /*edge_factor=*/6, /*seed=*/29));
  for (AlgorithmId algorithm : {AlgorithmId::kPageRank, AlgorithmId::kPhp}) {
    Query query;
    query.algorithm = algorithm;
    auto result = engine.Run(query, WithDirection(TraversalDirection::kAuto));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->trace.PullIterations(), 0u)
        << AlgorithmName(algorithm) << " must stay pinned to push";
  }
}

TEST(EngineDirectionTest, DirectionKnobsValidated) {
  SolverOptions options = WithDirection(TraversalDirection::kAuto);
  options.direction_alpha = 0;
  EXPECT_FALSE(options.Validate().ok());
  options.direction_alpha = 14;
  options.direction_beta = -1;
  EXPECT_FALSE(options.Validate().ok());
  options.direction_beta = 24;
  EXPECT_TRUE(options.Validate().ok());

  EXPECT_TRUE(ParseTraversalDirection("auto").ok());
  EXPECT_TRUE(ParseTraversalDirection("push").ok());
  EXPECT_TRUE(ParseTraversalDirection("pull").ok());
  EXPECT_FALSE(ParseTraversalDirection("sideways").ok());
  EXPECT_STREQ(TraversalDirectionName(TraversalDirection::kPull), "pull");
}

}  // namespace
}  // namespace hytgraph
