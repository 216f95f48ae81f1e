// Writing your own algorithm: the solver runs any type satisfying the
// vertex-program concept (algorithms/programs.h). This example implements
// *hop-bounded influence spread* — from a seed set, how many vertices are
// reachable within k hops — as a from-scratch program, then runs it under
// HyTGraph and two baselines.
//
// The program concept (the members the solver calls, and which of them a
// value-selection or an accumulation program needs) is written out in the
// header of algorithms/programs.h. A built-in selection algorithm would be
// a rule for SelectionProgram there; this one is written out in full to
// show the concept itself.

#include <cstdio>
#include <cstdlib>
#include <functional>

#include "algorithms/atomic_ops.h"
#include "core/solver.h"
#include "graph/rmat_generator.h"
#include "util/string_util.h"

using namespace hytgraph;

namespace {

/// Hop-bounded multi-source BFS: value = hops from the nearest seed,
/// propagation stops at `max_hops`.
class InfluenceSpreadProgram {
 public:
  using Value = uint32_t;
  static constexpr bool kNeedsWeights = false;
  static constexpr bool kHasDelta = false;
  static constexpr const char* kName = "InfluenceSpread";
  static constexpr uint32_t kUnreached = ~0u;

  InfluenceSpreadProgram(const CsrGraph& graph,
                         std::vector<VertexId> seeds, uint32_t max_hops)
      : seeds_(std::move(seeds)),
        max_hops_(max_hops),
        hops_(graph.num_vertices()) {
    for (auto& h : hops_) h.store(kUnreached, std::memory_order_relaxed);
    for (VertexId seed : seeds_) {
      hops_[seed].store(0, std::memory_order_relaxed);
    }
  }

  void InitFrontier(Frontier* frontier) {
    for (VertexId seed : seeds_) frontier->Activate(seed);
  }

  struct VertexContext {
    uint32_t hops;
  };

  bool BeginVertex(VertexId u, VertexContext* ctx) {
    ctx->hops = hops_[u].load(std::memory_order_relaxed);
    // The hop bound is the only difference from BFS: frontier vertices at
    // the bound absorb activation but never propagate.
    return ctx->hops != kUnreached && ctx->hops < max_hops_;
  }

  bool ProcessEdge(const VertexContext& ctx, VertexId /*u*/, VertexId v,
                   Weight /*w*/) {
    return AtomicImprove(&hops_[v], ctx.hops + 1, std::less<uint32_t>());
  }

  std::vector<uint32_t> Values() const {
    std::vector<uint32_t> out(hops_.size());
    for (size_t i = 0; i < hops_.size(); ++i) {
      out[i] = hops_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::vector<VertexId> seeds_;
  uint32_t max_hops_;
  std::vector<std::atomic<uint32_t>> hops_;
};

}  // namespace

int main(int argc, char** argv) {
  const uint32_t scale = argc > 1 ? std::atoi(argv[1]) : 15;
  const uint32_t max_hops = argc > 2 ? std::atoi(argv[2]) : 3;

  RmatOptions gen;
  gen.scale = scale;
  gen.edge_factor = 16;
  gen.symmetrize = true;
  gen.seed = 7;
  CsrGraph graph = GenerateRmat(gen).value();

  // Seeds: the 8 highest-degree vertices (a typical influence-max heuristic).
  std::vector<VertexId> seeds;
  for (int k = 0; k < 8; ++k) {
    VertexId best = kInvalidVertex;
    for (VertexId v = 0; v < graph.num_vertices(); ++v) {
      if (std::find(seeds.begin(), seeds.end(), v) != seeds.end()) continue;
      if (best == kInvalidVertex ||
          graph.out_degree(v) > graph.out_degree(best)) {
        best = v;
      }
    }
    seeds.push_back(best);
  }

  std::printf("Influence spread within %u hops of %zu seeds on a %u-vertex "
              "network:\n\n",
              max_hops, seeds.size(), graph.num_vertices());

  TablePrinter table(
      {"system", "reached", "iterations", "sim time", "transferred"});
  for (SystemKind system :
       {SystemKind::kHyTGraph, SystemKind::kEmogi, SystemKind::kSubway}) {
    SolverOptions options = SolverOptions::Defaults(system);
    options.device_memory_override = graph.EdgeDataBytes() / 2;

    // Custom programs use the Solver directly; the built-in algorithms
    // wrap this same pattern behind the Engine/Query facade (core/engine.h)
    // via the registry in algorithms/registry.h — add an entry there to
    // make a new program queryable/batchable through the Engine.
    Solver<InfluenceSpreadProgram> solver(graph, options);
    if (Status s = solver.Init(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    InfluenceSpreadProgram program(graph, seeds, max_hops);
    auto trace = solver.Run(&program);
    if (!trace.ok()) {
      std::fprintf(stderr, "%s\n", trace.status().ToString().c_str());
      return 1;
    }
    uint64_t reached = 0;
    for (uint32_t h : program.Values()) {
      if (h != InfluenceSpreadProgram::kUnreached) ++reached;
    }
    table.AddRow({SystemKindName(system),
                  FormatDouble(100.0 * reached / graph.num_vertices(), 1) +
                      "%",
                  std::to_string(trace->NumIterations()),
                  FormatDouble(trace->total_sim_seconds * 1e3, 3) + " ms",
                  HumanBytes(trace->TotalTransferredBytes())});
  }
  table.Print();
  std::printf(
      "\nNote the iteration counts: the hop bound caps synchronous systems\n"
      "at max_hops+1 iterations, while Subway's in-memory rounds and\n"
      "HyTGraph's extra round squeeze several hops out of each transfer.\n");
  return 0;
}
