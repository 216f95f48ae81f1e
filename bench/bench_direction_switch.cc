// Direction-optimizing traversal: per-iteration push vs pull vs hybrid on
// R-MAT — edges processed, direction chosen, and wall time — quantifying
// the classic Beamer-style win the hybrid loop buys on dense frontiers.
//
// Runs BFS, CC, and SSSP at two R-MAT scales, each under push-only,
// pull-only, and auto (hybrid). extra_rounds is pinned to 0 so directions
// walk (near-)identical per-iteration frontiers — pull has no async-local-
// round analogue; mid-iteration value races can still nudge trajectories
// slightly (both converge to the same fixpoint), so the per-iteration
// ratio column is indicative while the totals are the hard metric. Note
// the edge units differ by design: push counts relaxed out-edges, pull
// counts scanned in-edges (membership misses included) — the honest work
// unit of each direction. Self-verifies:
//
//  * values identical across the three directions (and, after a mutation
//    batch, across live-view vs folded-CSR execution);
//  * hybrid BFS processes fewer total edges than push-only, with >= 2x
//    reduction on at least one dense (pull-chosen) iteration at the
//    largest scale.
//
// Exits nonzero on any violation. Emits BENCH_direction.json with the
// per-run totals. Smoke mode for CI: HYT_BENCH_SCALE_DELTA shrinks the
// RMAT scale (18 - delta, floor 8).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "dynamic/mutation.h"
#include "graph/rmat_generator.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace hytgraph;

namespace {

constexpr AlgorithmId kAlgorithms[] = {AlgorithmId::kBfs, AlgorithmId::kCc,
                                       AlgorithmId::kSssp};

constexpr TraversalDirection kDirections[] = {TraversalDirection::kPush,
                                              TraversalDirection::kPull,
                                              TraversalDirection::kAuto};

struct DirectionRun {
  QueryResult result;
  double wall_seconds = 0;
};

struct JsonRow {
  uint32_t scale = 0;
  std::string algorithm;
  std::string direction;
  uint64_t kernel_edges = 0;
  uint64_t iterations = 0;
  uint64_t pull_iterations = 0;
  double wall_ms = 0;
};

SolverOptions DirectionOptions(TraversalDirection direction) {
  SolverOptions options = SolverOptions::Defaults(SystemKind::kHyTGraph);
  // Pull has no async-local-round analogue: extra rounds would let push
  // iterations consume re-activations early and the per-iteration frontiers
  // (and edge counts) would no longer align across directions.
  options.extra_rounds = 0;
  options.direction = direction;
  return options;
}

DirectionRun Run(Engine& engine, AlgorithmId algorithm,
                 TraversalDirection direction, VertexId source) {
  Query query;
  query.algorithm = algorithm;
  query.source = source;
  DirectionRun run;
  WallTimer timer;
  auto result = engine.Run(query, DirectionOptions(direction));
  run.wall_seconds = timer.Seconds();
  HYT_CHECK(result.ok()) << result.status().ToString();
  run.result = std::move(result).value();
  return run;
}

bool SameValues(const QueryResult& a, const QueryResult& b) {
  if (a.is_f64() != b.is_f64()) return false;
  if (!a.is_f64()) return a.u32() == b.u32();
  if (a.f64().size() != b.f64().size()) return false;
  for (size_t v = 0; v < a.f64().size(); ++v) {
    if (std::abs(a.f64()[v] - b.f64()[v]) > 1e-4) return false;
  }
  return true;
}

/// ~80% inserts / 20% deletions of existing base edges.
MutationBatch MixedBatch(const CsrGraph& base, uint64_t count, uint64_t seed) {
  Rng rng(seed);
  MutationBatch batch;
  const VertexId n = base.num_vertices();
  for (uint64_t i = 0; i < count; ++i) {
    if (i % 5 == 4) {
      const auto src = static_cast<VertexId>(rng.NextBounded(n));
      const auto nbrs = base.neighbors(src);
      if (!nbrs.empty()) {
        batch.DeleteEdge(src, nbrs[rng.NextBounded(nbrs.size())]);
        continue;
      }
    }
    batch.InsertEdge(static_cast<VertexId>(rng.NextBounded(n)),
                     static_cast<VertexId>(rng.NextBounded(n)),
                     static_cast<Weight>(1 + rng.NextBounded(64)));
  }
  return batch;
}

void WriteJson(const std::vector<JsonRow>& rows) {
  FILE* out = std::fopen("BENCH_direction.json", "w");
  HYT_CHECK(out != nullptr) << "cannot write BENCH_direction.json";
  const int pool_threads = ThreadPool::Default()->num_threads();
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& row = rows[i];
    std::fprintf(out,
                 "  {\"scale\": %u, \"algorithm\": \"%s\", \"direction\": "
                 "\"%s\", \"kernel_edges\": %llu, \"iterations\": %llu, "
                 "\"pull_iterations\": %llu, \"wall_ms\": %.3f, "
                 "\"pool_threads\": %d}%s\n",
                 row.scale, row.algorithm.c_str(), row.direction.c_str(),
                 static_cast<unsigned long long>(row.kernel_edges),
                 static_cast<unsigned long long>(row.iterations),
                 static_cast<unsigned long long>(row.pull_iterations),
                 row.wall_ms, pool_threads, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
  std::fclose(out);
}

}  // namespace

int main() {
  bench::PrintHeader("Direction-optimizing traversal: push vs pull vs hybrid",
                     "Beamer-style switching over the reverse view "
                     "(beyond the paper)");

  const uint32_t top_scale = 18 - std::min<uint32_t>(bench::ScaleDelta(), 10);
  const std::vector<uint32_t> scales =
      top_scale > 8 ? std::vector<uint32_t>{top_scale - 2, top_scale}
                    : std::vector<uint32_t>{top_scale};

  bool ok = true;
  std::vector<JsonRow> json;
  uint64_t largest_scale_push_edges = 0;
  uint64_t largest_scale_hybrid_edges = 0;
  double largest_scale_best_ratio = 0;
  uint64_t sssp_push_edges = 0;
  uint64_t sssp_hybrid_edges = 0;

  for (const uint32_t scale : scales) {
    RmatOptions gen;
    gen.scale = scale;
    gen.edge_factor = 16;
    gen.seed = 42;
    auto generated = GenerateRmat(gen);
    HYT_CHECK(generated.ok()) << generated.status().ToString();
    CsrGraph graph = std::move(generated).value();
    std::printf("=== RMAT scale %u: %u vertices, %llu edges ===\n", scale,
                graph.num_vertices(),
                static_cast<unsigned long long>(graph.num_edges()));

    Engine engine(std::move(graph));
    const VertexId source = engine.DefaultSource();

    for (const AlgorithmId algorithm : kAlgorithms) {
      const char* algo_name = AlgorithmName(algorithm);
      DirectionRun runs[3];
      for (size_t d = 0; d < 3; ++d) {
        runs[d] = Run(engine, algorithm, kDirections[d], source);
        json.push_back(
            {scale, algo_name, TraversalDirectionName(kDirections[d]),
             runs[d].result.trace.TotalKernelEdges(),
             runs[d].result.trace.NumIterations(),
             runs[d].result.trace.PullIterations(),
             runs[d].wall_seconds * 1e3});
      }
      const DirectionRun& push = runs[0];
      const DirectionRun& pull = runs[1];
      const DirectionRun& hybrid = runs[2];

      if (!SameValues(push.result, pull.result) ||
          !SameValues(push.result, hybrid.result)) {
        std::printf("!! %s: values diverge across directions\n", algo_name);
        ok = false;
      }

      // Per-iteration table (frontier trajectories align: extra_rounds=0).
      TablePrinter table({"iter", "active", "push edges", "hybrid edges",
                          "dir", "reduction", "push ms", "hybrid ms"});
      const auto& pi = push.result.trace.iterations;
      const auto& hi = hybrid.result.trace.iterations;
      double best_ratio = 0;
      for (size_t i = 0; i < std::max(pi.size(), hi.size()); ++i) {
        const uint64_t push_edges =
            i < pi.size() ? pi[i].transfers.kernel_edges : 0;
        const uint64_t hybrid_edges =
            i < hi.size() ? hi[i].transfers.kernel_edges : 0;
        const bool pulled = i < hi.size() && hi[i].direction ==
                                                 TraversalDirection::kPull;
        const double ratio =
            hybrid_edges == 0 ? 0.0 : static_cast<double>(push_edges) /
                                          static_cast<double>(hybrid_edges);
        if (pulled) best_ratio = std::max(best_ratio, ratio);
        table.AddRow({std::to_string(i),
                      std::to_string(i < hi.size() ? hi[i].active_vertices
                                                   : 0),
                      std::to_string(push_edges),
                      std::to_string(hybrid_edges),
                      pulled ? "pull" : "push",
                      hybrid_edges == 0 ? "-" : FormatDouble(ratio, 2) + "x",
                      i < pi.size() ? FormatDouble(pi[i].sim_seconds * 1e3, 3)
                                    : "-",
                      i < hi.size() ? FormatDouble(hi[i].sim_seconds * 1e3, 3)
                                    : "-"});
      }
      std::printf("-- %s (source %u)\n", algo_name, source);
      table.Print();
      std::printf(
          "   totals: push %llu edges (%.1f ms) | pull %llu (%.1f ms) | "
          "hybrid %llu (%.1f ms), %llu/%llu pull iters, best dense "
          "reduction %.2fx\n\n",
          static_cast<unsigned long long>(push.result.trace.TotalKernelEdges()),
          push.wall_seconds * 1e3,
          static_cast<unsigned long long>(pull.result.trace.TotalKernelEdges()),
          pull.wall_seconds * 1e3,
          static_cast<unsigned long long>(
              hybrid.result.trace.TotalKernelEdges()),
          hybrid.wall_seconds * 1e3,
          static_cast<unsigned long long>(
              hybrid.result.trace.PullIterations()),
          static_cast<unsigned long long>(
              hybrid.result.trace.NumIterations()),
          best_ratio);

      if (algorithm == AlgorithmId::kBfs && scale == scales.back()) {
        largest_scale_push_edges = push.result.trace.TotalKernelEdges();
        largest_scale_hybrid_edges = hybrid.result.trace.TotalKernelEdges();
        largest_scale_best_ratio = best_ratio;
      }
      if (algorithm == AlgorithmId::kSssp && scale == scales.back()) {
        sssp_push_edges = push.result.trace.TotalKernelEdges();
        sssp_hybrid_edges = hybrid.result.trace.TotalKernelEdges();
      }
    }

    // Mutated view at the largest scale: the hybrid must pull over the
    // reverse overlay and still match push (and the folded reference).
    if (scale == scales.back()) {
      CompactionPolicy manual;
      manual.mode = CompactionMode::kManual;
      auto regenerated = GenerateRmat(gen);
      HYT_CHECK(regenerated.ok());
      Engine live(std::move(regenerated).value(),
                  SolverOptions::Defaults(SystemKind::kHyTGraph), manual);
      const uint64_t delta =
          std::max<uint64_t>(1024, live.graph().num_edges() / 100);
      auto applied = live.ApplyMutations(MixedBatch(live.graph(), delta, 7));
      HYT_CHECK(applied.ok()) << applied.status().ToString();
      const VertexId mutated_source = live.DefaultSource();

      auto folded_csr = live.View().Materialize();
      HYT_CHECK(folded_csr.ok());
      Engine folded(std::move(folded_csr).value());

      std::printf("-- mutated view (delta %llu edges), BFS:\n",
                  static_cast<unsigned long long>(delta));
      const DirectionRun mpush =
          Run(live, AlgorithmId::kBfs, TraversalDirection::kPush,
              mutated_source);
      const DirectionRun mhybrid =
          Run(live, AlgorithmId::kBfs, TraversalDirection::kAuto,
              mutated_source);
      const DirectionRun mfolded =
          Run(folded, AlgorithmId::kBfs, TraversalDirection::kAuto,
              mutated_source);
      if (!SameValues(mpush.result, mhybrid.result) ||
          !SameValues(mpush.result, mfolded.result)) {
        std::printf("!! mutated-view values diverge\n");
        ok = false;
      }
      std::printf(
          "   push %llu edges | hybrid %llu edges (%llu pull iters) | "
          "values folded-vs-view identical: %s\n\n",
          static_cast<unsigned long long>(
              mpush.result.trace.TotalKernelEdges()),
          static_cast<unsigned long long>(
              mhybrid.result.trace.TotalKernelEdges()),
          static_cast<unsigned long long>(
              mhybrid.result.trace.PullIterations()),
          SameValues(mhybrid.result, mfolded.result) ? "yes" : "NO");
    }
  }

  if (largest_scale_hybrid_edges >= largest_scale_push_edges) {
    std::printf("!! hybrid BFS processed %llu edges, push-only %llu — no "
                "reduction\n",
                static_cast<unsigned long long>(largest_scale_hybrid_edges),
                static_cast<unsigned long long>(largest_scale_push_edges));
    ok = false;
  }
  if (largest_scale_best_ratio < 2.0) {
    std::printf("!! best dense-iteration reduction %.2fx < 2x target\n",
                largest_scale_best_ratio);
    ok = false;
  }
  // SSSP's pull floor is dist(u) + min_out_w(u) — tight enough that the
  // hybrid must at least break even with push-only on the dense middle
  // iterations (the plain dist(u) floor settled almost nobody and pull
  // iterations cost more edges than they saved).
  if (sssp_hybrid_edges >= sssp_push_edges) {
    std::printf("!! hybrid SSSP processed %llu edges, push-only %llu — "
                "below break-even\n",
                static_cast<unsigned long long>(sssp_hybrid_edges),
                static_cast<unsigned long long>(sssp_push_edges));
    ok = false;
  }

  WriteJson(json);
  std::printf("%s — BENCH_direction.json written\n",
              ok ? "OK: values identical, hybrid BFS processes fewer edges"
                 : "FAILED");
  return ok ? 0 : 1;
}
