// Dynamic-graph workload: incremental recomputation vs full recompute
// across mutation delta sizes. Not a paper reproduction — this measures the
// src/dynamic/ subsystem the serving north-star needs: an Engine absorbing
// edge-insertion batches while queries keep being answered.
//
// For each algorithm in the monotone family (BFS, SSSP, CC, SSWP), plus
// PageRank, and each delta size (fraction of |E| inserted as random edges),
// the bench runs the initial query, applies the batch, then measures
//   * RunIncremental — warm-start from the previous result, re-activating
//     only the delta-touched cone (iterates the DeltaOverlay, no CSR
//     rebuild); for PageRank, residual re-injection propagated by the
//     cold run's push kernel from a warm-started program, and
//   * Run — the steady-state full recompute on the mutated snapshot,
// and reports the wall-clock speedup. Values are verified identical for
// the monotone family and within kF64Tolerance for PageRank, whose both
// runs stop at an epsilon residual. The > 1x speedup gate covers the
// monotone family only.
//
// Two serving-path sections follow:
//   * Publication latency vs |V| at a fixed batch size — the O(|batch|)
//     critical-section contract. ApplyMutations must not hide an O(V)
//     rebuild under the write lock, so mutator-visible latency has to stay
//     flat as the vertex universe grows; the bench FAILS (nonzero exit)
//     when the largest graph publishes more than 10x slower than the
//     smallest (1ms absolute floor to absorb timer noise).
//   * Mutator-visible latency vs fold cost, threshold vs background mode —
//     the same insert stream through both policies, reporting apply-call
//     latency separately from the O(E) fold cost so the worst-case
//     mutator stall of inline folding is visible next to the background
//     worker's.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "dynamic/incremental.h"
#include "graph/rmat_generator.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace hytgraph;

namespace {

constexpr AlgorithmId kTableAlgorithms[] = {
    AlgorithmId::kBfs, AlgorithmId::kSssp, AlgorithmId::kCc,
    AlgorithmId::kSswp, AlgorithmId::kPageRank};

/// PageRank slack: both runs stop at an epsilon = 1e-6 residual (the
/// tolerance streaming_incremental_test uses).
constexpr double kF64Tolerance = 2e-3;

constexpr double kDeltaFractions[] = {0.0001, 0.001, 0.01, 0.05};

/// Fixed batch for the publication-latency sweep across |V|.
constexpr uint64_t kPublishBatch = 1024;
/// Insert stream for the inline-vs-background fold comparison.
constexpr uint64_t kStreamBatch = 4096;
constexpr uint64_t kStreamBatches = 32;
constexpr uint64_t kStreamThreshold = 32768;  // fold every 8 batches

MutationBatch RandomInsertBatch(VertexId num_vertices, uint64_t count,
                                uint64_t seed) {
  Rng rng(seed);
  MutationBatch batch;
  for (uint64_t i = 0; i < count; ++i) {
    const auto src = static_cast<VertexId>(rng.NextBounded(num_vertices));
    const auto dst = static_cast<VertexId>(rng.NextBounded(num_vertices));
    const auto weight = static_cast<Weight>(1 + rng.NextBounded(64));
    batch.InsertEdge(src, dst, weight);
  }
  return batch;
}

bool SameValues(const QueryResult& a, const QueryResult& b) {
  if (!a.is_f64()) return a.u32() == b.u32();
  const std::vector<double>& x = a.f64();
  const std::vector<double>& y = b.f64();
  if (x.size() != y.size()) return false;
  for (size_t v = 0; v < x.size(); ++v) {
    if (std::abs(x[v] - y[v]) > kF64Tolerance) return false;
  }
  return true;
}

}  // namespace

int main() {
  bench::PrintHeader("Dynamic mutations: incremental vs full recompute",
                     "dynamic-graph workload (beyond the paper)");

  RmatOptions gen;
  gen.scale = 18 - std::min<uint32_t>(bench::ScaleDelta(), 10);  // floor: scale 8
  gen.edge_factor = 16;
  gen.seed = 42;
  auto generated = GenerateRmat(gen);
  HYT_CHECK(generated.ok()) << generated.status().ToString();
  const CsrGraph base = std::move(generated).value();
  std::printf("RMAT scale %u: %u vertices, %llu edges\n\n", gen.scale,
              base.num_vertices(),
              static_cast<unsigned long long>(base.num_edges()));

  // The CPU system keeps the full-recompute baseline honest: no simulated
  // transfer machinery, just the solver's parallel relaxation loop.
  const SolverOptions options = SolverOptions::Defaults(SystemKind::kCpu);

  TablePrinter table({"algo", "delta edges", "delta/|E|", "incremental ms",
                      "full ms", "speedup", "touched vertices", "mode"});
  bool speedup_ok = true;

  for (AlgorithmId algorithm : kTableAlgorithms) {
    for (double fraction : kDeltaFractions) {
      const auto delta_edges = std::max<uint64_t>(
          1, static_cast<uint64_t>(fraction *
                                   static_cast<double>(base.num_edges())));

      Engine engine(base, options);
      Query query;
      query.algorithm = algorithm;
      auto initial = engine.Run(query);
      HYT_CHECK(initial.ok()) << initial.status().ToString();
      query.source = initial->source;  // pin for the incremental runs

      const MutationBatch batch = RandomInsertBatch(
          base.num_vertices(), delta_edges,
          /*seed=*/1000003 * (static_cast<uint64_t>(algorithm) + 1) +
              delta_edges);
      auto applied = engine.ApplyMutations(batch);
      HYT_CHECK(applied.ok()) << applied.status().ToString();

      Result<QueryResult> incremental = engine.RunIncremental(query, *initial);
      HYT_CHECK(incremental.ok()) << incremental.status().ToString();
      double incremental_seconds = 1e30;
      for (int rep = 0; rep < 3; ++rep) {
        WallTimer timer;
        auto run = engine.RunIncremental(query, *initial);
        incremental_seconds = std::min(incremental_seconds, timer.Seconds());
        HYT_CHECK(run.ok()) << run.status().ToString();
      }

      // Steady-state full recompute on the mutated graph: queries execute
      // directly on the view (no fold); the first run pays the
      // preparation, so time the cached steady state (a conservative
      // baseline for the speedup claim).
      auto full = engine.Run(query);
      HYT_CHECK(full.ok()) << full.status().ToString();
      double full_seconds = 1e30;
      for (int rep = 0; rep < 3; ++rep) {
        WallTimer timer;
        auto run = engine.Run(query);
        full_seconds = std::min(full_seconds, timer.Seconds());
        HYT_CHECK(run.ok()) << run.status().ToString();
      }

      HYT_CHECK(SameValues(*incremental, *full))
          << AlgorithmName(algorithm)
          << ": incremental diverged from full recompute";

      const double speedup = full_seconds / incremental_seconds;
      if (SupportsIncremental(algorithm) && fraction <= 0.01 &&
          speedup <= 1.0) {
        speedup_ok = false;
      }
      const uint64_t touched =
          incremental->trace.iterations.empty()
              ? 0
              : incremental->trace.iterations[0].active_vertices;
      table.AddRow({AlgorithmName(algorithm), std::to_string(delta_edges),
                    FormatDouble(fraction * 100, 2) + "%",
                    FormatDouble(incremental_seconds * 1e3, 3),
                    FormatDouble(full_seconds * 1e3, 3),
                    FormatDouble(speedup, 1) + "x", std::to_string(touched),
                    incremental->incremental ? "incremental" : "full"});
    }
  }
  table.Print();
  std::printf("\nincremental speedup > 1x for all deltas <= 1%% of |E|: %s\n",
              speedup_ok ? "yes" : "NO");

  // --- Publication latency vs |V| at fixed |batch|. ---
  std::printf("\nmutation publication latency (batch = %llu inserts, manual "
              "compaction):\n",
              static_cast<unsigned long long>(kPublishBatch));
  CompactionPolicy manual;
  manual.mode = CompactionMode::kManual;

  std::vector<uint32_t> publish_scales;
  for (uint32_t delta : {6u, 4u, 2u, 0u}) {
    const uint32_t scale = gen.scale >= 8 + delta ? gen.scale - delta : 8;
    if (publish_scales.empty() || publish_scales.back() != scale) {
      publish_scales.push_back(scale);
    }
  }

  TablePrinter publish_table(
      {"scale", "|V|", "|E|", "publish us (min of 7)", "us/edge"});
  double first_seconds = 0, last_seconds = 0;
  for (uint32_t scale : publish_scales) {
    RmatOptions scaled = gen;
    scaled.scale = scale;
    auto graph = GenerateRmat(scaled);
    HYT_CHECK(graph.ok()) << graph.status().ToString();
    const VertexId n = graph->num_vertices();
    const auto edges = graph->num_edges();
    Engine publisher(std::move(graph).value(), options, manual);

    double best = 1e30;
    for (int rep = 0; rep < 7; ++rep) {
      const MutationBatch batch =
          RandomInsertBatch(n, kPublishBatch, 31 * scale + rep);
      WallTimer timer;
      auto applied = publisher.ApplyMutations(batch);
      best = std::min(best, timer.Seconds());
      HYT_CHECK(applied.ok()) << applied.status().ToString();
      HYT_CHECK(!applied->compacted);  // manual mode: pure publication
    }
    publish_table.AddRow(
        {std::to_string(scale), std::to_string(n), std::to_string(edges),
         FormatDouble(best * 1e6, 1),
         FormatDouble(best * 1e6 / static_cast<double>(kPublishBatch), 4)});
    if (scale == publish_scales.front()) first_seconds = best;
    last_seconds = best;
  }
  publish_table.Print();

  // The O(|batch|) contract: |V| grew by up to 64x across the sweep;
  // publication latency must not follow it.
  const bool publish_flat =
      publish_scales.size() < 2 ||
      last_seconds <= std::max(10.0 * first_seconds, 1e-3);
  std::printf("\npublication latency flat as |V| grows at fixed |batch| "
              "(<= max(10x smallest, 1ms)): %s\n",
              publish_flat ? "yes" : "NO");

  // --- Mutator-visible latency vs fold cost: inline vs background. ---
  std::printf("\nmutator-visible latency vs fold cost (batch = %llu, "
              "fold threshold = %llu delta edges):\n",
              static_cast<unsigned long long>(kStreamBatch),
              static_cast<unsigned long long>(kStreamThreshold));
  TablePrinter stream_table({"mode", "batches", "max apply ms",
                             "mean apply ms", "folds", "fold ms total"});
  double inline_max_ms = 0, background_max_ms = 0;
  for (CompactionMode mode :
       {CompactionMode::kThreshold, CompactionMode::kBackground}) {
    CompactionPolicy policy;
    policy.mode = mode;
    policy.min_delta_edges = kStreamThreshold;
    policy.delta_fraction = 0.0;
    Engine streamer(base, options, policy);

    double max_seconds = 0, total_seconds = 0;
    for (uint64_t i = 0; i < kStreamBatches; ++i) {
      const MutationBatch batch =
          RandomInsertBatch(base.num_vertices(), kStreamBatch, 777 + i);
      WallTimer timer;
      auto applied = streamer.ApplyMutations(batch);
      const double seconds = timer.Seconds();
      HYT_CHECK(applied.ok()) << applied.status().ToString();
      max_seconds = std::max(max_seconds, seconds);
      total_seconds += seconds;
    }
    streamer.WaitForCompaction();
    const auto folds = streamer.compactor_stats();
    stream_table.AddRow(
        {mode == CompactionMode::kThreshold ? "threshold (inline)"
                                            : "background",
         std::to_string(kStreamBatches), FormatDouble(max_seconds * 1e3, 3),
         FormatDouble(total_seconds * 1e3 / kStreamBatches, 3),
         std::to_string(folds.folds),
         FormatDouble(folds.total_seconds * 1e3, 3)});
    if (mode == CompactionMode::kThreshold) {
      inline_max_ms = max_seconds * 1e3;
    } else {
      background_max_ms = max_seconds * 1e3;
    }
  }
  stream_table.Print();
  std::printf("\nworst mutator stall: background %.3f ms vs inline-fold "
              "%.3f ms\n",
              background_max_ms, inline_max_ms);

  return (speedup_ok && publish_flat) ? 0 : 1;
}
