// Serving throughput: QueryServer fused dispatch vs naive
// one-Engine::Run-per-request serving, with and without concurrent
// mutators. Not a paper reproduction — this measures the src/serving/
// subsystem of the dynamic-graph north star: many callers multiplexed
// onto one Engine.
//
// The workload is bursts of duplicated requests (kDistinct distinct
// (algorithm, source) queries, each submitted kDuplicates times per
// burst) — the shape fusion exists for: identical requests coalesce into
// one solver run, distinct ones share a pinned epoch and one prepared
// graph. Six measured arms:
//   * fused / naive, each with and without 2 mutator threads streaming
//     insert batches through ApplyMutations (background compaction on);
//   * a live paced request stream with and without the adaptive dispatch
//     window (QueryServerOptions::dispatch_window) — the window arm must
//     report a strictly better fusion ratio with nonzero dispatch holds,
//     proving bursts fuse without the explicit Pause gating above.
// The no-mutator arms verify every served value against an isolated
// Engine::Run on the same epoch; the bench FAILS (nonzero exit) unless
// fused serving reaches >= 2x the naive arm's queries/sec, every arm
// serves with nonzero throughput, and fused arms report a nonzero fusion
// ratio. A final section measures deadline shedding: expired requests
// must resolve as shed, not burn solver runs.
//
// Emits BENCH_serving.json (qps, p50/p99 ms, fusion ratio, shed rate per
// arm). Smoke mode for CI: HYT_BENCH_SCALE_DELTA shrinks the RMAT scale.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/engine.h"
#include "graph/rmat_generator.h"
#include "serving/query_server.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace hytgraph;

namespace {

/// Distinct queries per burst: kDistinct sources x {BFS, SSSP} — the u32
/// value family, so served-vs-isolated comparison is exact.
constexpr size_t kDistinctSources = 4;
constexpr int kDuplicates = 12;  // submissions of each distinct query/burst
constexpr int kBursts = 4;
constexpr uint64_t kMutatorBatch = 256;

struct Arm {
  const char* name;
  bool fused = false;
  bool mutators = false;
  double qps = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double fusion_ratio = 0;
  double shed_rate = 0;
  uint64_t completed = 0;
  uint64_t executed_queries = 0;
  uint64_t dispatch_holds = 0;
};

std::vector<Query> DistinctQueries(const CsrGraph& graph) {
  std::vector<Query> queries;
  for (size_t s = 0; s < kDistinctSources; ++s) {
    for (AlgorithmId algorithm : {AlgorithmId::kBfs, AlgorithmId::kSssp}) {
      Query query;
      query.algorithm = algorithm;
      query.source = static_cast<VertexId>((s * 37 + 11) %
                                           graph.num_vertices());
      queries.push_back(query);
    }
  }
  return queries;
}

MutationBatch RandomInsertBatch(VertexId num_vertices, uint64_t count,
                                uint64_t seed) {
  Rng rng(seed);
  MutationBatch batch;
  for (uint64_t i = 0; i < count; ++i) {
    batch.InsertEdge(static_cast<VertexId>(rng.NextBounded(num_vertices)),
                     static_cast<VertexId>(rng.NextBounded(num_vertices)),
                     static_cast<Weight>(1 + rng.NextBounded(64)));
  }
  return batch;
}

Arm RunArm(const CsrGraph& base, const SolverOptions& options,
           const char* name, bool fused, bool mutators) {
  Arm arm;
  arm.name = name;
  arm.fused = fused;
  arm.mutators = mutators;

  CompactionPolicy compaction;
  compaction.mode = CompactionMode::kBackground;
  Engine engine(base, options, compaction);

  const std::vector<Query> distinct = DistinctQueries(base);

  // Isolated-run references on the serving epoch (static arms only: the
  // mutator arms move the epoch under the server, so per-request values
  // are instead covered by the stress test's pinned-epoch verification).
  std::vector<QueryResult> reference;
  if (!mutators) {
    for (const Query& query : distinct) {
      auto result = engine.Run(query);
      HYT_CHECK(result.ok()) << result.status().ToString();
      reference.push_back(std::move(result).value());
    }
  }

  QueryServerOptions serve;
  serve.enable_fusion = fused;
  serve.max_batch = distinct.size() * kDuplicates;  // whole burst, one batch
  QueryServer server(&engine, serve);

  std::atomic<bool> stop{false};
  std::vector<std::thread> mutator_threads;
  if (mutators) {
    for (uint64_t m = 0; m < 2; ++m) {
      mutator_threads.emplace_back([&, m] {
        for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
          auto applied = engine.ApplyMutations(RandomInsertBatch(
              base.num_vertices(), kMutatorBatch, 5 + 7919 * m + 104729 * i));
          HYT_CHECK(applied.ok()) << applied.status().ToString();
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
      });
    }
  }

  WallTimer timer;
  for (int burst = 0; burst < kBursts; ++burst) {
    // Pause gates the lanes while the burst accumulates, so the fused arm
    // dispatches it as one batch deterministically (not scheduling-luck).
    server.Pause();
    std::vector<std::pair<size_t, std::future<Result<QueryResult>>>> futures;
    for (int dup = 0; dup < kDuplicates; ++dup) {
      for (size_t qi = 0; qi < distinct.size(); ++qi) {
        ServingRequest request;
        request.query = distinct[qi];
        auto submitted = server.Submit(request);
        HYT_CHECK(submitted.ok()) << submitted.status().ToString();
        futures.emplace_back(qi, std::move(submitted).value());
      }
    }
    server.Resume();
    for (auto& [qi, future] : futures) {
      Result<QueryResult> result = future.get();
      HYT_CHECK(result.ok()) << result.status().ToString();
      if (!mutators) {
        HYT_CHECK(result->u32() == reference[qi].u32())
            << arm.name << ": served values diverged from the isolated run "
            << "for " << AlgorithmName(distinct[qi].algorithm) << " source "
            << distinct[qi].source;
      }
    }
  }
  const double seconds = timer.Seconds();
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : mutator_threads) thread.join();
  engine.WaitForCompaction();

  const ServingStats stats = server.stats();
  arm.completed = stats.completed;
  arm.executed_queries = stats.executed_queries;
  arm.qps = static_cast<double>(stats.completed) / seconds;
  arm.p50_ms = stats.p50_latency_seconds * 1e3;
  arm.p99_ms = stats.p99_latency_seconds * 1e3;
  arm.fusion_ratio = stats.FusionRatio();
  arm.shed_rate = stats.ShedRate();
  return arm;
}

/// Adaptive dispatch window vs immediate drain, on a LIVE paced stream —
/// no Pause/Resume choreography. One distinct BFS query is submitted
/// kStreamRequests times at kStreamGap intervals; identical requests
/// coalesce, so executed_queries counts dispatch fragmentation directly.
/// Without a window the lane drains the moment work appears and the
/// stream shatters into many small batches; with a window the first
/// request dispatches solo (arrival gap unknown yet), the second marks
/// the load sustained, and one held batch swallows the rest of the
/// stream — improved fusion ratio, no explicit gating.
constexpr int kStreamRequests = 96;
constexpr auto kStreamGap = std::chrono::microseconds(200);

Arm RunLiveStreamArm(const CsrGraph& base, const SolverOptions& options,
                     const char* name, std::chrono::microseconds window) {
  Arm arm;
  arm.name = name;
  // Without a window, requests that arrive one gap apart may never share a
  // batch, so the baseline need not fuse; window_ok compares the two arms.
  arm.fused = window.count() > 0;
  Engine engine(base, options);

  Query query;
  query.algorithm = AlgorithmId::kBfs;
  query.source = 1;
  auto reference = engine.Run(query);
  HYT_CHECK(reference.ok()) << reference.status().ToString();

  QueryServerOptions serve;
  serve.enable_fusion = true;
  serve.max_batch = kStreamRequests;  // the window decides batch shape
  serve.dispatch_window = window;
  QueryServer server(&engine, serve);

  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(kStreamRequests);
  WallTimer timer;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kStreamRequests; ++i) {
    std::this_thread::sleep_until(start + i * kStreamGap);
    ServingRequest request;
    request.query = query;
    auto submitted = server.Submit(request);
    HYT_CHECK(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  for (auto& future : futures) {
    Result<QueryResult> result = future.get();
    HYT_CHECK(result.ok()) << result.status().ToString();
    HYT_CHECK(result->u32() == reference->u32())
        << name << ": served values diverged from the isolated run";
  }
  const double seconds = timer.Seconds();
  server.Shutdown();

  const ServingStats stats = server.stats();
  HYT_CHECK(stats.completed == kStreamRequests);
  arm.completed = stats.completed;
  arm.executed_queries = stats.executed_queries;
  arm.dispatch_holds = stats.dispatch_holds;
  arm.qps = static_cast<double>(stats.completed) / seconds;
  arm.p50_ms = stats.p50_latency_seconds * 1e3;
  arm.p99_ms = stats.p99_latency_seconds * 1e3;
  arm.fusion_ratio = stats.FusionRatio();
  arm.shed_rate = stats.ShedRate();
  return arm;
}

/// Deadline shedding under load: half the burst carries an already-tight
/// deadline that expires while the lanes are gated; those requests must
/// resolve DeadlineExceeded without a solver run.
Arm RunShedArm(const CsrGraph& base, const SolverOptions& options) {
  Arm arm;
  arm.name = "deadline-shed";
  arm.fused = true;
  Engine engine(base, options);
  QueryServer server(&engine);

  server.Pause();
  std::vector<std::future<Result<QueryResult>>> futures;
  for (int i = 0; i < 16; ++i) {
    ServingRequest request;
    request.query.algorithm = AlgorithmId::kBfs;
    request.query.source = static_cast<VertexId>(i % 4);
    if (i % 2 == 0) request.deadline = std::chrono::microseconds(1);
    auto submitted = server.Submit(request);
    HYT_CHECK(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  WallTimer timer;
  server.Resume();
  uint64_t served = 0, shed = 0;
  for (auto& future : futures) {
    Result<QueryResult> result = future.get();
    if (result.ok()) {
      ++served;
    } else {
      HYT_CHECK(result.status().IsDeadlineExceeded())
          << result.status().ToString();
      ++shed;
    }
  }
  const double seconds = timer.Seconds();
  HYT_CHECK(served == 8 && shed == 8);

  const ServingStats stats = server.stats();
  arm.completed = stats.completed;
  arm.executed_queries = stats.executed_queries;
  arm.qps = static_cast<double>(stats.completed) / seconds;
  arm.p50_ms = stats.p50_latency_seconds * 1e3;
  arm.p99_ms = stats.p99_latency_seconds * 1e3;
  arm.fusion_ratio = stats.FusionRatio();
  arm.shed_rate = stats.ShedRate();
  return arm;
}

/// Disarmed fault-point cost: the chaos machinery must be free when off.
/// Times the HYT_FAULT_POINT fast path (one relaxed atomic load) over
/// ~32M hits; the gate below requires a generous 16-checks-per-request
/// allowance to stay under 1% of one naive served request.
double MeasureDisarmedCheckNs() {
  HYT_CHECK(FaultRegistry::Global().ArmedCount() == 0)
      << "overhead measured with a fault armed";
  constexpr uint64_t kIters = 1ull << 25;
  uint64_t passed = 0;
  WallTimer timer;
  for (uint64_t i = 0; i < kIters; ++i) {
    passed += HYT_FAULT_POINT(faults::kServingDispatch).ok();
  }
  const double seconds = timer.Seconds();
  HYT_CHECK(passed == kIters);
  return seconds * 1e9 / static_cast<double>(kIters);
}

void WriteJson(const std::vector<Arm>& arms, double check_ns,
               double overhead_pct) {
  FILE* out = std::fopen("BENCH_serving.json", "w");
  HYT_CHECK(out != nullptr) << "cannot write BENCH_serving.json";
  const int pool_threads = ThreadPool::Default()->num_threads();
  std::fprintf(out, "[\n");
  for (size_t i = 0; i < arms.size(); ++i) {
    const Arm& arm = arms[i];
    std::fprintf(out,
                 "  {\"arm\": \"%s\", \"fused\": %s, \"mutators\": %s, "
                 "\"qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
                 "\"fusion_ratio\": %.4f, \"shed_rate\": %.4f, "
                 "\"completed\": %llu, \"executed_queries\": %llu, "
                 "\"dispatch_holds\": %llu, \"pool_threads\": %d}%s\n",
                 arm.name, arm.fused ? "true" : "false",
                 arm.mutators ? "true" : "false", arm.qps, arm.p50_ms,
                 arm.p99_ms, arm.fusion_ratio, arm.shed_rate,
                 static_cast<unsigned long long>(arm.completed),
                 static_cast<unsigned long long>(arm.executed_queries),
                 static_cast<unsigned long long>(arm.dispatch_holds),
                 pool_threads, ",");
  }
  std::fprintf(out,
               "  {\"arm\": \"disarmed-fault-check\", "
               "\"ns_per_check\": %.3f, "
               "\"overhead_pct_of_request\": %.5f, \"pool_threads\": %d}\n",
               check_ns, overhead_pct, pool_threads);
  std::fprintf(out, "]\n");
  std::fclose(out);
}

}  // namespace

int main() {
  bench::PrintHeader("Concurrent query serving: fused vs naive dispatch",
                     "serving layer over one Engine (beyond the paper)");

  RmatOptions gen;
  gen.scale = 16 - std::min<uint32_t>(bench::ScaleDelta(), 8);  // floor: 8
  gen.edge_factor = 16;
  gen.seed = 42;
  auto generated = GenerateRmat(gen);
  HYT_CHECK(generated.ok()) << generated.status().ToString();
  const CsrGraph base = std::move(generated).value();
  std::printf("RMAT scale %u: %u vertices, %llu edges; %zu distinct queries "
              "x %d duplicates x %d bursts per arm\n\n",
              gen.scale, base.num_vertices(),
              static_cast<unsigned long long>(base.num_edges()),
              2 * kDistinctSources, kDuplicates, kBursts);

  const SolverOptions options = SolverOptions::Defaults(SystemKind::kCpu);

  std::vector<Arm> arms;
  arms.push_back(
      RunArm(base, options, "naive", /*fused=*/false, /*mutators=*/false));
  arms.push_back(
      RunArm(base, options, "fused", /*fused=*/true, /*mutators=*/false));
  arms.push_back(RunArm(base, options, "naive+mutators", /*fused=*/false,
                        /*mutators=*/true));
  arms.push_back(RunArm(base, options, "fused+mutators", /*fused=*/true,
                        /*mutators=*/true));
  arms.push_back(RunLiveStreamArm(base, options, "stream-no-window",
                                  std::chrono::microseconds(0)));
  arms.push_back(RunLiveStreamArm(base, options, "stream-window",
                                  std::chrono::milliseconds(50)));
  arms.push_back(RunShedArm(base, options));

  TablePrinter table({"arm", "queries/s", "p50 ms", "p99 ms", "fusion ratio",
                      "shed rate", "served", "solver runs", "holds"});
  for (const Arm& arm : arms) {
    table.AddRow({arm.name, FormatDouble(arm.qps, 1),
                  FormatDouble(arm.p50_ms, 3), FormatDouble(arm.p99_ms, 3),
                  FormatDouble(arm.fusion_ratio, 3),
                  FormatDouble(arm.shed_rate, 3),
                  std::to_string(arm.completed),
                  std::to_string(arm.executed_queries),
                  std::to_string(arm.dispatch_holds)});
  }
  table.Print();

  const double naive_qps = arms[0].qps;
  const double fused_qps = arms[1].qps;
  bool ok = true;
  for (const Arm& arm : arms) {
    if (!(arm.qps > 0)) ok = false;
    if (arm.fused && arm.name != std::string("deadline-shed") &&
        arm.fusion_ratio <= 0) {
      ok = false;
    }
  }
  const bool speedup_ok = fused_qps >= 2.0 * naive_qps;
  if (arms.back().shed_rate <= 0) ok = false;
  const Arm& no_window = arms[4];
  const Arm& window = arms[5];
  const bool window_ok = window.fusion_ratio > no_window.fusion_ratio &&
                         window.dispatch_holds > 0 &&
                         no_window.dispatch_holds == 0;
  // Fault-injection machinery is wired into every serving hot path; when
  // nothing is armed it must be noise. 16 checks/request is well above
  // what the in-memory request path actually hits (one dispatch check).
  const double check_ns = MeasureDisarmedCheckNs();
  const double request_ns = naive_qps > 0 ? 1e9 / naive_qps : 0.0;
  const double overhead_pct =
      request_ns > 0 ? 100.0 * (16.0 * check_ns) / request_ns : 100.0;
  const bool fault_overhead_ok = overhead_pct < 1.0;
  std::printf("\nfused serving %.1fx the naive arm's throughput "
              "(>= 2x required): %s\n",
              naive_qps > 0 ? fused_qps / naive_qps : 0.0,
              speedup_ok ? "yes" : "NO");
  std::printf("adaptive dispatch window improved the live-stream fusion "
              "ratio (%.3f -> %.3f, %llu hold(s)): %s\n",
              no_window.fusion_ratio, window.fusion_ratio,
              static_cast<unsigned long long>(window.dispatch_holds),
              window_ok ? "yes" : "NO");
  std::printf("all arms served (qps > 0), fused arms fused "
              "(ratio > 0), shed arm shed (rate > 0): %s\n",
              ok ? "yes" : "NO");
  std::printf("disarmed fault-point check: %.2f ns (16 checks = %.4f%% of "
              "a naive request; < 1%% required): %s\n",
              check_ns, overhead_pct, fault_overhead_ok ? "yes" : "NO");

  WriteJson(arms, check_ns, overhead_pct);
  std::printf("BENCH_serving.json written\n");
  return (ok && speedup_ok && window_ok && fault_overhead_ok) ? 0 : 1;
}
