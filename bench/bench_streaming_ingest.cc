// Streaming ingest: the wait-free mutation pipeline under concurrent
// serving load. Not a paper reproduction — this measures the mutation
// admission path (EnqueueMutations / SubmitMutation + the layered tail
// overlay) and the deletion-aware incremental paths the streaming north
// star needs. Four measured sections:
//
//   1. Publication latency vs pinned delta: ApplyMutations with a racing
//      reader must land the batch in an O(1) tail layer, never a
//      copy-on-write of the pinned delta — so a small batch's publication
//      latency with a large pinned delta must stay within a small factor
//      of the unpinned latency. The bench FAILS on a COW-shaped spike.
//   2. Sustained mutation rate x query throughput: a QueryServer serving
//      BFS/SSSP bursts while 0/2/4 mutator threads stream batches through
//      SubmitMutation — the mutations/sec x qps table of the README.
//   3. Deletion-cone incremental vs full recompute at ~0.5% |E| deleted,
//      for BFS/SSSP/CC/SSWP: values must match exactly, and above an
//      edge-count floor the cone must be >= 2x faster.
//   4. Pinned-epoch identity under streaming: a mutator streams batches
//      through the serving admission path while clients query; every
//      completed request is replayed against the serial reference on a
//      shadow overlay reconstructed at its pinned epoch — exact match.
//
// Emits BENCH_streaming.json. Smoke mode for CI: HYT_BENCH_SCALE_DELTA
// shrinks the RMAT scale.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/reference.h"
#include "bench_common.h"
#include "core/engine.h"
#include "dynamic/delta_overlay.h"
#include "graph/rmat_generator.h"
#include "serving/query_server.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace hytgraph;

namespace {

constexpr uint64_t kProbeBatch = 256;      // publication-latency probe size
constexpr int kServeClients = 4;
constexpr int kServeRequestsPerClient = 40;
constexpr uint64_t kServeMutationBatch = 128;
constexpr int kIdentityBatches = 48;
constexpr uint64_t kIdentityBatchEdges = 96;
constexpr int kIdentityClients = 2;
constexpr int kIdentityRequestsPerClient = 24;
/// Below this |E| the cone-vs-full speedup is timer noise, not signal.
constexpr uint64_t kSpeedupEdgeFloor = 1ull << 17;

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

/// ~`count` deletions of existing edges, sampled uniformly by vertex.
MutationBatch RandomDeleteBatch(const CsrGraph& graph, uint64_t count,
                                uint64_t seed) {
  Rng rng(seed);
  MutationBatch batch;
  const VertexId n = graph.num_vertices();
  for (uint64_t i = 0; i < count; ++i) {
    const auto v = static_cast<VertexId>(rng.NextBounded(n));
    const auto nbrs = graph.neighbors(v);
    if (nbrs.empty()) continue;
    batch.DeleteEdge(v, nbrs[rng.NextBounded(nbrs.size())]);
  }
  return batch;
}

// --- Section 1: publication latency vs pinned delta -----------------------

struct PublicationResult {
  double unpinned_us = 0;
  double pinned_us = 0;
  double ratio = 0;
  int max_depth = 0;
  uint64_t pending_delta = 0;
  bool flat = false;
};

PublicationResult MeasurePublication(const CsrGraph& base,
                                     const SolverOptions& options) {
  CompactionPolicy manual;
  manual.mode = CompactionMode::kManual;
  Engine engine(base, options, manual);
  const VertexId n = base.num_vertices();

  auto probe = [&](uint64_t seed) {
    const MutationBatch batch = RandomInsertBatch(n, kProbeBatch, seed);
    WallTimer timer;
    auto applied = engine.ApplyMutations(batch);
    const double seconds = timer.Seconds();
    HYT_CHECK(applied.ok()) << applied.status().ToString();
    return seconds;
  };

  // Grow a large pending delta with no readers: batches land in place.
  const uint64_t grow =
      std::max<uint64_t>(4 * kProbeBatch, base.num_edges() / 20);
  for (uint64_t applied = 0; applied < grow;) {
    const uint64_t step = std::min<uint64_t>(4096, grow - applied);
    auto result =
        engine.ApplyMutations(RandomInsertBatch(n, step, 7 + applied));
    HYT_CHECK(result.ok()) << result.status().ToString();
    applied += step;
  }

  PublicationResult result;
  result.pending_delta = engine.pending_delta_edges();

  double unpinned = 1e30;
  for (int rep = 0; rep < 5; ++rep) unpinned = std::min(unpinned, probe(100 + rep));

  // Now race a pinned reader: each probe re-pins the live overlay first,
  // so the batch must land in a fresh tail layer. A COW regression would
  // copy the whole pending delta here and show up as a latency spike.
  std::vector<GraphView> pins;
  double pinned = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    pins.push_back(engine.View());
    pinned = std::min(pinned, probe(200 + rep));
    result.max_depth = std::max(result.max_depth, engine.overlay_depth());
  }

  result.unpinned_us = unpinned * 1e6;
  result.pinned_us = pinned * 1e6;
  result.ratio = pinned / std::max(unpinned, 1e-12);
  // Flat = the pinned probe stayed within 5x the unpinned one (300us
  // absolute floor to absorb scheduler noise on tiny graphs).
  result.flat = pinned <= std::max(5.0 * unpinned, 300e-6);
  return result;
}

// --- Section 2: mutation rate x query throughput --------------------------

struct ServingArm {
  int mutators = 0;
  double qps = 0;
  double mutations_per_sec = 0;
  double edges_per_sec = 0;
  double p99_ms = 0;
  uint64_t completed = 0;
  uint64_t batches = 0;
};

ServingArm MeasureServing(const CsrGraph& base, const SolverOptions& options,
                          int mutators) {
  ServingArm arm;
  arm.mutators = mutators;

  CompactionPolicy compaction;
  compaction.mode = CompactionMode::kBackground;
  Engine engine(base, options, compaction);
  QueryServer server(&engine);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> batches{0};
  std::vector<std::thread> mutator_threads;
  for (int m = 0; m < mutators; ++m) {
    mutator_threads.emplace_back([&, m] {
      for (uint64_t i = 0; !stop.load(std::memory_order_acquire); ++i) {
        const Status admitted = server.SubmitMutation(RandomInsertBatch(
            base.num_vertices(), kServeMutationBatch,
            11 + 7919u * static_cast<uint64_t>(m) + 104729u * i));
        HYT_CHECK(admitted.ok()) << admitted.ToString();
        batches.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  WallTimer timer;
  std::vector<std::thread> clients;
  for (int c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kServeRequestsPerClient; ++i) {
        ServingRequest request;
        request.query.algorithm =
            (c + i) % 2 == 0 ? AlgorithmId::kBfs : AlgorithmId::kSssp;
        request.query.source = static_cast<VertexId>((c * 37 + i) % 8);
        auto submitted = server.Submit(request);
        HYT_CHECK(submitted.ok()) << submitted.status().ToString();
        auto result = submitted->get();
        HYT_CHECK(result.ok()) << result.status().ToString();
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double seconds = timer.Seconds();
  stop.store(true, std::memory_order_release);
  for (std::thread& thread : mutator_threads) thread.join();
  engine.WaitForIngest();
  engine.WaitForCompaction();

  const ServingStats stats = server.stats();
  HYT_CHECK(stats.mutations_rejected == 0);
  arm.completed = stats.completed;
  arm.batches = batches.load();
  arm.qps = static_cast<double>(stats.completed) / seconds;
  arm.mutations_per_sec = static_cast<double>(arm.batches) / seconds;
  arm.edges_per_sec = static_cast<double>(stats.mutation_edges) / seconds;
  arm.p99_ms = stats.p99_latency_seconds * 1e3;
  return arm;
}

// --- Section 3: deletion-cone incremental vs full recompute ---------------

struct ConeArm {
  AlgorithmId algorithm;
  uint64_t deleted = 0;       // total across the epoch chain
  double derive_ms = 0;       // first epoch: certification pass builds the forest
  double incremental_ms = 0;  // steady state: min over forest-carried epochs
  double full_ms = 0;
  double speedup = 0;
  bool enforced = false;
  bool ok = true;
};

ConeArm MeasureDeletionCone(const CsrGraph& base, const SolverOptions& options,
                            AlgorithmId algorithm) {
  ConeArm arm;
  arm.algorithm = algorithm;
  arm.enforced = base.num_edges() >= kSpeedupEdgeFloor;

  CompactionPolicy manual;
  manual.mode = CompactionMode::kManual;
  Engine engine(base, options, manual);

  Query query;
  query.algorithm = algorithm;
  auto previous = engine.Run(query);
  HYT_CHECK(previous.ok()) << previous.status().ToString();
  query.source = previous->source;

  // Chain delete epochs the way a streaming client would: each epoch's
  // RunIncremental warm-starts from the previous result, which carries
  // the dependency forest after the first deletion. Epoch 0 pays the
  // forest derivation (plus the one-time reverse-transpose build);
  // steady-state cost is the min over the forest-carried epochs.
  double incremental_seconds = 1e30;
  double full_seconds = 1e30;
  for (int epoch = 0; epoch < 4; ++epoch) {
    auto snapshot = engine.View().Materialize();
    HYT_CHECK(snapshot.ok()) << snapshot.status().ToString();
    const uint64_t deletions =
        std::max<uint64_t>(1, base.num_edges() / 200);  // ~0.5% |E| each
    auto applied = engine.ApplyMutations(RandomDeleteBatch(
        *snapshot, deletions,
        31 * (static_cast<uint64_t>(algorithm) + 1) + 977u * epoch));
    HYT_CHECK(applied.ok()) << applied.status().ToString();
    arm.deleted += applied->deleted;

    WallTimer timer;
    auto incremental = engine.RunIncremental(query, *previous);
    const double seconds = timer.Seconds();
    HYT_CHECK(incremental.ok()) << incremental.status().ToString();
    HYT_CHECK(incremental->incremental)
        << AlgorithmName(algorithm) << " fell back: "
        << IncrementalFallbackName(incremental->trace.incremental_fallback);
    HYT_CHECK(incremental->dependency_parents != nullptr);
    if (epoch == 0) {
      arm.derive_ms = seconds * 1e3;
    } else {
      incremental_seconds = std::min(incremental_seconds, seconds);
    }

    WallTimer full_timer;
    auto full = engine.Run(query);
    full_seconds = std::min(full_seconds, full_timer.Seconds());
    HYT_CHECK(full.ok()) << full.status().ToString();
    HYT_CHECK(incremental->u32() == full->u32())
        << AlgorithmName(algorithm)
        << ": deletion-cone incremental diverged from full recompute at"
        << " epoch " << incremental->epoch;

    previous = std::move(incremental);
  }

  arm.incremental_ms = incremental_seconds * 1e3;
  arm.full_ms = full_seconds * 1e3;
  arm.speedup = full_seconds / incremental_seconds;
  if (arm.enforced && arm.speedup < 2.0) arm.ok = false;
  return arm;
}

// --- Section 4: pinned-epoch identity under streaming admission -----------

struct IdentityResult {
  uint64_t observations = 0;
  uint64_t distinct_epochs = 0;
  uint64_t ingested = 0;
  bool ok = true;
};

IdentityResult MeasurePinnedIdentity(const CsrGraph& base,
                                     const SolverOptions& options) {
  IdentityResult result;
  Engine engine(base, options);
  QueryServer server(&engine);

  const VertexId source = bench::PickSource(base);

  // One producer, insert-carrying batches only: batch i (1-based) lands at
  // exactly epoch i, so a shadow overlay replaying batches 1..e
  // reconstructs the logical graph any epoch-e result executed on.
  std::vector<MutationBatch> batches;
  batches.reserve(kIdentityBatches);
  for (int i = 0; i < kIdentityBatches; ++i) {
    batches.push_back(RandomInsertBatch(base.num_vertices(),
                                        kIdentityBatchEdges, 400 + i));
  }

  struct Observation {
    uint64_t epoch;
    std::vector<uint32_t> values;
  };
  std::mutex mu;
  std::vector<Observation> observations;

  std::thread mutator([&] {
    for (const MutationBatch& batch : batches) {
      HYT_CHECK(server.SubmitMutation(batch).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::vector<std::thread> clients;
  for (int c = 0; c < kIdentityClients; ++c) {
    clients.emplace_back([&] {
      for (int i = 0; i < kIdentityRequestsPerClient; ++i) {
        ServingRequest request;
        request.query.algorithm = AlgorithmId::kBfs;
        request.query.source = source;
        auto submitted = server.Submit(request);
        HYT_CHECK(submitted.ok()) << submitted.status().ToString();
        auto served = submitted->get();
        HYT_CHECK(served.ok()) << served.status().ToString();
        std::lock_guard<std::mutex> lock(mu);
        observations.push_back({served->epoch, served->u32()});
      }
    });
  }
  mutator.join();
  for (std::thread& client : clients) client.join();
  engine.WaitForIngest();
  result.ingested = engine.ingested_batches();
  HYT_CHECK(result.ingested == static_cast<uint64_t>(kIdentityBatches));

  // Verify each distinct observed epoch against the serial reference on
  // its shadow reconstruction.
  std::map<uint64_t, std::vector<uint32_t>> reference;
  auto shared_base = std::make_shared<const CsrGraph>(base);
  for (const Observation& obs : observations) {
    auto it = reference.find(obs.epoch);
    if (it == reference.end()) {
      DeltaOverlay shadow(shared_base);
      HYT_CHECK(obs.epoch <= batches.size());
      for (uint64_t e = 0; e < obs.epoch; ++e) {
        HYT_CHECK(shadow.Apply(batches[e]).ok());
      }
      auto csr = shadow.Materialize();
      HYT_CHECK(csr.ok()) << csr.status().ToString();
      it = reference.emplace(obs.epoch, ReferenceBfs(*csr, source)).first;
    }
    if (obs.values != it->second) {
      result.ok = false;
      std::printf("  MISMATCH at epoch %llu\n",
                  static_cast<unsigned long long>(obs.epoch));
    }
  }
  result.observations = observations.size();
  result.distinct_epochs = reference.size();
  return result;
}

// --- JSON ------------------------------------------------------------------

void WriteJson(const PublicationResult& publication,
               const std::vector<ServingArm>& serving,
               const std::vector<ConeArm>& cones,
               const IdentityResult& identity) {
  FILE* out = std::fopen("BENCH_streaming.json", "w");
  HYT_CHECK(out != nullptr) << "cannot write BENCH_streaming.json";
  const int pool_threads = ThreadPool::Default()->num_threads();
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"publication\": {\"unpinned_us\": %.1f, \"pinned_us\": "
               "%.1f, \"ratio\": %.2f, \"max_overlay_depth\": %d, "
               "\"pending_delta_edges\": %llu, \"flat\": %s, "
               "\"pool_threads\": %d},\n",
               publication.unpinned_us, publication.pinned_us,
               publication.ratio, publication.max_depth,
               static_cast<unsigned long long>(publication.pending_delta),
               publication.flat ? "true" : "false", pool_threads);
  std::fprintf(out, "  \"serving\": [\n");
  for (size_t i = 0; i < serving.size(); ++i) {
    const ServingArm& arm = serving[i];
    std::fprintf(out,
                 "    {\"mutators\": %d, \"qps\": %.1f, "
                 "\"mutation_batches_per_sec\": %.1f, "
                 "\"mutation_edges_per_sec\": %.0f, \"p99_ms\": %.3f, "
                 "\"completed\": %llu, \"pool_threads\": %d}%s\n",
                 arm.mutators, arm.qps, arm.mutations_per_sec,
                 arm.edges_per_sec, arm.p99_ms,
                 static_cast<unsigned long long>(arm.completed), pool_threads,
                 i + 1 < serving.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"deletion_cone\": [\n");
  for (size_t i = 0; i < cones.size(); ++i) {
    const ConeArm& arm = cones[i];
    std::fprintf(out,
                 "    {\"algo\": \"%s\", \"deleted_edges\": %llu, "
                 "\"derive_ms\": %.3f, \"incremental_ms\": %.3f, "
                 "\"full_ms\": %.3f, \"speedup\": %.2f, "
                 "\"enforced\": %s, \"pool_threads\": %d}%s\n",
                 AlgorithmName(arm.algorithm),
                 static_cast<unsigned long long>(arm.deleted),
                 arm.derive_ms, arm.incremental_ms, arm.full_ms, arm.speedup,
                 arm.enforced ? "true" : "false", pool_threads,
                 i + 1 < cones.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"pinned_identity\": {\"observations\": %llu, "
               "\"distinct_epochs\": %llu, \"ingested_batches\": %llu, "
               "\"verified\": %s, \"pool_threads\": %d}\n",
               static_cast<unsigned long long>(identity.observations),
               static_cast<unsigned long long>(identity.distinct_epochs),
               static_cast<unsigned long long>(identity.ingested),
               identity.ok ? "true" : "false", pool_threads);
  std::fprintf(out, "}\n");
  std::fclose(out);
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Streaming ingest: wait-free mutations x concurrent serving",
      "streaming-graph workload (beyond the paper)");

  RmatOptions gen;
  gen.scale = 16 - std::min<uint32_t>(bench::ScaleDelta(), 8);  // floor: 8
  gen.edge_factor = 16;
  gen.seed = 42;
  auto generated = GenerateRmat(gen);
  HYT_CHECK(generated.ok()) << generated.status().ToString();
  const CsrGraph base = std::move(generated).value();
  std::printf("RMAT scale %u: %u vertices, %llu edges\n\n", gen.scale,
              base.num_vertices(),
              static_cast<unsigned long long>(base.num_edges()));

  const SolverOptions options = SolverOptions::Defaults(SystemKind::kCpu);

  // --- 1. Publication latency vs pinned delta. ---
  const PublicationResult publication = MeasurePublication(base, options);
  std::printf("publication latency (batch = %llu inserts, pending delta = "
              "%llu edges):\n",
              static_cast<unsigned long long>(kProbeBatch),
              static_cast<unsigned long long>(publication.pending_delta));
  std::printf("  unpinned %.1f us, pinned reader racing %.1f us "
              "(%.2fx, max overlay depth %d)\n",
              publication.unpinned_us, publication.pinned_us,
              publication.ratio, publication.max_depth);
  std::printf("  pinned publication free of COW spikes "
              "(<= max(5x unpinned, 300us)): %s\n\n",
              publication.flat ? "yes" : "NO");

  // --- 2. Mutation rate x query throughput. ---
  std::printf("sustained serving under streaming mutations (%d clients x %d "
              "requests, batch = %llu edges):\n",
              kServeClients, kServeRequestsPerClient,
              static_cast<unsigned long long>(kServeMutationBatch));
  TablePrinter serve_table({"mutators", "queries/s", "batches/s", "edges/s",
                            "p99 ms", "served"});
  std::vector<ServingArm> serving;
  for (int mutators : {0, 2, 4}) {
    serving.push_back(MeasureServing(base, options, mutators));
    const ServingArm& arm = serving.back();
    serve_table.AddRow({std::to_string(arm.mutators),
                        FormatDouble(arm.qps, 1),
                        FormatDouble(arm.mutations_per_sec, 1),
                        FormatDouble(arm.edges_per_sec, 0),
                        FormatDouble(arm.p99_ms, 3),
                        std::to_string(arm.completed)});
  }
  serve_table.Print();

  // --- 3. Deletion-cone incremental vs full recompute. ---
  std::printf("\ndeletion-cone incremental vs full recompute (4 chained "
              "epochs x ~0.5%% of |E| deleted; epoch 0 derives the "
              "dependency forest, later epochs ride it):\n");
  TablePrinter cone_table({"algo", "deleted", "derive ms", "incremental ms",
                           "full ms", "speedup", "enforced"});
  std::vector<ConeArm> cones;
  for (AlgorithmId algorithm :
       {AlgorithmId::kBfs, AlgorithmId::kSssp, AlgorithmId::kCc,
        AlgorithmId::kSswp}) {
    cones.push_back(MeasureDeletionCone(base, options, algorithm));
    const ConeArm& arm = cones.back();
    cone_table.AddRow({AlgorithmName(arm.algorithm),
                       std::to_string(arm.deleted),
                       FormatDouble(arm.derive_ms, 3),
                       FormatDouble(arm.incremental_ms, 3),
                       FormatDouble(arm.full_ms, 3),
                       FormatDouble(arm.speedup, 1) + "x",
                       arm.enforced ? "yes" : "no"});
  }
  cone_table.Print();

  // --- 4. Pinned-epoch identity under streaming admission. ---
  const IdentityResult identity = MeasurePinnedIdentity(base, options);
  std::printf("\npinned-epoch identity under streaming: %llu served results "
              "across %llu distinct epochs (%llu batches ingested), all "
              "matching the serial reference: %s\n",
              static_cast<unsigned long long>(identity.observations),
              static_cast<unsigned long long>(identity.distinct_epochs),
              static_cast<unsigned long long>(identity.ingested),
              identity.ok ? "yes" : "NO");

  WriteJson(publication, serving, cones, identity);
  std::printf("\nBENCH_streaming.json written\n");

  bool ok = publication.flat && identity.ok;
  for (const ServingArm& arm : serving) {
    if (!(arm.qps > 0)) ok = false;
  }
  for (const ConeArm& arm : cones) {
    if (!arm.ok) ok = false;
  }
  return ok ? 0 : 1;
}
