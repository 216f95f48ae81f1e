// Concurrency stress for the dynamic serving path: reader threads run all
// six algorithms against mutator threads streaming batches through a
// folding engine. Every query pins the epoch it planned against;
// afterwards the test replays the recorded mutation log up to that epoch
// and checks the result against the serial reference implementation on the
// reconstructed graph — snapshot isolation, the O(delta) publication path,
// and off-lock fold publication all have to hold for every single query to
// match.
//
// This suite is also the main ThreadSanitizer workload for the engine's
// mutation state (see the sanitize-thread CI job).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "algorithms/reference.h"
#include "core/engine.h"
#include "graph/degree_stats.h"
#include "serving/query_server.h"
#include "test_graphs.h"

namespace hytgraph {
namespace {

using testing::SmallRmat;

constexpr int kReaderThreads = 4;
constexpr int kMutatorThreads = 2;
constexpr int kQueriesPerReader = 120;
constexpr int kBatchesPerMutator = 150;
constexpr uint64_t kInsertsPerBatch = 12;

/// One verified observation: what a reader got back, keyed by the epoch the
/// engine reported for it.
struct Observation {
  AlgorithmId algorithm;
  VertexId source;
  uint64_t epoch;
  QueryValues values;
};

MutationBatch RandomBatch(const CsrGraph& base, uint64_t seed) {
  MutationBatch batch;
  const VertexId n = base.num_vertices();
  uint64_t state = seed;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return state >> 33;
  };
  for (uint64_t i = 0; i < kInsertsPerBatch; ++i) {
    batch.InsertEdge(static_cast<VertexId>(next() % n),
                     static_cast<VertexId>(next() % n),
                     static_cast<Weight>(1 + next() % 32));
  }
  // A few deletions aimed at base edges (some may be no-ops by the time
  // they apply — that is part of the semantics under test).
  for (uint64_t i = 0; i < 3; ++i) {
    const VertexId src = static_cast<VertexId>(next() % n);
    const auto nbrs = base.neighbors(src);
    if (!nbrs.empty()) batch.DeleteEdge(src, nbrs[next() % nbrs.size()]);
  }
  return batch;
}

/// Replays the recorded batch log up to each observation's pinned epoch on
/// a freshly built base graph, and checks the observed values against the
/// serial reference on the reconstruction. Graphs and reference results
/// are memoized across observations.
void VerifyObservations(const std::vector<Observation>& observations,
                        const std::function<CsrGraph()>& make_base,
                        const std::map<uint64_t, MutationBatch>& batch_log) {
  std::map<uint64_t, std::shared_ptr<const CsrGraph>> graph_at_epoch;
  auto reconstruct = [&](uint64_t epoch) -> const CsrGraph& {
    auto it = graph_at_epoch.find(epoch);
    if (it != graph_at_epoch.end()) return *it->second;
    auto snapshot = std::make_shared<const CsrGraph>(make_base());
    DeltaOverlay overlay(snapshot);
    for (const auto& [e, batch] : batch_log) {
      if (e > epoch) break;
      auto applied = overlay.Apply(batch);
      HYT_CHECK(applied.ok());
    }
    auto folded = overlay.Materialize();
    HYT_CHECK(folded.ok());
    auto shared = std::make_shared<const CsrGraph>(std::move(folded).value());
    graph_at_epoch.emplace(epoch, shared);
    return *shared;
  };

  struct RefKey {
    uint64_t epoch;
    AlgorithmId algorithm;
    VertexId source;
    bool operator<(const RefKey& o) const {
      return std::tie(epoch, algorithm, source) <
             std::tie(o.epoch, o.algorithm, o.source);
    }
  };
  std::map<RefKey, QueryValues> reference;
  auto reference_for = [&](const Observation& obs) -> const QueryValues& {
    const RefKey key{obs.epoch, obs.algorithm, obs.source};
    auto it = reference.find(key);
    if (it != reference.end()) return it->second;
    const CsrGraph& graph = reconstruct(obs.epoch);
    QueryValues values;
    switch (obs.algorithm) {
      case AlgorithmId::kBfs:
        values = ReferenceBfs(graph, obs.source);
        break;
      case AlgorithmId::kSssp:
        values = ReferenceSssp(graph, obs.source);
        break;
      case AlgorithmId::kCc:
        values = ReferenceCc(graph);
        break;
      case AlgorithmId::kSswp:
        values = ReferenceSswp(graph, obs.source);
        break;
      case AlgorithmId::kPageRank:
        values = ReferencePageRank(graph);
        break;
      case AlgorithmId::kPhp:
        values = ReferencePhp(graph, obs.source);
        break;
    }
    return reference.emplace(key, std::move(values)).first->second;
  };

  for (const Observation& obs : observations) {
    const QueryValues& want = reference_for(obs);
    if (std::holds_alternative<std::vector<uint32_t>>(obs.values)) {
      EXPECT_EQ(std::get<std::vector<uint32_t>>(obs.values),
                std::get<std::vector<uint32_t>>(want))
          << AlgorithmName(obs.algorithm) << " source " << obs.source
          << " diverged from its pinned epoch " << obs.epoch;
    } else {
      const auto& got = std::get<std::vector<double>>(obs.values);
      const auto& exp = std::get<std::vector<double>>(want);
      ASSERT_EQ(got.size(), exp.size());
      double max_ref = 1e-12;
      for (double v : exp) max_ref = std::max(max_ref, std::abs(v));
      for (size_t v = 0; v < got.size(); ++v) {
        ASSERT_NEAR(got[v], exp[v], 1e-3 * max_ref)
            << AlgorithmName(obs.algorithm) << " vertex " << v << " epoch "
            << obs.epoch;
      }
    }
  }
}

// Run under both fold triggers: kBackground folds on the worker, and
// kThreshold folds on whichever mutator's batch crosses the threshold —
// racing the other mutator's batches through the fold window.
class DynamicFoldStressTest
    : public ::testing::TestWithParam<CompactionMode> {};

TEST_P(DynamicFoldStressTest, EveryQueryMatchesItsPinnedEpoch) {
  const CsrGraph base = SmallRmat(8, 8, /*seed=*/21);

  CompactionPolicy policy;
  policy.mode = GetParam();
  policy.min_delta_edges = 128;  // folds stay almost always in flight
  policy.delta_fraction = 0.0;
  SolverOptions options = SolverOptions::Defaults(SystemKind::kCpu);
  // Small partitions so the tiny stress graph still spans several tasks.
  options.partition_bytes = 2 << 10;
  Engine engine(SmallRmat(8, 8, 21), options, policy);

  // Epoch -> the batch that produced it, recorded by the mutators. The
  // engine serializes batch application, so epoch order is application
  // order and replaying 1..e reconstructs the exact logical graph any
  // query at epoch e executed on.
  std::mutex log_mu;
  std::map<uint64_t, MutationBatch> batch_log;
  std::vector<Observation> observations;
  std::atomic<bool> failed{false};

  std::vector<std::thread> threads;
  for (int m = 0; m < kMutatorThreads; ++m) {
    threads.emplace_back([&, m] {
      for (int i = 0; i < kBatchesPerMutator && !failed; ++i) {
        const MutationBatch batch =
            RandomBatch(base, 1 + 7919u * m + 104729u * i);
        auto applied = engine.ApplyMutations(batch);
        if (!applied.ok()) {
          failed = true;
          return;
        }
        std::lock_guard<std::mutex> lock(log_mu);
        // Insert-carrying batches always advance the epoch, so every
        // assigned epoch is unique to its batch.
        batch_log.emplace(applied->epoch, batch);
      }
    });
  }
  for (int r = 0; r < kReaderThreads; ++r) {
    threads.emplace_back([&, r] {
      std::vector<Observation> local;
      local.reserve(kQueriesPerReader);
      for (int i = 0; i < kQueriesPerReader && !failed; ++i) {
        Query query;
        query.algorithm =
            kAllAlgorithms[(r + i) % std::size(kAllAlgorithms)];
        if (GetAlgorithmInfo(query.algorithm).needs_source) {
          query.source = static_cast<VertexId>((r + i) % 2);  // memoizable
        }
        auto result = engine.Run(query);
        if (!result.ok()) {
          failed = true;
          return;
        }
        local.push_back(Observation{query.algorithm, result->source,
                                    result->epoch,
                                    std::move(result->values)});
      }
      std::lock_guard<std::mutex> lock(log_mu);
      for (auto& obs : local) observations.push_back(std::move(obs));
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_FALSE(failed) << "a concurrent Run or ApplyMutations errored";
  engine.WaitForCompaction();
  ASSERT_GE(engine.compactor_stats().folds, 1u)
      << "the stress never exercised a fold";

  // --- Verification: replay the log and check every observation. ---
  // Readers reuse two sources per algorithm, so the memoized
  // (epoch, algorithm, source) reference space stays small.
  ASSERT_EQ(observations.size(),
            static_cast<size_t>(kReaderThreads * kQueriesPerReader));
  VerifyObservations(observations, [] { return SmallRmat(8, 8, 21); },
                     batch_log);
}

INSTANTIATE_TEST_SUITE_P(
    FoldTriggers, DynamicFoldStressTest,
    ::testing::Values(CompactionMode::kThreshold, CompactionMode::kBackground),
    [](const ::testing::TestParamInfo<CompactionMode>& info) {
      return info.param == CompactionMode::kThreshold ? "Threshold"
                                                      : "Background";
    });

// The serving layer under the same fire: concurrent clients submit mixed
// algorithms, priorities, and deadlines through a QueryServer while
// mutators stream batches through background compaction. Every completed
// request must match the serial reference on the epoch its fused batch
// pinned; deadline sheds and backpressure rejections are legitimate
// outcomes, silent wrong answers are not.
TEST(DynamicConcurrencyStressTest, QueryServerClientsMatchPinnedEpochs) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 48;
  constexpr int kServingBatchesPerMutator = 80;
  const CsrGraph base = SmallRmat(8, 8, /*seed=*/45);

  CompactionPolicy policy;
  policy.mode = CompactionMode::kBackground;
  policy.min_delta_edges = 128;
  policy.delta_fraction = 0.0;
  Engine engine(SmallRmat(8, 8, 45),
                SolverOptions::Defaults(SystemKind::kCpu), policy);
  QueryServerOptions server_options;
  server_options.lane_capacity = 512;  // verify values, not backpressure
  QueryServer server(&engine, server_options);

  std::mutex log_mu;
  std::map<uint64_t, MutationBatch> batch_log;
  std::vector<Observation> observations;
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> shed{0};

  std::vector<std::thread> threads;
  for (int m = 0; m < kMutatorThreads; ++m) {
    threads.emplace_back([&, m] {
      for (int i = 0; i < kServingBatchesPerMutator && !failed; ++i) {
        const MutationBatch batch =
            RandomBatch(base, 3 + 7919u * m + 104729u * i);
        auto applied = engine.ApplyMutations(batch);
        if (!applied.ok()) {
          failed = true;
          return;
        }
        std::lock_guard<std::mutex> lock(log_mu);
        batch_log.emplace(applied->epoch, batch);
      }
    });
  }
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::vector<Observation> local;
      local.reserve(kRequestsPerClient);
      for (int i = 0; i < kRequestsPerClient && !failed; ++i) {
        ServingRequest request;
        request.query.algorithm =
            kAllAlgorithms[(c + i) % std::size(kAllAlgorithms)];
        if (GetAlgorithmInfo(request.query.algorithm).needs_source) {
          request.query.source = static_cast<VertexId>((c + i) % 2);
        }
        request.priority = i % 3;
        if (i % 4 == 0) {
          // A generous-but-real deadline: usually met, occasionally shed
          // under load — both are valid servings of this request.
          request.deadline = std::chrono::milliseconds(500);
        }
        auto submitted = server.Submit(request);
        if (!submitted.ok()) {
          failed = true;  // capacity is sized to admit everything
          return;
        }
        Result<QueryResult> result = submitted->get();
        if (result.ok()) {
          local.push_back(Observation{result->algorithm, result->source,
                                      result->epoch,
                                      std::move(result->values)});
        } else if (result.status().IsDeadlineExceeded()) {
          shed.fetch_add(1);
        } else {
          failed = true;
          return;
        }
      }
      std::lock_guard<std::mutex> lock(log_mu);
      for (auto& obs : local) observations.push_back(std::move(obs));
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_FALSE(failed)
      << "a concurrent Submit, ApplyMutations, or served query errored";
  server.Shutdown();
  engine.WaitForCompaction();

  const ServingStats stats = server.stats();
  EXPECT_EQ(stats.admitted,
            static_cast<uint64_t>(kClients * kRequestsPerClient));
  EXPECT_EQ(stats.completed, observations.size());
  EXPECT_EQ(stats.shed_deadline, shed.load());
  EXPECT_EQ(stats.completed + stats.shed_deadline, stats.admitted);
  // Deadlines are generous; the bulk of the load must actually serve.
  EXPECT_GT(observations.size(), static_cast<size_t>(kClients));

  VerifyObservations(observations, [] { return SmallRmat(8, 8, 45); },
                     batch_log);
}

// Regression stress for the default-source lazy rescan: mutators keep
// deleting edges of the CURRENT argmax vertex (each deletion dirties the
// incremental degree tracker and forces readers into the O(V) rescan)
// while background folds republish the view and other inserts move the
// leadership around. The repair path installs its rescan result only when
// neither the epoch nor the layout moved underneath it — the epoch check
// alone missed fold-window replays, which change degrees at an unchanged
// epoch, and a stale install pinned a wrong default source until the next
// deletion. After quiescing, the tracked source must equal the true
// degree argmax of the live view.
TEST(DynamicConcurrencyStressTest, DefaultSourceSurvivesArgmaxDeletionRaces) {
  constexpr int kReaders = 3;
  constexpr int kMutators = 2;
  constexpr int kBatches = 300;

  CompactionPolicy policy;
  policy.mode = CompactionMode::kBackground;
  policy.min_delta_edges = 64;  // folds stay almost always in flight
  policy.delta_fraction = 0.0;
  Engine engine(SmallRmat(8, 8, /*seed=*/51),
                SolverOptions::Defaults(SystemKind::kCpu), policy);
  const VertexId n = engine.graph().num_vertices();

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      // Hammer the repair path: every deletion-dirtied read runs the
      // unlocked rescan and races its install against the mutators.
      while (!stop.load(std::memory_order_acquire)) {
        (void)engine.DefaultSource();
      }
    });
  }

  std::vector<std::thread> mutators;
  for (int m = 0; m < kMutators; ++m) {
    mutators.emplace_back([&, m] {
      uint64_t state = 17 + static_cast<uint64_t>(m);
      auto next = [&]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
      };
      for (int i = 0; i < kBatches && !failed; ++i) {
        MutationBatch batch;
        // Attack the current argmax: deleting its edges is exactly what
        // flips default_source_dirty_.
        const VertexId victim = engine.DefaultSource();
        std::vector<VertexId> targets;
        engine.View().ForEachNeighbor(victim, [&](VertexId d, Weight) {
          if (targets.size() < 2) targets.push_back(d);
        });
        for (VertexId d : targets) batch.DeleteEdge(victim, d);
        // And crown pretenders elsewhere so leadership keeps moving.
        const auto riser = static_cast<VertexId>(next() % n);
        batch.InsertEdge(riser, static_cast<VertexId>(next() % n));
        batch.InsertEdge(riser, static_cast<VertexId>(next() % n));
        if (!engine.ApplyMutations(batch).ok()) {
          failed = true;
          return;
        }
      }
    });
  }
  for (std::thread& t : mutators) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  ASSERT_FALSE(failed) << "a concurrent ApplyMutations errored";

  engine.WaitForCompaction();  // quiesce: no further layout changes
  const VertexId settled = engine.DefaultSource();
  EXPECT_EQ(settled, HighestOutDegreeVertex(engine.View()))
      << "the lazily repaired default source diverged from the true"
      << " degree argmax after quiescing";
}

}  // namespace
}  // namespace hytgraph
