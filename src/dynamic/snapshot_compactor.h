// SnapshotCompactor: the fold policy and fold statistics of the dynamic
// layer. The fold itself — capture the overlay, materialize and spill a new
// base CSR off every lock, replay the batches that raced it, publish — is
// Engine::Fold; this class only decides when it is due and counts what it
// did. Folding is purely *policy-driven* — queries never trigger it:
//
//  * write-triggered — under CompactionMode::kThreshold, the ApplyMutations
//    call whose batch crosses the policy threshold folds on its own thread
//    once the batch is published, bounding overlay size (and therefore
//    query-on-overlay overhead) during mutation-heavy phases; under
//    kBackground the crossing enqueues the fold on a worker instead;
//  * explicit — Engine::Compact() folds on demand (the only trigger under
//    CompactionMode::kManual), letting servers schedule the O(E) rebuild
//    off the latency-critical path.
//
// Queries — full and incremental — execute directly on the GraphView
// (base + overlay) and never wait for a fold; compaction is an amortized
// background concern, not a query-latency tax.

#ifndef HYTGRAPH_DYNAMIC_SNAPSHOT_COMPACTOR_H_
#define HYTGRAPH_DYNAMIC_SNAPSHOT_COMPACTOR_H_

#include <algorithm>
#include <cstdint>

#include "dynamic/delta_overlay.h"
#include "graph/csr_graph.h"

namespace hytgraph {

/// When pending deltas are folded into a fresh base snapshot.
enum class CompactionMode : uint8_t {
  /// ApplyMutations folds eagerly once the delta crosses the threshold,
  /// on the mutator's thread (the call whose batch trips the threshold
  /// pays the O(E) rebuild, after publishing its batch and releasing the
  /// write lock — other mutators and queries do not wait on it).
  kThreshold = 0,
  /// Only an explicit Engine::Compact() folds; the delta grows unboundedly
  /// otherwise (callers own the schedule).
  kManual = 1,
  /// Crossing the threshold enqueues a fold on the Engine's
  /// BackgroundCompactor worker instead of folding on the mutator's thread,
  /// so no mutator pays for the O(E) rebuild. The delta can overshoot the
  /// threshold while a fold is in flight.
  kBackground = 2,
};

/// Compaction policy plus the mutation-log retirement horizon (the two
/// lifecycle knobs of the dynamic-graph subsystem). The fold threshold is
/// the max of the two knobs so small graphs do not compact on every batch
/// and large graphs do not accumulate unbounded deltas.
struct CompactionPolicy {
  CompactionMode mode = CompactionMode::kThreshold;
  /// Absolute floor on pending delta edges before a write-triggered fold.
  uint64_t min_delta_edges = 4096;
  /// Fold when the delta reaches this fraction of the base edge count.
  double delta_fraction = 0.05;
  /// Snapshot GC: per-epoch mutation-log entries older than this many
  /// epochs are retired, so the log cannot grow unboundedly under a
  /// long-lived mutation stream. RunIncremental from a retired epoch
  /// transparently falls back to a full recompute. 0 retains everything.
  uint64_t mutation_log_horizon = 1024;

  uint64_t ThresholdFor(EdgeId base_edges) const {
    const auto scaled = static_cast<uint64_t>(
        delta_fraction * static_cast<double>(base_edges));
    return std::max(min_delta_edges, scaled);
  }
};

class SnapshotCompactor {
 public:
  struct Stats {
    uint64_t folds = 0;
    uint64_t edges_folded = 0;   // edge count of produced snapshots
    double total_seconds = 0.0;  // measured host wall time of the folds
  };

  explicit SnapshotCompactor(CompactionPolicy policy = {})
      : policy_(policy) {}

  const CompactionPolicy& policy() const { return policy_; }

  /// Write-trigger test: has the pending delta crossed the threshold?
  /// Always false under CompactionMode::kManual. Under kBackground a true
  /// result means "enqueue a background fold", not "fold on this thread".
  bool ShouldCompact(const DeltaOverlay& overlay) const {
    if (policy_.mode == CompactionMode::kManual) return false;
    return overlay.delta_edges() >=
           policy_.ThresholdFor(overlay.base().num_edges());
  }

  /// Accounts one published fold (Engine::Fold rebuilds off the Engine's
  /// write lock and records the result under it, so stats stay
  /// lock-protected).
  void RecordFold(EdgeId snapshot_edges, double seconds) {
    ++stats_.folds;
    stats_.edges_folded += snapshot_edges;
    stats_.total_seconds += seconds;
  }

  const Stats& stats() const { return stats_; }

 private:
  CompactionPolicy policy_;
  Stats stats_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_DYNAMIC_SNAPSHOT_COMPACTOR_H_
