// Execution traces: everything the paper's evaluation section plots. Each
// solver run yields a RunTrace with one IterationTrace per iteration —
// engine mix (Fig. 7a/b), per-iteration simulated runtime (Fig. 3g/h, 7c/d),
// phase breakdowns (Fig. 3b/c), and transfer volumes (Table VI).

#ifndef HYTGRAPH_CORE_TRACE_H_
#define HYTGRAPH_CORE_TRACE_H_

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "sim/transfer_stats.h"

namespace hytgraph {

/// Why Engine::RunIncremental transparently ran a full recompute instead
/// of a warm start. kNone means the incremental path ran (or the run was
/// not an incremental request at all).
enum class IncrementalFallback : uint8_t {
  kNone = 0,
  /// Snapshot GC retired the mutation-log entries needed to reconstruct
  /// the delta since the previous result's epoch.
  kRetiredLog = 1,
};

const char* IncrementalFallbackName(IncrementalFallback reason);

struct IterationTrace {
  uint64_t active_vertices = 0;
  /// Out-edges of the frontier (m_f). Pull iterations record it only when
  /// the direction decision computed it (the push -> pull switch
  /// iteration); steady-state pull iterations leave it 0 rather than pay
  /// an O(frontier) degree scan for a statistic — their work unit is the
  /// scanned in-edge count in transfers.kernel_edges.
  uint64_t active_edges = 0;

  /// Direction the iteration executed in: kPush for the transfer-managed
  /// task pipeline, kPull for the dense gather over the reverse view.
  /// (kAuto never appears here — it resolves to one of the two.)
  TraversalDirection direction = TraversalDirection::kPush;

  /// Active partitions dispatched to each engine this iteration.
  uint32_t partitions_filter = 0;
  uint32_t partitions_compaction = 0;
  uint32_t partitions_zero_copy = 0;
  uint32_t partitions_um = 0;
  uint32_t partitions_active = 0;
  uint32_t num_tasks = 0;

  /// Simulated wall time of the iteration (multi-stream makespan).
  double sim_seconds = 0;
  /// Per-resource busy time within the iteration.
  double transfer_seconds = 0;
  double kernel_seconds = 0;
  double compaction_seconds = 0;  // modelled CPU compaction
  /// Measured host wall time of the real compaction work (diagnostic).
  double measured_compaction_seconds = 0;

  /// Distinct unified-memory pages touched this iteration (hits + faults);
  /// drives the Fig. 3(d) active-page redundancy analysis.
  uint64_t um_pages_touched = 0;

  /// Transfer counters for this iteration only.
  TransferStatsSnapshot transfers;
};

struct RunTrace {
  std::vector<IterationTrace> iterations;
  /// End-to-end simulated runtime (sum of iteration makespans).
  double total_sim_seconds = 0;
  bool converged = false;

  /// Set by Engine::RunIncremental when the warm start was abandoned for a
  /// full recompute; kNone on the incremental path and on plain runs.
  IncrementalFallback incremental_fallback = IncrementalFallback::kNone;

  /// Always 0; perfbench/hytbench.cc reads it as core.lane_utilization.
  double LaneUtilization() const { return 0; }

  uint64_t TotalTransferredBytes() const;
  uint64_t TotalKernelEdges() const;
  double TotalTransferSeconds() const;
  double TotalKernelSeconds() const;
  double TotalCompactionSeconds() const;
  /// Iterations the hybrid loop executed in pull direction.
  uint64_t PullIterations() const;
  uint64_t NumIterations() const { return iterations.size(); }
};

}  // namespace hytgraph

#endif  // HYTGRAPH_CORE_TRACE_H_
