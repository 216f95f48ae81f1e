// Per-lane execution state for the solver's parallel partition execution
// (SolverOptions::num_workers > 1). Each worker lane owns a contiguous
// partition range for the query's lifetime and, per iteration, runs its
// partitions' tasks against a lane-local next-frontier through a LaneSink:
// activations of lane-owned vertices land only in the lane-local bitmap,
// activations of foreign vertices are additionally appended to a
// single-producer outbox addressed to the owning lane. At the iteration
// barrier every lane merges exactly the vertices it owns into the global
// next frontier — its own range from its local bitmap plus every peer's
// outbox addressed to it — so the shared bitmap is written owner-only
// (near-disjoint words) and never contended on the kernel hot path.

#ifndef HYTGRAPH_CORE_LANE_STATE_H_
#define HYTGRAPH_CORE_LANE_STATE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/trace.h"
#include "engine/frontier.h"
#include "graph/graph_view.h"

namespace hytgraph {

struct LaneState {
  LaneState(const GraphView& view, int num_lanes)
      : local(view), outbox(num_lanes) {}

  /// Owned ranges, fixed for the query's lifetime. Partitions are
  /// contiguous, so the partition range induces the vertex range.
  uint32_t p_begin = 0;
  uint32_t p_end = 0;
  VertexId v_begin = 0;
  VertexId v_end = 0;

  /// Lane-local next frontier. Covers the whole vertex space (it doubles
  /// as the dedup set for foreign activations) but only this lane writes
  /// it, so no atomics are contended.
  Frontier local;

  /// outbox[peer]: foreign activations owned by `peer`, deduped by the
  /// local bitmap (a vertex is appended only on its first activation).
  std::vector<std::vector<VertexId>> outbox;

  /// Per-iteration outputs, read by the coordinator at the barrier.
  IterationTrace partial;
  double sim_seconds = 0;        // lane timeline makespan
  double transfer_busy = 0;
  double kernel_busy = 0;
  double cpu_busy = 0;
  double wall_seconds = 0;       // measured execute-phase wall time
  uint64_t pull_edges = 0;

  /// Scratch recycled across iterations.
  std::vector<VertexId> merge_scratch;

  void BeginIteration() {
    local.Clear();
    for (auto& box : outbox) box.clear();
    partial = IterationTrace{};
    sim_seconds = transfer_busy = kernel_busy = cpu_busy = wall_seconds = 0;
    pull_edges = 0;
  }
};

/// The activation sink lane kernels write through (the `Sink` parameter of
/// RunKernel / RunKernelOnSubCsr, via ShardActivations). Also forwards the
/// MarkInactive / CollectRange surface RunExtraRounds consumes — extra
/// rounds only touch vertices inside the lane's own partitions, so they
/// never interact with the outboxes.
class LaneSink {
 public:
  LaneSink(LaneState* lane, std::span<const VertexId> lane_starts)
      : lane_(lane), lane_starts_(lane_starts) {}

  bool MarkActive(VertexId v) {
    if (!lane_->local.MarkActive(v)) return false;
    Route(v);
    return true;
  }

  bool MarkInactive(VertexId v) { return lane_->local.MarkInactive(v); }

  void AddCounts(int64_t active, int64_t scout) {
    lane_->local.AddCounts(active, scout);
  }

  void CollectRange(VertexId first, VertexId last,
                    std::vector<VertexId>* out) const {
    lane_->local.CollectRange(first, last, out);
  }

 private:
  void Route(VertexId v) {
    if (v >= lane_->v_begin && v < lane_->v_end) return;
    const auto owner = static_cast<size_t>(
        std::upper_bound(lane_starts_.begin(), lane_starts_.end(), v) -
        lane_starts_.begin() - 1);
    lane_->outbox[owner].push_back(v);
  }

  LaneState* lane_;
  std::span<const VertexId> lane_starts_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_CORE_LANE_STATE_H_
