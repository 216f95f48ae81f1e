// Task combination (Section V-B, Algorithm 1 lines 15-24). HyTGraph
// decouples graph partitioning (small 32 MB partitions for fine-grained cost
// analysis) from task scheduling (large tasks for low launch/transfer
// overhead):
//   * up to k consecutive ExpTM-filter partitions merge into one task;
//   * all ExpTM-compaction partitions merge into a single task whose active
//     edges are compacted into one contiguous buffer;
//   * all ImpTM-zero-copy partitions merge into a single task served by one
//     kernel (zero-copy overlaps transfer with compute implicitly).
// With combining disabled (the Fig. 8 "Hybrid" baseline), every active
// partition becomes its own task.

#ifndef HYTGRAPH_CORE_TASK_COMBINER_H_
#define HYTGRAPH_CORE_TASK_COMBINER_H_

#include <vector>

#include "core/cost_model.h"
#include "core/task.h"
#include "engine/partition_state.h"
#include "graph/partitioner.h"

namespace hytgraph {

struct TaskCombinerOptions {
  /// Max consecutive filter partitions per task (the paper's k = 4).
  int combine_k = 4;
  /// Master switch (Fig. 8 ablation).
  bool enabled = true;
};

/// Builds the iteration's task list from per-partition engine choices.
/// Inactive partitions are skipped entirely.
std::vector<Task> CombineTasks(const std::vector<Partition>& partitions,
                               const IterationState& state,
                               const std::vector<PartitionCosts>& costs,
                               const TaskCombinerOptions& options);

}  // namespace hytgraph

#endif  // HYTGRAPH_CORE_TASK_COMBINER_H_
