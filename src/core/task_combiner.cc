#include "core/task_combiner.h"

namespace hytgraph {

namespace {

void AccumulateInto(Task* task, uint32_t partition_id,
                    const std::vector<Partition>& partitions,
                    const IterationState& state) {
  task->partitions.push_back(partition_id);
  const PartitionStats& stats = state.stats[partition_id];
  task->active_vertices += stats.active_vertices;
  task->active_edges += stats.active_edges;
  task->total_edges += partitions[partition_id].num_edges();
  task->zc_requests += stats.zc_requests;
}

}  // namespace

std::vector<Task> CombineTasks(const std::vector<Partition>& partitions,
                               const IterationState& state,
                               const std::vector<PartitionCosts>& costs,
                               const TaskCombinerOptions& options) {
  const auto num_partitions = static_cast<uint32_t>(partitions.size());
  std::vector<Task> tasks;
  if (!options.enabled) {
    // Ablation path: one task per active partition, no merging.
    for (uint32_t p = 0; p < num_partitions; ++p) {
      if (!state.stats[p].HasWork()) continue;
      Task task;
      task.engine = costs[p].choice;
      AccumulateInto(&task, p, partitions, state);
      tasks.push_back(std::move(task));
    }
    return tasks;
  }

  Task compaction_task;   // Vc: all ExpTM-C partitions, pre-combined
  compaction_task.engine = EngineKind::kCompaction;
  Task zero_copy_task;    // Vz: all ImpTM-ZC partitions, one kernel
  zero_copy_task.engine = EngineKind::kZeroCopy;

  // Vf: runs of consecutive filter partitions, each capped at combine_k
  // (Algorithm 1 lines 15-24: a non-filter partition resets the run).
  Task filter_task;
  filter_task.engine = EngineKind::kFilter;
  auto flush_filter = [&] {
    if (!filter_task.partitions.empty()) {
      tasks.push_back(std::move(filter_task));
      filter_task = Task{};
      filter_task.engine = EngineKind::kFilter;
    }
  };

  for (uint32_t p = 0; p < num_partitions; ++p) {
    if (!state.stats[p].HasWork()) continue;
    switch (costs[p].choice) {
      case EngineKind::kFilter:
        if (static_cast<int>(filter_task.partitions.size()) >=
            options.combine_k) {
          flush_filter();
        }
        AccumulateInto(&filter_task, p, partitions, state);
        break;
      case EngineKind::kCompaction:
        flush_filter();
        AccumulateInto(&compaction_task, p, partitions, state);
        break;
      case EngineKind::kZeroCopy:
        flush_filter();
        AccumulateInto(&zero_copy_task, p, partitions, state);
        break;
      default:
        flush_filter();
        break;
    }
  }
  flush_filter();

  if (!zero_copy_task.partitions.empty()) {
    tasks.push_back(std::move(zero_copy_task));
  }
  if (!compaction_task.partitions.empty()) {
    tasks.push_back(std::move(compaction_task));
  }
  return tasks;
}

}  // namespace hytgraph
