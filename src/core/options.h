// Solver configuration: which system to emulate, on which simulated GPU,
// with which HyTGraph features enabled. Every paper parameter lives here
// with its published default.

#ifndef HYTGRAPH_CORE_OPTIONS_H_
#define HYTGRAPH_CORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "sim/gpu_spec.h"
#include "sim/pcie_model.h"
#include "util/status.h"

namespace hytgraph {

/// The systems compared in Table V. Each maps to a transfer-management
/// policy implemented on the shared simulator substrate.
enum class SystemKind {
  kHyTGraph = 0,   // hybrid transfer management + TC + CDS (this paper)
  kExpFilter = 1,  // pure ExpTM-filter          (GraphReduce/Graphie style)
  kSubway = 2,     // ExpTM-compaction, multi-round async (Subway)
  kEmogi = 3,      // ImpTM-zero-copy, synchronous (EMOGI)
  kImpUm = 4,      // pure ImpTM-unified-memory   (HALO style)
  kGrus = 5,       // UM cache + zero-copy spill  (Grus)
  kCpu = 6,        // shared-memory CPU baseline  (Galois stand-in)
};

const char* SystemKindName(SystemKind kind);
Result<SystemKind> ParseSystemKind(const std::string& name);

/// Per-iteration traversal direction of the solver loop. Push relaxes the
/// out-edges of the active list; pull gathers over the reverse view from
/// every candidate vertex, testing frontier membership in the bitmap. Auto
/// switches per iteration with Beamer-style thresholds (direction_alpha /
/// direction_beta below). Only the value-selection family (BFS/SSSP/CC/
/// SSWP) can pull; PR/PHP are pinned to push (delta accumulation).
enum class TraversalDirection {
  kPush = 0,
  kPull = 1,
  kAuto = 2,
};

const char* TraversalDirectionName(TraversalDirection direction);
Result<TraversalDirection> ParseTraversalDirection(const std::string& name);

struct SolverOptions {
  SystemKind system = SystemKind::kHyTGraph;

  /// Simulated platform.
  GpuSpec gpu;  // default-initialized; set via Default() helpers
  PcieModelOptions pcie;
  /// Overrides gpu.device_memory when nonzero (dataset-scaled budgets).
  uint64_t device_memory_override = 0;

  /// Partition size in bytes of edge data. 0 = auto: edge_bytes / 256,
  /// clamped to [64 KiB, 32 MiB] — preserving the paper's ~256-partition
  /// regime at simulator scale.
  uint64_t partition_bytes = 0;

  /// --- HyTGraph knobs (paper defaults) ---
  double alpha = 0.8;        // compaction vs filter threshold
  double beta = 0.4;         // compaction vs zero-copy threshold
  double gamma = 0.625;      // zero-copy RTT dumpling factor
  int combine_k = 4;         // filter-task merge factor
  double hub_fraction = 0.08;
  int num_streams = 4;

  /// Fig. 8 ablation switches.
  bool enable_task_combining = true;
  bool enable_contribution_scheduling = true;

  /// --- Direction-optimizing traversal (beyond the paper) ---
  /// kPush preserves the paper's push-only execution; kAuto enables the
  /// per-iteration hybrid (pull over the reverse view on dense frontiers).
  TraversalDirection direction = TraversalDirection::kPush;
  /// Auto mode switches push -> pull when the frontier's out-edges exceed
  /// |E| / direction_alpha (Beamer's alpha; larger = switch earlier).
  double direction_alpha = 14.0;
  /// Auto mode switches pull -> push when the active-vertex count drops
  /// below |V| / direction_beta (Beamer's beta; larger = switch back later).
  double direction_beta = 24.0;

  /// Extra asynchronous rounds over a loaded subgraph. HyTGraph processes
  /// "only one more time"; Subway iterates to local convergence (-1 =
  /// unbounded, capped by kMaxLocalRounds).
  int extra_rounds = 1;

  /// Fixed per-task scheduling overhead (kernel launch + transfer setup) —
  /// the cost task combining amortizes.
  double task_overhead_seconds = 3e-6;

  /// Kernel-time model parameters (see sim/compute_model.h).
  double gpu_bytes_per_edge = 16.0;
  double gpu_efficiency = 0.15;
  double cpu_edges_per_second = 3.0e8;

  /// Safety caps.
  uint64_t max_iterations = 5000;
  int max_local_rounds = 64;

  /// Returns the paper-faithful configuration for a system on the default
  /// GPU (RTX 2080Ti).
  static SolverOptions Defaults(SystemKind system);

  /// Effective device memory for this run.
  uint64_t DeviceMemory() const {
    return device_memory_override != 0 ? device_memory_override
                                       : gpu.device_memory;
  }

  Status Validate() const;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_CORE_OPTIONS_H_
