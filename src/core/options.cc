#include "core/options.h"

#include <cmath>

#include "core/task.h"

namespace hytgraph {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kFilter:
      return "E-F";
    case EngineKind::kCompaction:
      return "E-C";
    case EngineKind::kZeroCopy:
      return "I-ZC";
    case EngineKind::kUnifiedMemory:
      return "I-UM";
    case EngineKind::kCpu:
      return "CPU";
  }
  return "?";
}

const char* SystemKindName(SystemKind kind) {
  switch (kind) {
    case SystemKind::kHyTGraph:
      return "HyTGraph";
    case SystemKind::kExpFilter:
      return "ExpTM-F";
    case SystemKind::kSubway:
      return "Subway";
    case SystemKind::kEmogi:
      return "EMOGI";
    case SystemKind::kImpUm:
      return "ImpTM-UM";
    case SystemKind::kGrus:
      return "Grus";
    case SystemKind::kCpu:
      return "Galois(CPU)";
  }
  return "?";
}

Result<SystemKind> ParseSystemKind(const std::string& name) {
  for (SystemKind kind :
       {SystemKind::kHyTGraph, SystemKind::kExpFilter, SystemKind::kSubway,
        SystemKind::kEmogi, SystemKind::kImpUm, SystemKind::kGrus,
        SystemKind::kCpu}) {
    if (name == SystemKindName(kind)) return kind;
  }
  return Status::NotFound("unknown system: " + name);
}

const char* TraversalDirectionName(TraversalDirection direction) {
  switch (direction) {
    case TraversalDirection::kPush:
      return "push";
    case TraversalDirection::kPull:
      return "pull";
    case TraversalDirection::kAuto:
      return "auto";
  }
  return "?";
}

Result<TraversalDirection> ParseTraversalDirection(const std::string& name) {
  for (TraversalDirection direction :
       {TraversalDirection::kPush, TraversalDirection::kPull,
        TraversalDirection::kAuto}) {
    if (name == TraversalDirectionName(direction)) return direction;
  }
  return Status::NotFound("unknown direction: " + name +
                          " (push|pull|auto)");
}

SolverOptions SolverOptions::Defaults(SystemKind system) {
  SolverOptions opts;
  opts.system = system;
  opts.gpu = DefaultGpu();
  switch (system) {
    case SystemKind::kHyTGraph:
      opts.extra_rounds = 1;  // "recomputes the loaded subgraph only once"
      break;
    case SystemKind::kSubway:
      opts.extra_rounds = -1;  // multi-round until local convergence
      opts.enable_task_combining = false;
      opts.enable_contribution_scheduling = false;
      break;
    default:
      opts.extra_rounds = 0;  // synchronous baselines
      opts.enable_task_combining = false;
      opts.enable_contribution_scheduling = false;
      break;
  }
  return opts;
}

Status SolverOptions::Validate() const {
  if (alpha <= 0 || alpha > 1) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (beta <= 0 || beta > 1) {
    return Status::InvalidArgument("beta must be in (0, 1]");
  }
  if (gamma < 0 || gamma > 1) {
    return Status::InvalidArgument("gamma must be in [0, 1]");
  }
  if (combine_k < 1) {
    return Status::InvalidArgument("combine_k must be >= 1");
  }
  if (hub_fraction < 0 || hub_fraction > 1) {
    return Status::InvalidArgument("hub_fraction must be in [0, 1]");
  }
  if (num_streams < 1) {
    return Status::InvalidArgument("num_streams must be >= 1");
  }
  if (gpu.pcie_bandwidth <= 0 || gpu.mem_bandwidth <= 0) {
    return Status::InvalidArgument("gpu spec not initialized");
  }
  if (max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be > 0");
  }
  // isfinite: NaN compares false against <= 0 and would otherwise slip
  // through, making every auto-mode threshold comparison silently false.
  if (!std::isfinite(direction_alpha) || direction_alpha <= 0) {
    return Status::InvalidArgument("direction_alpha must be finite and > 0");
  }
  if (!std::isfinite(direction_beta) || direction_beta <= 0) {
    return Status::InvalidArgument("direction_beta must be finite and > 0");
  }
  return Status::OK();
}

}  // namespace hytgraph
