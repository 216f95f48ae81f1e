#include "core/trace.h"

namespace hytgraph {

const char* IncrementalFallbackName(IncrementalFallback reason) {
  switch (reason) {
    case IncrementalFallback::kNone:
      return "none";
    case IncrementalFallback::kRetiredLog:
      return "retired-log";
  }
  return "unknown";
}

uint64_t RunTrace::TotalTransferredBytes() const {
  uint64_t total = 0;
  for (const IterationTrace& it : iterations) {
    total += it.transfers.TotalTransferredBytes();
  }
  return total;
}

uint64_t RunTrace::TotalKernelEdges() const {
  uint64_t total = 0;
  for (const IterationTrace& it : iterations) {
    total += it.transfers.kernel_edges;
  }
  return total;
}

double RunTrace::TotalTransferSeconds() const {
  double total = 0;
  for (const IterationTrace& it : iterations) total += it.transfer_seconds;
  return total;
}

double RunTrace::TotalKernelSeconds() const {
  double total = 0;
  for (const IterationTrace& it : iterations) total += it.kernel_seconds;
  return total;
}

uint64_t RunTrace::PullIterations() const {
  uint64_t total = 0;
  for (const IterationTrace& it : iterations) {
    if (it.direction == TraversalDirection::kPull) ++total;
  }
  return total;
}

double RunTrace::TotalCompactionSeconds() const {
  double total = 0;
  for (const IterationTrace& it : iterations) total += it.compaction_seconds;
  return total;
}

}  // namespace hytgraph
