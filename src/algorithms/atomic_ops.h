// Lock-free primitive used by the value-selection vertex programs: the
// CAS-loop improve, the host-side equivalent of the CUDA atomicMin /
// atomicMax the paper's kernels rely on. The accumulation programs (PR/PHP)
// need no atomics: the kernels push their per-edge shares into
// shard-private rows that the solver folds in shard order (ShareRows in
// engine/kernels.h).

#ifndef HYTGRAPH_ALGORITHMS_ATOMIC_OPS_H_
#define HYTGRAPH_ALGORITHMS_ATOMIC_OPS_H_

#include <atomic>

namespace hytgraph {

/// Atomically sets *target = value while better(value, *target) holds.
/// Returns true if the stored value changed. std::less gives atomic min,
/// std::greater atomic max.
template <typename T, typename Better>
bool AtomicImprove(std::atomic<T>* target, T value, Better better) {
  T current = target->load(std::memory_order_relaxed);
  while (better(value, current)) {
    if (target->compare_exchange_weak(current, value,
                                      std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace hytgraph

#endif  // HYTGRAPH_ALGORITHMS_ATOMIC_OPS_H_
