// A fixed-size thread pool with a blocked-range ParallelFor. The pool backs
// the host-side "GPU kernel" execution, the CPU compaction engine, and the
// Engine's batched query fan-out.
//
// Execution: a pool of N threads is the calling thread plus N - 1 workers.
// ParallelFor runs shard 0 inline on the caller and hands shards 1.. to
// workers 0.., waking only the workers that own a shard. The caller waits
// for the workers only if some are still running when its own shard ends,
// so a batch pays one wake-up per worker shard and no hand-back when the
// caller finishes last.
//
// Determinism note: ParallelFor uses static chunking (each shard owns a
// fixed contiguous range), so per-shard partial results can be combined in
// shard order to obtain deterministic reductions.
//
// Reentrancy: ParallelFor may be called from inside a shard (e.g. a batched
// query executing its solver kernels); the nested call degrades to a serial
// loop on the calling thread instead of deadlocking on a nested submission.
// The caller counts as a pool worker while it runs shard 0. Concurrent
// top-level callers serialize their batches.

#ifndef HYTGRAPH_UTIL_THREAD_POOL_H_
#define HYTGRAPH_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hytgraph {

class ThreadPool {
 public:
  /// Creates a pool that runs batches on `num_threads` threads: the caller
  /// plus `num_threads - 1` workers. 0 means hardware_concurrency().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads a batch runs on, the caller included: the bound on the shard
  /// count.
  int num_threads() const { return num_threads_; }

  /// Runs fn(shard, begin, end) on every shard covering [0, n) with static
  /// contiguous chunking, and blocks until all shards complete. `shard` is in
  /// [0, num_shards) where num_shards <= num_threads(); shard 0 runs on the
  /// calling thread. Small `n` degrades to a serial call on the calling
  /// thread. An exception from a shard is rethrown here once every shard
  /// has finished (the caller's own first, else the first worker's).
  void ParallelFor(uint64_t n,
                   const std::function<void(int shard, uint64_t begin,
                                            uint64_t end)>& fn,
                   uint64_t min_grain = 1024);

  /// Process-wide default pool (created on first use with all cores).
  static ThreadPool* Default();

  /// True when the calling thread is a pool worker (of any pool) or a
  /// caller running its inline shard. Nested ParallelFor calls from such
  /// threads run serially.
  static bool InWorkerThread();

  /// Marks the calling thread as a pool worker without it belonging to any
  /// pool. Solver lane threads (core/lane_team.h) call this at entry so
  /// kernel-level ParallelFor degrades to a serial loop inside each lane —
  /// lanes are the parallel unit; nesting pool batches under them would
  /// serialize every lane on the pool's submission lock.
  static void MarkWorkerThread();

 private:
  void WorkerLoop(int worker);
  /// Blocks until every worker shard of the posted batch has finished.
  void WaitForWorkers();

  int num_threads_ = 1;
  std::mutex submit_mu_;  // serializes top-level ParallelFor submissions
  std::mutex mu_;
  /// wake_[w] wakes worker w, which runs shard w + 1.
  std::vector<std::condition_variable> wake_;
  std::condition_variable done_cv_;
  // The posted batch, guarded by mu_.
  const std::function<void(int, uint64_t, uint64_t)>* fn_ = nullptr;
  uint64_t n_ = 0;
  uint64_t chunk_ = 0;
  int num_shards_ = 0;
  uint64_t epoch_ = 0;
  bool shutdown_ = false;
  std::exception_ptr worker_error_;  // first worker-shard exception
  /// Worker shards of the posted batch that have not finished.
  std::atomic<int> pending_{0};
  std::vector<std::thread> workers_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_UTIL_THREAD_POOL_H_
