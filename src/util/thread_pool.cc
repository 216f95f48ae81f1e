#include "util/thread_pool.h"

#include <algorithm>

#if defined(__linux__)
#include <sched.h>
#endif

#include "util/math_util.h"

namespace hytgraph {

namespace {
/// CPUs the calling thread may run on: its affinity mask on Linux (so a
/// run under taskset or a cpuset sizes to what it was given), else
/// hardware_concurrency(). 0 when neither is known.
int AvailableCpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
#endif
  return static_cast<int>(std::thread::hardware_concurrency());
}

/// Set for the lifetime of every pool worker thread, and on a caller while
/// it runs its inline shard; nested ParallelFor calls detect it and degrade
/// to a serial loop (a shard blocking on a nested submission would deadlock
/// the batch it is part of).
thread_local bool tls_in_pool_worker = false;
}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = AvailableCpus();
    if (num_threads <= 0) num_threads = 4;
  }
  num_threads_ = num_threads;
  wake_ = std::vector<std::condition_variable>(num_threads - 1);
  workers_.reserve(num_threads - 1);
  for (int w = 0; w < num_threads - 1; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  for (auto& cv : wake_) cv.notify_one();
  for (auto& t : workers_) t.join();
}

void ThreadPool::WorkerLoop(int worker) {
  tls_in_pool_worker = true;
  const int shard = worker + 1;  // shard 0 is the caller's
  uint64_t seen_epoch = 0;
  while (true) {
    const std::function<void(int, uint64_t, uint64_t)>* fn = nullptr;
    uint64_t begin = 0;
    uint64_t end = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_[worker].wait(lock, [&] {
        return shutdown_ || (epoch_ != seen_epoch && shard < num_shards_);
      });
      if (shutdown_) return;
      seen_epoch = epoch_;
      fn = fn_;
      begin = static_cast<uint64_t>(shard) * chunk_;
      end = std::min(n_, begin + chunk_);
    }
    if (begin < end) {
      try {
        (*fn)(shard, begin, end);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu_);
        if (!worker_error_) worker_error_ = std::current_exception();
      }
    }
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      done_cv_.notify_one();
    }
  }
}

void ThreadPool::WaitForWorkers() {
  if (pending_.load(std::memory_order_acquire) == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::ParallelFor(
    uint64_t n,
    const std::function<void(int shard, uint64_t begin, uint64_t end)>& fn,
    uint64_t min_grain) {
  if (n == 0) return;
  if (tls_in_pool_worker || n <= min_grain || num_threads_ <= 1) {
    fn(0, 0, n);
    return;
  }
  // One batch in flight at a time: concurrent top-level callers (e.g. two
  // Engine queries on user threads) queue here rather than clobbering the
  // posted batch.
  std::lock_guard<std::mutex> submit_lock(submit_mu_);
  const int num_shards = static_cast<int>(
      std::min<uint64_t>(num_threads_, CeilDiv(n, min_grain)));
  const uint64_t chunk = CeilDiv(n, num_shards);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    n_ = n;
    chunk_ = chunk;
    num_shards_ = num_shards;
    worker_error_ = nullptr;
    pending_.store(num_shards - 1, std::memory_order_relaxed);
    ++epoch_;
  }
  for (int w = 0; w + 1 < num_shards; ++w) wake_[w].notify_one();

  // Shard 0 runs here, marked as a worker so a nested ParallelFor runs
  // serially instead of blocking on submit_mu_, which this thread holds.
  // The scope restores the mark and waits out the workers (which still
  // reference `fn`) even if the shard throws.
  {
    struct CallerShard {
      ThreadPool* pool;
      ~CallerShard() {
        tls_in_pool_worker = false;
        pool->WaitForWorkers();
      }
    } scope{this};
    tls_in_pool_worker = true;
    fn(0, 0, std::min(n, chunk));
  }
  // Every worker has finished, so nothing writes worker_error_ now.
  if (worker_error_) std::rethrow_exception(worker_error_);
}

ThreadPool* ThreadPool::Default() {
  static ThreadPool* pool = new ThreadPool();
  return pool;
}

bool ThreadPool::InWorkerThread() { return tls_in_pool_worker; }

}  // namespace hytgraph
