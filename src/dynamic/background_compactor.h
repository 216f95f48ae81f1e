// BackgroundCompactor: a supervised worker thread that drains a request
// queue by running one cycle callback per drain. The Engine runs two: the
// fold worker (CompactionMode::kBackground), so the O(E) fold never runs on
// a mutator's thread, and the ingest drainer behind EnqueueMutations. The
// Engine requests a fold when the pending delta crosses the
// CompactionPolicy threshold; requests that pile up while a cycle runs are
// coalesced, since a single fold absorbs every delta pending at capture
// time.
//
// The compactor knows nothing about graphs: it runs an opaque cycle
// callback (Engine::BackgroundFoldCycle, which runs the Engine's one fold,
// Engine::Fold — the same fold kThreshold and Compact() run on the
// caller's thread). That keeps the queue mechanics (worker lifecycle,
// coalescing, idle barrier, shutdown) testable in isolation.
//
// Supervision: the cycle returns a CycleResult. A failed cycle (storage
// fault, injected fault, or a thrown exception — caught here) is parked
// for retry after its backoff instead of crashing the worker. A parked
// retry does NOT count as busy for WaitIdle: a degraded compactor must not
// deadlock readers behind WaitForCompaction — they keep serving on the
// unfolded overlay chain. WaitSettled() is the stronger barrier that also
// waits out parked retries (used by ingest, where a parked batch still
// holds unpublished mutations).
//
// Shutdown: Stop() (and the destructor) wakes the worker, abandons any
// not-yet-started requests and parked retries, waits for an in-flight
// cycle to finish, and joins. The Engine destroys its BackgroundCompactor
// before any other member so a mid-cycle fold never touches freed engine
// state.

#ifndef HYTGRAPH_DYNAMIC_BACKGROUND_COMPACTOR_H_
#define HYTGRAPH_DYNAMIC_BACKGROUND_COMPACTOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

namespace hytgraph {

/// What one worker cycle asks of its supervisor: nothing (done), or a
/// retry after `backoff`. Cycles are written to be re-runnable — a failed
/// fold abandons its capture, a failed ingest drain keeps the batch queued.
struct CycleResult {
  bool retry = false;
  std::chrono::microseconds backoff{0};
};

class BackgroundCompactor {
 public:
  struct Stats {
    /// RequestFold calls accepted (requests after Stop are dropped).
    uint64_t requested = 0;
    /// Fold cycles the worker started.
    uint64_t started = 0;
    /// Fold cycles that ran to completion.
    uint64_t completed = 0;
    /// Requests satisfied by an already-pending cycle instead of their own.
    uint64_t coalesced = 0;
    /// Cycles that failed and were parked for retry.
    uint64_t retries = 0;
  };

  /// Spawns the worker immediately; it sleeps until the first request.
  /// `cycle` is invoked once per queue drain, on the worker thread, with
  /// no BackgroundCompactor lock held. A thrown exception is treated as
  /// {retry, 1ms}.
  explicit BackgroundCompactor(std::function<CycleResult()> cycle);

  /// Adapter for infallible cycles: a void callable always completes.
  template <typename F,
            typename = std::enable_if_t<
                std::is_void_v<std::invoke_result_t<F&>>>>
  explicit BackgroundCompactor(F cycle)
      : BackgroundCompactor(std::function<CycleResult()>(
            [c = std::move(cycle)]() mutable {
              c();
              return CycleResult{};
            })) {}

  BackgroundCompactor(const BackgroundCompactor&) = delete;
  BackgroundCompactor& operator=(const BackgroundCompactor&) = delete;

  /// Stops and joins the worker (see Stop()).
  ~BackgroundCompactor();

  /// Enqueues a fold. Cheap and non-blocking: requests landing while a
  /// cycle is pending or running coalesce into the next drain. No-op after
  /// Stop().
  void RequestFold();

  /// Blocks until the queue is empty and no cycle is running — the
  /// publication barrier callers use to observe every fold they requested.
  /// A parked retry counts as idle (degraded, not busy), so a permanently
  /// failing cycle cannot deadlock this barrier. Returns immediately after
  /// Stop().
  void WaitIdle();

  /// Like WaitIdle, but additionally waits out parked retries: returns
  /// only when no work — running, queued, or awaiting retry — remains.
  /// Blocks for as long as the cycle keeps failing; callers disarm the
  /// failure first (tests) or accept the wait (ingest flush).
  void WaitSettled();

  /// Abandons queued requests and parked retries, waits for an in-flight
  /// cycle to complete, and joins the worker. Idempotent.
  void Stop();

  Stats stats() const;

 private:
  void Loop();
  CycleResult RunCycleGuarded();

  std::function<CycleResult()> cycle_;
  mutable std::mutex mu_;
  std::condition_variable wake_cv_;  // worker wakeups
  std::condition_variable idle_cv_;  // WaitIdle / WaitSettled / completion
  uint64_t pending_ = 0;
  bool cycle_running_ = false;
  bool retry_armed_ = false;
  std::chrono::steady_clock::time_point retry_at_{};
  bool stop_ = false;
  Stats stats_;
  std::thread worker_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_DYNAMIC_BACKGROUND_COMPACTOR_H_
