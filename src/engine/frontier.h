// Active-vertex frontier, bitmap-directed (Section VI-C: "bitmap-directed
// frontier optimization to reduce the atomic conflict of active vertex
// maintenance"). The solver keeps two frontiers (current / next) and swaps
// them between iterations; push engines collect sorted active lists from
// the bitmap, pull engines scan the bitmap words directly (no list
// materialization).
//
// The active count is maintained incrementally, so CountActive()/Empty()
// are O(1) instead of an O(V/64) popcount per call — the per-iteration
// direction decision and the convergence check read it every iteration.
// Single activations (Activate/Deactivate) update the shared counter
// directly. The kernels and the extra-round drain instead flip bits with
// MarkActive/MarkInactive, tally the flips in shard-local counters, and
// publish the tally with one AddCounts per shard, so the counter lines
// take a handful of adds per kernel rather than an RMW per activation.
// The counts are exact once every shard has published, i.e. after the
// kernel returns.
//
// The frontier also tracks the *scout count* (Beamer's term): the sum of
// view-adjusted out-degrees of the active vertices — the m_f the auto
// push->pull direction decision compares against |E|/alpha. The kernels
// keep it exact: they read a vertex's out-degree when its bit flips and
// publish the sum with the active count. Producers that do not know the
// degree (program InitFrontier hooks) use the plain Activate, which marks
// the scout count invalid — the solver then falls back to the O(n_f)
// FrontierActiveEdges bitmap scan for that one decision instead of
// trusting a stale sum. Steady-state iterations therefore pay no
// per-iteration scan at all.

#ifndef HYTGRAPH_ENGINE_FRONTIER_H_
#define HYTGRAPH_ENGINE_FRONTIER_H_

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph_view.h"
#include "graph/types.h"
#include "util/atomic_bitmap.h"

namespace hytgraph {

class Frontier {
 public:
  explicit Frontier(VertexId num_vertices) : bitmap_(num_vertices) {}

  /// Sized for a live view (the vertex universe is overlay-invariant, so
  /// this is the base vertex count).
  explicit Frontier(const GraphView& view) : bitmap_(view.num_vertices()) {}

  /// Thread-safe activation; returns true if v was newly activated. The
  /// caller does not supply v's out-degree, so the scout count goes
  /// invalid (the next direction decision rescans the bitmap).
  bool Activate(VertexId v) {
    if (!bitmap_.TestAndSet(v)) return false;
    scout_valid_.store(false, std::memory_order_relaxed);
    active_count_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Thread-safe deactivation. Invalidates the scout count.
  void Deactivate(VertexId v) {
    if (bitmap_.TestAndClear(v)) {
      scout_valid_.store(false, std::memory_order_relaxed);
      active_count_.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  /// Thread-safe bit set that leaves the counts alone; returns true if v
  /// was newly activated. The caller owes the counts: it tallies every
  /// true return with v's out-degree (as in the view this frontier spans,
  /// the degrees FrontierActiveEdges would sum) and publishes the tally
  /// through AddCounts.
  bool MarkActive(VertexId v) { return bitmap_.TestAndSet(v); }

  /// Mirror of MarkActive: clears v's bit, true if it was set; the caller
  /// publishes the negative tally.
  bool MarkInactive(VertexId v) { return bitmap_.TestAndClear(v); }

  /// Publishes one producer's tally of MarkActive/MarkInactive flips:
  /// `active` net bits set and `scout` the net sum of their out-degrees
  /// (both negative for a drain). Keeps the scout count exact.
  void AddCounts(int64_t active, int64_t scout) {
    // Two's-complement wrap: adding the unsigned image of a negative
    // delta subtracts it.
    active_count_.fetch_add(static_cast<uint64_t>(active),
                            std::memory_order_relaxed);
    scout_count_.fetch_add(static_cast<uint64_t>(scout),
                           std::memory_order_relaxed);
  }

  bool IsActive(VertexId v) const { return bitmap_.Test(v); }

  /// O(1): incrementally maintained, not a bitmap rescan.
  uint64_t CountActive() const {
    return active_count_.load(std::memory_order_relaxed);
  }
  bool Empty() const { return CountActive() == 0; }

  /// True while every activation/deactivation since the last Clear was
  /// counted through AddCounts — i.e. ScoutCount() equals the
  /// FrontierActiveEdges bitmap scan exactly (once the producers have
  /// published).
  bool ScoutValid() const {
    return scout_valid_.load(std::memory_order_relaxed);
  }

  /// Sum of active vertices' out-degrees (Beamer's scout_count).
  /// Meaningful only when ScoutValid().
  uint64_t ScoutCount() const {
    return scout_count_.load(std::memory_order_relaxed);
  }

  VertexId num_vertices() const {
    return static_cast<VertexId>(bitmap_.size());
  }

  /// All active vertices, ascending.
  std::vector<VertexId> Collect() const;

  /// All active vertices, ascending, into a caller-owned buffer (cleared
  /// first). Reusing one buffer across iterations avoids the per-iteration
  /// active-list reallocation.
  void CollectInto(std::vector<VertexId>* out) const;

  /// Active vertices within [begin, end), ascending, appended to out.
  void CollectRange(VertexId begin, VertexId end,
                    std::vector<VertexId>* out) const;

  /// Collects active vertices in [begin, end) AND clears their bits — the
  /// primitive behind asynchronous extra rounds (take the pending set,
  /// consume it).
  std::vector<VertexId> DrainRange(VertexId begin, VertexId end);

  void Clear() {
    bitmap_.ClearAll();
    active_count_.store(0, std::memory_order_relaxed);
    scout_count_.store(0, std::memory_order_relaxed);
    scout_valid_.store(true, std::memory_order_relaxed);
  }

  /// The bitmap words, for dense iteration (pull kernels test membership
  /// and scan candidates without an active-list materialization). Bit v of
  /// the frontier lives at Words()[v / kBitsPerWord].
  std::span<const std::atomic<uint64_t>> Words() const {
    return bitmap_.words();
  }
  static constexpr uint64_t kBitsPerWord = AtomicBitmap::kBitsPerWord;

 private:
  AtomicBitmap bitmap_;
  std::atomic<uint64_t> active_count_{0};
  std::atomic<uint64_t> scout_count_{0};
  std::atomic<bool> scout_valid_{true};
};

}  // namespace hytgraph

#endif  // HYTGRAPH_ENGINE_FRONTIER_H_
