// DeltaOverlay: pending edge mutations layered over an immutable base CSR.
//
// The base snapshot is never modified; the overlay records, per source
// vertex, (a) tombstones suppressing all edges to a given target and (b)
// inserted edges in application order. Adjacency iteration merges the two
// on the fly (surviving base edges first, then live inserts), so readers —
// the GraphView the whole execution stack runs on, and the incremental
// recomputation path — see the mutated graph without any CSR rebuild. Once
// the delta grows past the compaction policy threshold (or Engine::Compact
// is called), Engine::Fold folds the overlay into a fresh base via
// Materialize().
//
// Overlays form a parent chain. NewTail(parent) opens an O(1) tail layer
// over an existing overlay: the chain below stays physically immutable (a
// pinned reader's view never changes underneath it) while new batches land
// in the tail, so publication under a racing reader is a pointer swap, not
// an O(delta) copy-on-write clone. A tail's tombstones suppress base edges
// AND inserts of older layers; the logical graph read through the tail is
// always base + the whole chain merged. Collapsed() folds a chain back
// into one layer (the Engine caps chain depth); a single-layer overlay
// (`parent() == nullptr`) takes fast paths everywhere and behaves exactly
// like the pre-chain implementation.
//
// Thread safety: Apply/Reset are writes; everything else is a read. The
// owner (hytgraph::Engine) guarantees readers never observe a write:
// every reader pins the overlay through an OverlayPin (GraphView holds
// one per instance), and ApplyMutations mutates in place only when an
// acquire load of the pin count proves no reader beyond the engine's own
// published view holds the object — otherwise the batch lands in a fresh
// tail layer published when complete. The count must be this explicit
// atomic rather than shared_ptr::use_count(): use_count() is a relaxed
// load, so a reader dropping its pin right before the writer's check
// would not order the reader's finished traversal before the in-place
// writes — a genuine data race under the memory model (and under TSan),
// even though the mutex already serializes pin *creation* against the
// writer. The release-decrement / acquire-load pair restores the edge.

#ifndef HYTGRAPH_DYNAMIC_DELTA_OVERLAY_H_
#define HYTGRAPH_DYNAMIC_DELTA_OVERLAY_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "dynamic/mutation.h"
#include "graph/csr_graph.h"
#include "graph/types.h"
#include "storage/edge_block_store.h"
#include "util/status.h"

namespace hytgraph {

class DeltaOverlay {
 public:
  /// What one Apply() actually changed. `deleted` counts edges removed
  /// (edges newly suppressed — base or older-layer inserts — plus own
  /// overlay inserts erased); a deletion naming a non-existent edge is a
  /// recorded no-op, not an error. `deleted_edges` lists every removed
  /// edge instance with the weight it carried — the Engine's mutation log
  /// feeds the deletion-aware incremental paths from these records.
  struct ApplyStats {
    uint64_t inserted = 0;
    uint64_t deleted = 0;
    std::vector<EdgeRecord> deleted_edges;
  };

  /// `base_store` streams the base adjacency when the base's edge arrays
  /// have been spilled out of core (null = fully resident base).
  explicit DeltaOverlay(std::shared_ptr<const CsrGraph> base,
                        std::shared_ptr<const EdgeBlockStore> base_store =
                            nullptr)
      : base_(std::move(base)), base_store_(std::move(base_store)) {}

  /// Copies/assigns overlay CONTENT only: the pin count is per-object
  /// reader state (outstanding OverlayPins on that object), so it stays
  /// at the target's own value — content copies (Collapsed's
  /// single-layer path) produce unpinned fresh objects.
  DeltaOverlay(const DeltaOverlay& other)
      : base_(other.base_),
        base_store_(other.base_store_),
        parent_(other.parent_),
        depth_(other.depth_),
        deltas_(other.deltas_),
        suppressed_(other.suppressed_),
        inserted_(other.inserted_),
        parent_suppressed_(other.parent_suppressed_) {}
  DeltaOverlay& operator=(const DeltaOverlay& other) {
    base_ = other.base_;
    base_store_ = other.base_store_;
    parent_ = other.parent_;
    depth_ = other.depth_;
    deltas_ = other.deltas_;
    suppressed_ = other.suppressed_;
    inserted_ = other.inserted_;
    parent_suppressed_ = other.parent_suppressed_;
    return *this;
  }

  /// Opens an O(1) tail layer over `parent` (same base, same block store).
  /// The chain below the tail must never be mutated again; readers pinning
  /// `parent` (or any deeper layer) keep an unchanged view while batches
  /// land in the tail. Chaining onto an empty single-layer overlay is
  /// skipped — the tail is then a fresh standalone overlay.
  static std::shared_ptr<DeltaOverlay> NewTail(
      std::shared_ptr<const DeltaOverlay> parent);

  /// Folds the whole chain into an equivalent single-layer overlay over
  /// the same base (the Engine's depth-cap escape hatch). O(delta).
  std::shared_ptr<DeltaOverlay> Collapsed() const;

  /// --- Reader-pin protocol (see the thread-safety note above) ---
  /// Balanced by OverlayPin; counts readers that may traverse this layer
  /// without holding the engine's lock. The increment can be relaxed: a
  /// pin is only ever created under the engine's shared lock or by
  /// copying a still-live pin, both of which the writer's exclusive
  /// section already orders against.
  void AddPin() const { pins_.fetch_add(1, std::memory_order_relaxed); }
  /// Release ordering publishes every read the dropping reader made.
  void ReleasePin() const { pins_.fetch_sub(1, std::memory_order_release); }
  /// Writer-side check: acquire pairs with ReleasePin, so a count at the
  /// engine's own baseline proves all other readers' traversals
  /// happened-before the in-place mutation about to run.
  int64_t reader_pins_acquire() const {
    return pins_.load(std::memory_order_acquire);
  }

  /// Layers in the chain (1 = no tail layers).
  int depth() const { return depth_; }
  const std::shared_ptr<const DeltaOverlay>& parent() const {
    return parent_;
  }

  const CsrGraph& base() const { return *base_; }
  std::shared_ptr<const CsrGraph> base_ptr() const { return base_; }
  const std::shared_ptr<const EdgeBlockStore>& base_store() const {
    return base_store_;
  }

  VertexId num_vertices() const { return base_->num_vertices(); }
  /// Edge count of the mutated graph (base - suppressed + live inserts),
  /// merged over the whole chain.
  EdgeId num_edges() const {
    return base_->num_edges() - TotalSuppressedBase() + TotalLiveInserted();
  }
  bool is_weighted() const { return base_->is_weighted(); }

  /// No pending mutations: the overlay is a transparent view of the base.
  /// Deliberately conservative for chains — a multi-layer chain whose
  /// deltas happen to cancel still reports non-empty, so the fold path
  /// (which also collapses the chain) is never skipped.
  bool empty() const {
    return parent_ == nullptr && suppressed_ == 0 && inserted_ == 0;
  }
  /// Pending delta size (suppressed base edges + live inserted edges) —
  /// the quantity compaction policies threshold on.
  uint64_t delta_edges() const {
    return TotalSuppressedBase() + TotalLiveInserted();
  }

  /// Applies `batch` in order. The batch must already be Validate()d
  /// against num_vertices(); out-of-range endpoints are a checked error.
  Result<ApplyStats> Apply(const MutationBatch& batch);

  /// Out-degree of v in the mutated graph. O(depth): each layer keeps its
  /// per-vertex degree contribution incrementally maintained by Apply.
  EdgeId out_degree(VertexId v) const {
    int64_t delta = 0;
    for (const DeltaOverlay* layer = this; layer != nullptr;
         layer = layer->parent_.get()) {
      auto it = layer->deltas_.find(v);
      if (it == layer->deltas_.end()) continue;
      delta += static_cast<int64_t>(it->second.inserts.size()) -
               static_cast<int64_t>(it->second.suppressed) -
               static_cast<int64_t>(it->second.parent_suppressed);
    }
    return static_cast<EdgeId>(
        static_cast<int64_t>(base_->out_degree(v)) + delta);
  }

  /// Whether v has any pending delta (inserts or tombstones) in any layer.
  /// Readers use this to keep the zero-delta fast path (plain base spans)
  /// per vertex.
  bool HasDelta(VertexId v) const {
    for (const DeltaOverlay* layer = this; layer != nullptr;
         layer = layer->parent_.get()) {
      if (layer->deltas_.contains(v)) return true;
    }
    return false;
  }

  /// Whether base edges v -> dst are suppressed by a tombstone in any
  /// layer of the chain.
  bool IsTombstoned(VertexId v, VertexId dst) const {
    for (const DeltaOverlay* layer = this; layer != nullptr;
         layer = layer->parent_.get()) {
      auto it = layer->deltas_.find(v);
      if (it != layer->deltas_.end() && it->second.IsTombstoned(dst)) {
        return true;
      }
    }
    return false;
  }

  /// Visits every vertex with a pending delta in some layer, deduplicated
  /// across the chain (unspecified order).
  template <typename Fn>
  void ForEachDeltaVertex(Fn&& fn) const {
    if (parent_ == nullptr) {
      for (const auto& [v, delta] : deltas_) fn(v);
      return;
    }
    std::unordered_set<VertexId> seen;
    for (const DeltaOverlay* layer = this; layer != nullptr;
         layer = layer->parent_.get()) {
      for (const auto& [v, delta] : layer->deltas_) {
        if (seen.insert(v).second) fn(v);
      }
    }
  }

  /// Visits v's *live* overlay inserts in application order (oldest layer
  /// first) as (target, weight). An insert recorded in one layer and
  /// deleted by a newer layer's tombstone is skipped — chain readers only
  /// ever see edges of the merged logical graph.
  template <typename Fn>
  void ForEachInsert(VertexId v, Fn&& fn) const {
    if (parent_ == nullptr) {
      auto it = deltas_.find(v);
      if (it == deltas_.end()) return;
      for (const auto& [dst, w] : it->second.inserts) fn(dst, w);
      return;
    }
    const Chain chain = CollectChain(v);
    ForEachLiveInsertInChain(chain, std::forward<Fn>(fn));
  }

  /// Visits v's tombstoned targets in ascending order, deduplicated across
  /// the chain. For a single layer every listed target suppresses at least
  /// one edge (Apply never records a no-op); in a chain a tail tombstone
  /// may suppress only older-layer inserts, no base edges — consumers
  /// treating these as "base edges to filter" stay correct, just
  /// conservative.
  template <typename Fn>
  void ForEachTombstone(VertexId v, Fn&& fn) const {
    if (parent_ == nullptr) {
      auto it = deltas_.find(v);
      if (it == deltas_.end()) return;
      for (VertexId dst : it->second.tombstones) fn(dst);
      return;
    }
    std::vector<VertexId> merged;
    for (const DeltaOverlay* layer = this; layer != nullptr;
         layer = layer->parent_.get()) {
      auto it = layer->deltas_.find(v);
      if (it == layer->deltas_.end()) continue;
      merged.insert(merged.end(), it->second.tombstones.begin(),
                    it->second.tombstones.end());
    }
    std::sort(merged.begin(), merged.end());
    merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
    for (VertexId dst : merged) fn(dst);
  }

  /// Visits every out-edge of v in the mutated graph: surviving base edges
  /// in CSR order, then live overlay inserts in application order. `fn`
  /// receives (target, weight); weight is 1 when the base is unweighted,
  /// mirroring the kernels' convention.
  template <typename Fn>
  void ForEachNeighbor(VertexId v, Fn&& fn) const {
    BlockRef lease;
    ForEachNeighborLeased(v, &lease, std::forward<Fn>(fn));
  }

  /// Lease-carrying variant for ascending scans over an out-of-core base:
  /// consecutive vertices of the same block reuse the pinned lease instead
  /// of re-acquiring it from the cache.
  template <typename Fn>
  void ForEachNeighborLeased(VertexId v, BlockRef* lease, Fn&& fn) const {
    std::span<const VertexId> nbrs;
    std::span<const Weight> wts;
    if (base_store_ != nullptr) {
      const AdjacencyRun run = base_store_->Fetch(v, lease);
      nbrs = run.targets;
      wts = run.weights;
    } else {
      nbrs = base_->neighbors(v);
      wts = base_->weights(v);
    }
    if (parent_ == nullptr) {
      auto it = deltas_.find(v);
      if (it == deltas_.end()) {
        for (size_t e = 0; e < nbrs.size(); ++e) {
          fn(nbrs[e], wts.empty() ? Weight{1} : wts[e]);
        }
        return;
      }
      const VertexDelta& delta = it->second;
      for (size_t e = 0; e < nbrs.size(); ++e) {
        if (delta.IsTombstoned(nbrs[e])) continue;
        fn(nbrs[e], wts.empty() ? Weight{1} : wts[e]);
      }
      const bool weighted = is_weighted();
      for (const auto& [dst, w] : delta.inserts) {
        fn(dst, weighted ? w : Weight{1});
      }
      return;
    }

    const Chain chain = CollectChain(v);
    if (!chain.any_delta) {
      for (size_t e = 0; e < nbrs.size(); ++e) {
        fn(nbrs[e], wts.empty() ? Weight{1} : wts[e]);
      }
      return;
    }
    for (size_t e = 0; e < nbrs.size(); ++e) {
      bool tombstoned = false;
      for (const VertexDelta* delta : chain.deltas) {
        if (delta != nullptr && delta->IsTombstoned(nbrs[e])) {
          tombstoned = true;
          break;
        }
      }
      if (tombstoned) continue;
      fn(nbrs[e], wts.empty() ? Weight{1} : wts[e]);
    }
    const bool weighted = is_weighted();
    ForEachLiveInsertInChain(chain, [&](VertexId dst, Weight w) {
      fn(dst, weighted ? w : Weight{1});
    });
  }

  /// Folds base + delta into a fresh standalone CSR (the compaction
  /// product). Weightedness follows the base.
  Result<CsrGraph> Materialize() const;

  /// Drops all pending mutations (and any parent chain) and re-anchors the
  /// overlay on `new_base` (the snapshot a compaction just produced) with
  /// its block store (null when the new base is fully resident).
  void Reset(std::shared_ptr<const CsrGraph> new_base,
             std::shared_ptr<const EdgeBlockStore> new_store = nullptr) {
    base_ = std::move(new_base);
    base_store_ = std::move(new_store);
    deltas_.clear();
    parent_.reset();
    depth_ = 1;
    suppressed_ = 0;
    inserted_ = 0;
    parent_suppressed_ = 0;
  }

 private:
  struct VertexDelta {
    std::vector<std::pair<VertexId, Weight>> inserts;
    std::vector<VertexId> tombstones;  // sorted target ids
    /// Base edges hidden by `tombstones` (counts parallel edges) — keeps
    /// out_degree cheap instead of re-filtering the base adjacency.
    EdgeId suppressed = 0;
    /// Older-layer overlay inserts hidden by `tombstones`. Always 0 on a
    /// single-layer overlay.
    EdgeId parent_suppressed = 0;

    bool IsTombstoned(VertexId dst) const {
      return std::binary_search(tombstones.begin(), tombstones.end(), dst);
    }
    bool Empty() const { return inserts.empty() && tombstones.empty(); }
  };

  /// Per-layer VertexDelta pointers for one vertex, tail first (index 0 =
  /// this layer, last = root). Null entries mean "no delta in that layer".
  struct Chain {
    std::vector<const VertexDelta*> deltas;
    bool any_delta = false;
  };

  Chain CollectChain(VertexId v) const {
    Chain chain;
    chain.deltas.reserve(static_cast<size_t>(depth_));
    for (const DeltaOverlay* layer = this; layer != nullptr;
         layer = layer->parent_.get()) {
      auto it = layer->deltas_.find(v);
      const VertexDelta* delta =
          it == layer->deltas_.end() ? nullptr : &it->second;
      chain.deltas.push_back(delta);
      chain.any_delta |= delta != nullptr;
    }
    return chain;
  }

  /// Emits the chain's live inserts in application order: oldest layer
  /// first, each insert filtered by tombstones of strictly newer layers
  /// (own-layer deletes already erased their inserts physically).
  template <typename Fn>
  void ForEachLiveInsertInChain(const Chain& chain, Fn&& fn) const {
    for (size_t i = chain.deltas.size(); i-- > 0;) {
      const VertexDelta* delta = chain.deltas[i];
      if (delta == nullptr) continue;
      for (const auto& [dst, w] : delta->inserts) {
        bool dead = false;
        for (size_t j = 0; j < i; ++j) {  // strictly newer layers
          if (chain.deltas[j] != nullptr &&
              chain.deltas[j]->IsTombstoned(dst)) {
            dead = true;
            break;
          }
        }
        if (!dead) fn(dst, w);
      }
    }
  }

  uint64_t TotalSuppressedBase() const {
    uint64_t total = 0;
    for (const DeltaOverlay* layer = this; layer != nullptr;
         layer = layer->parent_.get()) {
      total += layer->suppressed_;
    }
    return total;
  }
  uint64_t TotalLiveInserted() const {
    int64_t total = 0;
    for (const DeltaOverlay* layer = this; layer != nullptr;
         layer = layer->parent_.get()) {
      total += static_cast<int64_t>(layer->inserted_) -
               static_cast<int64_t>(layer->parent_suppressed_);
    }
    return static_cast<uint64_t>(total);
  }

  std::shared_ptr<const CsrGraph> base_;
  /// Streams base adjacency when the base is out of core; null otherwise.
  std::shared_ptr<const EdgeBlockStore> base_store_;
  /// The immutable layer below this one (null for a single-layer overlay).
  /// Chains share the same base_/base_store_.
  std::shared_ptr<const DeltaOverlay> parent_;
  int depth_ = 1;
  std::unordered_map<VertexId, VertexDelta> deltas_;
  uint64_t suppressed_ = 0;  // base edges hidden by own tombstones
  uint64_t inserted_ = 0;    // own overlay inserts physically present
  /// Older-layer inserts hidden by own tombstones (0 on a single layer).
  uint64_t parent_suppressed_ = 0;
  /// Outstanding OverlayPins on this layer (mutable: pinning a const
  /// overlay is how readers work).
  mutable std::atomic<int64_t> pins_{0};
};

/// RAII reader pin on a DeltaOverlay (see the thread-safety note in the
/// header comment): every live GraphView holds one for its overlay, and
/// the Engine's background fold holds one across its off-lock
/// Materialize. Copying pins again; moving transfers the pin. The guard
/// keeps the overlay alive itself, so holders need no separate
/// shared_ptr for lifetime.
class OverlayPin {
 public:
  OverlayPin() = default;
  explicit OverlayPin(std::shared_ptr<const DeltaOverlay> overlay)
      : overlay_(std::move(overlay)) {
    if (overlay_ != nullptr) overlay_->AddPin();
  }
  OverlayPin(const OverlayPin& other) : OverlayPin(other.overlay_) {}
  OverlayPin(OverlayPin&& other) noexcept
      : overlay_(std::move(other.overlay_)) {}
  OverlayPin& operator=(const OverlayPin& other) {
    OverlayPin tmp(other);
    overlay_.swap(tmp.overlay_);
    return *this;
  }
  OverlayPin& operator=(OverlayPin&& other) noexcept {
    OverlayPin tmp(std::move(other));
    overlay_.swap(tmp.overlay_);
    return *this;
  }
  ~OverlayPin() {
    if (overlay_ != nullptr) overlay_->ReleasePin();
  }

 private:
  std::shared_ptr<const DeltaOverlay> overlay_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_DYNAMIC_DELTA_OVERLAY_H_
