#include "core/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "dynamic/incremental.h"
#include "graph/degree_stats.h"
#include "util/fault_injection.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hytgraph {

namespace {

/// Cache key for a preparation. Everything that does not call for the hub
/// sort shares one identity preparation; hub-sorted preparations are keyed
/// by the fraction that shaped the order. (Entries additionally carry the
/// epoch they were built against; a fingerprint match from a stale epoch is
/// invalidated lazily on lookup.)
std::string PreparationFingerprint(const SolverOptions& options) {
  if (!PreparedGraph::WantsReorder(options)) return "identity";
  char buf[48];
  std::snprintf(buf, sizeof(buf), "hub-sorted:%.17g", options.hub_fraction);
  return buf;
}

}  // namespace

Engine::Engine(CsrGraph graph, SolverOptions default_options,
               CompactionPolicy compaction, StorageOptions storage)
    : default_options_(std::move(default_options)),
      storage_options_(storage),
      compactor_(compaction) {
  auto base = std::make_shared<CsrGraph>(std::move(graph));
  if (storage_options_.enabled()) {
    block_cache_ = std::make_shared<BlockCache>(
        storage_options_.memory_budget_bytes, storage_options_.cache_sections);
    prefetcher_ = std::make_shared<Prefetcher>(storage_options_.io_threads);
    store_ = MaybeSpill(base, /*sibling_of=*/nullptr);
    if (store_ == nullptr) {
      // MaybeSpill logged the failure; fall back to fully in-memory.
      block_cache_.reset();
      prefetcher_.reset();
    }
  }
  base_ = std::move(base);
  num_vertices_ = base_->num_vertices();
  // Created non-const (stored through a pointer-to-const): the in-place
  // publication path writes through a const_cast, which is only defined
  // for objects that were not created const.
  overlay_ = std::make_shared<DeltaOverlay>(base_, store_);
  view_ = GraphView(base_, overlay_, store_);
  default_source_ = HighestOutDegreeVertex(view_);
  if (default_source_ != kInvalidVertex) {
    default_source_degree_ = view_.out_degree(default_source_);
  }
  if (compaction.mode == CompactionMode::kBackground) {
    background_ = std::make_unique<BackgroundCompactor>(
        std::function<CycleResult()>([this] { return BackgroundFoldCycle(); }));
  }
  // The ingest drainer exists in every mode (its worker sleeps until the
  // first EnqueueMutations), so the wait-free admission path needs no
  // policy opt-in.
  ingest_ = std::make_unique<BackgroundCompactor>(
      std::function<CycleResult()>([this] { return IngestCycle(); }));
}

bool Engine::out_of_core() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return store_ != nullptr;
}

StorageStats Engine::storage_stats() const {
  return block_cache_ == nullptr ? StorageStats{} : block_cache_->stats();
}

EngineHealth Engine::Health() const { return health_.Snapshot(); }

uint64_t Engine::StorageFailureMark() const {
  return block_cache_ == nullptr ? 0 : block_cache_->fetch_failures();
}

Status Engine::CheckStorageSince(uint64_t mark, const char* what) const {
  if (block_cache_ == nullptr) return Status::OK();
  if (block_cache_->fetch_failures() == mark) {
    health_.ReportSuccess("storage");
    return Status::OK();
  }
  const Status cause = block_cache_->last_fetch_error();
  health_.ReportFailure("storage", cause.ToString());
  return Status::Unavailable(std::string(what) +
                             " aborted: a block load failed (" +
                             cause.ToString() + ")");
}

std::shared_ptr<const EdgeBlockStore> Engine::MaybeSpill(
    const std::shared_ptr<CsrGraph>& fresh,
    const std::shared_ptr<const EdgeBlockStore>& sibling_of) const {
  if (block_cache_ == nullptr && sibling_of == nullptr) return nullptr;
  Result<std::shared_ptr<EdgeBlockStore>> spilled =
      sibling_of != nullptr
          ? sibling_of->SpillSibling(fresh)
          : EdgeBlockStore::Spill(fresh, block_cache_, prefetcher_,
                                  storage_options_);
  if (!spilled.ok()) {
    HYT_LOG(Warning) << "edge-block spill failed ("
                     << spilled.status().ToString()
                     << "); keeping the snapshot in memory";
    return nullptr;
  }
  fresh->ReleaseEdgeData();
  return std::move(spilled).value();
}

Engine::~Engine() {
  // Join the ingest drainer first (its cycle can enqueue folds on the
  // fold worker), then the fold worker, before any member they touch is
  // destroyed. Batches still queued at teardown are dropped.
  ingest_.reset();
  background_.reset();
  // Drain in-flight read-ahead while this engine still holds its store
  // references. A running job briefly owns a strong store ref; if the
  // engine's refs died first, the IO thread would drop the last one, and
  // the store's teardown would cascade into the prefetcher destroying
  // itself from its own worker (a self-join). After WaitIdle the members
  // tear down on this thread in declaration order: stores first, then the
  // (now idle) prefetcher and cache.
  if (prefetcher_ != nullptr) prefetcher_->WaitIdle();
}

Engine::ViewRef Engine::CurrentViewRef() const {
  {
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    if (!default_source_dirty_) {
      return ViewRef{view_, epoch_, layout_version_, default_source_};
    }
  }
  RepairDefaultSourceIfDirty();
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return ViewRef{view_, epoch_, layout_version_, default_source_};
}

void Engine::RepairDefaultSourceIfDirty() const {
  GraphView view;
  uint64_t epoch = 0;
  uint64_t layout = 0;
  {
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    if (!default_source_dirty_) return;
    view = view_;
    epoch = epoch_;
    layout = layout_version_;
  }
  // The O(V) rescan runs on the pinned view with no lock held — mutators
  // are never blocked on it.
  const VertexId best = HighestOutDegreeVertex(view);
  const EdgeId degree =
      best == kInvalidVertex ? 0 : view.out_degree(best);
  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  // Install only when NEITHER the epoch nor the layout moved under the
  // rescan. The epoch check alone is not enough: a fold (or an inline
  // chain collapse) republishes the view with the same epoch but a
  // new layout, and a batch replayed onto the folded base during the fold
  // window can change degrees the rescan never saw — installing the stale
  // argmax would pin a wrong default source until the next deletion.
  if (default_source_dirty_ && epoch_ == epoch && layout_version_ == layout) {
    default_source_ = best;
    default_source_degree_ = degree;
    default_source_dirty_ = false;
  }
  // A mutation or fold raced the rescan: leave the entry dirty; the next
  // reader repairs against the newer snapshot.
}

const CsrGraph& Engine::graph() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return *base_;
}

std::shared_ptr<const CsrGraph> Engine::Snapshot() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return base_;
}

GraphView Engine::View() const { return CurrentViewRef().view; }

VertexId Engine::DefaultSource() const {
  return CurrentViewRef().default_source;
}

uint64_t Engine::epoch() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return epoch_;
}

uint64_t Engine::pending_delta_edges() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return overlay_->delta_edges();
}

SnapshotCompactor::Stats Engine::compactor_stats() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return compactor_.stats();
}

void Engine::PublishLocked(bool new_layout) {
  GraphView next(base_, overlay_, store_);
  // The reverse transpose depends only on the base: while the base is
  // unchanged, the old view's (possibly built) transpose seeds the new one
  // and pull queries skip the O(E) re-transpose. A fold's new base starts
  // unseeded.
  if (view_.base_ptr() == base_) {
    next.SeedReverseBase(view_.reverse_base_if_built(),
                         view_.reverse_store_if_built());
  }
  // Rebuilding the view also drops the previous (possibly already-built)
  // lazy offset index; O(1) — the index builds on first read.
  view_ = std::move(next);
  if (new_layout) {
    // The logical graph is unchanged (the epoch and default source stay
    // put), but cached preparations pin the old base + overlay — keeping
    // them would defeat the point of compacting (shedding overlay overhead
    // and the old snapshot's memory), and the epoch-based lazy
    // invalidation cannot catch them. Drop them; in-flight queries keep
    // their own shared_ptrs, and the layout-version bump lazily
    // invalidates any entry a racing plan re-inserts against the old
    // layout.
    ++layout_version_;
    ClearPreparedCache();
  }
}

Result<bool> Engine::Fold(bool only_if_due) {
  std::lock_guard<std::mutex> fold_lock(fold_mu_);
  std::shared_ptr<const DeltaOverlay> captured;
  std::shared_ptr<const EdgeBlockStore> old_store;
  // The capture is read off-lock by Materialize below; the pin makes
  // racing ApplyMutations land in tail layers instead of mutating the
  // captured chain in place (same discipline as a pinned query view).
  OverlayPin fold_pin;
  {
    std::unique_lock<std::shared_mutex> lock(graph_mu_);
    // A caller that waited on fold_mu_ behind another fold re-checks the
    // threshold: that fold may already have absorbed its delta.
    if (overlay_->empty() ||
        (only_if_due && !compactor_.ShouldCompact(*overlay_))) {
      return false;
    }
    fold_in_flight_ = true;
    fold_window_.clear();
    captured = overlay_;
    fold_pin = OverlayPin(captured);
    old_store = store_;
  }

  std::shared_ptr<CsrGraph> new_base;
  std::shared_ptr<const EdgeBlockStore> new_store;
  std::shared_ptr<DeltaOverlay> new_overlay;
  double fold_seconds = 0.0;
  size_t replayed = 0;
  // Batches that raced the fold are replayed onto the new base. The folded
  // CSR equals old base + captured overlay, so replaying the window in
  // order reproduces exactly the live logical graph (same epochs — those
  // were assigned when the batches first landed).
  auto replay = [&](const MutationBatch& batch) -> Status {
    const uint64_t mark = StorageFailureMark();
    HYT_RETURN_NOT_OK(new_overlay->Apply(batch).status());
    return CheckStorageSince(mark, "fold replay");
  };
  // Everything up to the last sliver of the replay runs off graph_mu_, so
  // concurrent Run/RunBatch/ApplyMutations callers never wait on the O(E)
  // rebuild or the spill.
  Status status = [&]() -> Status {
    // Deletions in the overlay stream base blocks through the store: a
    // block that never arrived must abandon the fold, not publish a base
    // missing edges.
    WallTimer timer;
    const uint64_t mark = StorageFailureMark();
    HYT_ASSIGN_OR_RETURN(CsrGraph folded, captured->Materialize());
    fold_seconds = timer.Seconds();
    HYT_RETURN_NOT_OK(CheckStorageSince(mark, "fold"));
    new_base = std::make_shared<CsrGraph>(std::move(folded));
    // Out of core, the folded snapshot spills to its own block file sharing
    // the engine's cache/prefetcher/throttle (the old store's file is
    // reclaimed when its last pinned view drops).
    new_store = MaybeSpill(new_base, old_store);
    new_overlay = std::make_shared<DeltaOverlay>(new_base, new_store);
    // Chase the window's tail with the lock dropped, so the exclusive
    // publication section below pays only for the last raced batches.
    for (int pass = 0; pass < 4; ++pass) {
      std::vector<MutationBatch> tail;
      {
        std::shared_lock<std::shared_mutex> lock(graph_mu_);
        if (fold_window_.size() == replayed) break;
        tail.assign(fold_window_.begin() + static_cast<ptrdiff_t>(replayed),
                    fold_window_.end());
      }
      for (const MutationBatch& batch : tail) HYT_RETURN_NOT_OK(replay(batch));
      replayed += tail.size();
    }
    return Status::OK();
  }();

  std::unique_lock<std::shared_mutex> lock(graph_mu_);
  for (; status.ok() && replayed < fold_window_.size(); ++replayed) {
    status = replay(fold_window_[replayed]);
  }
  // Published or abandoned, the window closes here: batches buffered for a
  // fold that never lands must not leak into the next capture. Abandoning
  // is always safe — the live overlay still holds every mutation, and
  // queries keep serving on the unfolded chain.
  fold_in_flight_ = false;
  fold_window_.clear();
  if (!status.ok()) return status;
  base_ = std::move(new_base);
  store_ = std::move(new_store);
  overlay_ = std::move(new_overlay);
  PublishLocked(/*new_layout=*/true);
  compactor_.RecordFold(base_->num_edges(), fold_seconds);
  return true;
}

Status Engine::Compact() { return Fold().status(); }

void Engine::WaitForCompaction() {
  if (background_ != nullptr) background_->WaitIdle();
}

CycleResult Engine::BackgroundFoldCycle() {
  // Supervisor plumbing: a failed fold degrades the compactor and parks a
  // retry with a backoff ladder keyed off the failure streak; WaitIdle
  // does not block on the parked retry.
  Status status = HYT_FAULT_POINT(faults::kCompactorFold);
  if (status.ok()) status = Fold().status();
  if (status.ok()) {
    health_.ReportSuccess("compactor");
    return CycleResult{};
  }
  health_.ReportFailure("compactor", status.ToString());
  HYT_LOG(Warning) << "background fold failed: " << status.ToString();
  const uint64_t streak =
      std::min<uint64_t>(health_.ConsecutiveFailures("compactor"), 8);
  return CycleResult{true, std::chrono::microseconds{200ull << streak}};
}

Result<MutationResult> Engine::ApplyMutations(const MutationBatch& batch) {
  std::unique_lock<std::shared_mutex> lock(graph_mu_);

  MutationResult result;
  if (batch.empty()) {
    result.epoch = epoch_;
    result.pending_delta_edges = overlay_->delta_edges();
    return result;
  }

  // In-flight queries iterate the published overlay without
  // synchronization, so a batch may only land on an overlay object no
  // reader can observe. Every reader holds an OverlayPin (views pin at
  // construction, under the shared lock or by copying a still-live
  // view; a fold pins its capture), so a pin count at the
  // engine's own baseline — view_'s single pin, or zero while view_ is
  // transparent over an empty overlay — proves nobody outside this
  // Engine can traverse it, and the batch can land in place,
  // O(|batch|). The acquire load pairs with the release-decrement in
  // ~OverlayPin: a reader that dropped its pin just before this check
  // has all of its traversal ordered before the in-place writes.
  // (shared_ptr::use_count() cannot stand in — it is a relaxed load
  // with no such edge.) Otherwise (a pinned query, a prepared-cache
  // entry, or a fold's capture) the batch lands in a fresh
  // O(1) *tail layer* chained over the pinned overlay
  // (DeltaOverlay::NewTail), published only when complete — never an
  // O(delta) copy, so publication latency is independent of how much
  // delta the racing readers have pinned.
  std::shared_ptr<DeltaOverlay> next_overlay;
  DeltaOverlay* target;
  const int64_t own_pins = view_.has_overlay() ? 1 : 0;
  if (overlay_->reader_pins_acquire() <= own_pins) {
    target = const_cast<DeltaOverlay*>(overlay_.get());
  } else {
    next_overlay = DeltaOverlay::NewTail(overlay_);
    target = next_overlay.get();
  }
  // Deletions stream base blocks through the store; a block that never
  // arrived makes its deletions silently miss (Fetch returns an empty
  // run). Bracket the apply so that case surfaces as kUnavailable — after
  // publication completes, since inserts may already have landed in place
  // and rolling back is impossible. Callers must treat a failed
  // ApplyMutations as possibly partially applied (not retryable).
  const uint64_t storage_mark = StorageFailureMark();
  HYT_ASSIGN_OR_RETURN(DeltaOverlay::ApplyStats applied,
                       target->Apply(batch));
  if (applied.inserted == 0 && applied.deleted == 0) {
    // Every mutation was a no-op (deletions of absent edges): the graph is
    // unchanged, so don't bump the epoch — a bump would force a pointless
    // re-preparation on the next query. Unless a block load failed, in
    // which case "absent" is unproven and the no-op claim would be a lie.
    HYT_RETURN_NOT_OK(CheckStorageSince(storage_mark, "mutation apply"));
    result.epoch = epoch_;
    result.pending_delta_edges = overlay_->delta_edges();
    return result;
  }
  ++epoch_;
  if (next_overlay != nullptr) overlay_ = std::move(next_overlay);
  PublishLocked(/*new_layout=*/false);

  EpochDelta log_entry;
  log_entry.epoch = epoch_;
  log_entry.deletes = std::move(applied.deleted_edges);
  for (const EdgeMutation& m : batch.mutations()) {
    if (m.op == MutationOp::kInsertEdge) {
      log_entry.inserts.push_back(
          {m.src, m.dst, base_->is_weighted() ? m.weight : Weight{1}});
    }
  }
  mutation_log_.push_back(std::move(log_entry));

  // Snapshot GC: retire per-epoch entries beyond the policy horizon so the
  // log stays bounded under a long-lived mutation stream. Incremental
  // queries warm-starting from a retired epoch fall back to a full
  // recompute (they can no longer reconstruct the delta since then).
  const uint64_t horizon = compactor_.policy().mutation_log_horizon;
  if (horizon > 0) {
    while (!mutation_log_.empty() &&
           mutation_log_.front().epoch + horizon <= epoch_) {
      log_floor_epoch_ = mutation_log_.front().epoch;
      mutation_log_.pop_front();
    }
  }

  // A fold captured the overlay before this batch landed: the
  // folded base will miss it, so buffer the batch for re-application onto
  // the new base at publication.
  if (fold_in_flight_) fold_window_.push_back(batch);

  // The default source tracks the mutated graph incrementally — O(|batch|)
  // degree lookups, never an O(V) rescan under the write lock.
  UpdateDefaultSourceLocked(batch);

  result.epoch = epoch_;
  result.inserted = applied.inserted;
  result.deleted = applied.deleted;
  // Under kThreshold the batch that crosses the threshold folds on this
  // thread, but only after its publication is complete and graph_mu_ is
  // released. Background mode hands the fold to the worker instead;
  // requests while a fold is pending or in flight coalesce.
  bool fold_inline = false;
  if (compactor_.ShouldCompact(*overlay_)) {
    if (background_ != nullptr) {
      background_->RequestFold();
      result.fold_scheduled = true;
    } else {
      fold_inline = true;
    }
  }
  // Bound the tail-layer chain: each layer adds a constant per-vertex
  // lookup to overlay iteration, so past a small depth the chain is merged
  // back into one layer. A fold flattens everything anyway, so background
  // mode asks the worker for one; otherwise the merge runs inline — O(delta),
  // but only once per kMaxOverlayDepth racing batches, and only when
  // long-pinned readers forced the chain to grow. The logical graph is
  // unchanged, so the epoch stays put; the layout bump retires
  // prepared-cache entries still pinning the deep chain.
  constexpr int kMaxOverlayDepth = 8;
  if (overlay_->depth() > kMaxOverlayDepth && !fold_inline) {
    if (background_ != nullptr) {
      background_->RequestFold();
      result.fold_scheduled = true;
    } else if (!fold_in_flight_) {
      overlay_ = overlay_->Collapsed();
      PublishLocked(/*new_layout=*/true);
    }
  }
  result.pending_delta_edges = overlay_->delta_edges();
  // Publication is complete (epoch bumped, view rebuilt, log appended);
  // reporting the storage failure now keeps the engine consistent while
  // still refusing to claim a clean apply.
  HYT_RETURN_NOT_OK(CheckStorageSince(storage_mark, "mutation apply"));
  if (!fold_inline) return result;
  lock.unlock();
  HYT_ASSIGN_OR_RETURN(result.compacted, Fold(/*only_if_due=*/true));
  result.pending_delta_edges = pending_delta_edges();
  return result;
}

void Engine::UpdateDefaultSourceLocked(const MutationBatch& batch) {
  for (const EdgeMutation& m : batch.mutations()) {
    const EdgeId degree = overlay_->out_degree(m.src);
    if (m.src == default_source_) {
      if (degree < default_source_degree_) {
        // The argmax shrank: an untouched vertex whose degree lies between
        // the new and old values may now lead, and only a rescan can find
        // it. Defer that O(V) scan to the next reader.
        default_source_dirty_ = true;
      }
      default_source_degree_ = degree;
    } else if (degree > default_source_degree_ ||
               (degree == default_source_degree_ &&
                m.src < default_source_)) {
      // Strictly dominates everything the tracked entry dominated — safe
      // to install even when the entry is dirty only if nothing unseen can
      // sit in between, which a dirty entry cannot guarantee; keep dirty
      // sticky and let the rescan settle it.
      default_source_ = m.src;
      default_source_degree_ = degree;
    }
  }
}

Status Engine::EnqueueMutations(MutationBatch batch) {
  // Validate on the producer, against the immutable vertex count: the only
  // way a batch can be malformed is out-of-range endpoints, so admission
  // can reject it here and the drain can never fail on producer input.
  HYT_RETURN_NOT_OK(batch.Validate(num_vertices_));
  if (batch.empty()) return Status::OK();
  ingest_queue_.Push(std::move(batch));
  // Wake the drainer. RequestFold is a cheap coalescing flag set — the
  // producer never blocks on graph_mu_, a fold, or another producer.
  ingest_->RequestFold();
  return Status::OK();
}

CycleResult Engine::IngestCycle() {
  // Move queued batches behind the worker-local backlog so a batch parked
  // by a failed cycle keeps its FIFO seat ahead of later arrivals.
  for (MutationBatch& batch : ingest_queue_.DrainAll()) {
    ingest_backlog_.push_back(std::move(batch));
  }
  while (!ingest_backlog_.empty()) {
    // The drain fault fires BEFORE ApplyMutations touches the batch, so a
    // tripped cycle leaves the head batch untouched — requeueing it is
    // exactly once, never a double apply.
    const Status fault = HYT_FAULT_POINT(faults::kIngestDrain);
    if (!fault.ok()) {
      health_.ReportFailure("ingest", fault.ToString());
      const uint64_t streak =
          std::min<uint64_t>(health_.ConsecutiveFailures("ingest"), 8);
      return CycleResult{true, std::chrono::microseconds{100ull << streak}};
    }
    const Result<MutationResult> applied =
        ApplyMutations(ingest_backlog_.front());
    ingest_backlog_.pop_front();
    if (applied.ok()) {
      ingested_batches_.fetch_add(1, std::memory_order_relaxed);
      health_.ReportSuccess("ingest");
    } else {
      // A mid-apply failure is not retryable: the batch may be partially
      // applied, and replaying it would double-apply its inserts. Count
      // it, degrade, keep draining — the engine stays consistent (the
      // publication path completes before the failure is reported).
      ingest_failures_.fetch_add(1, std::memory_order_relaxed);
      health_.ReportFailure("ingest", applied.status().ToString());
      HYT_LOG(Warning) << "ingest drain failed: "
                       << applied.status().ToString();
    }
  }
  return CycleResult{};
}

void Engine::WaitForIngest() {
  // WaitSettled, not WaitIdle: a batch parked for retry still holds
  // unpublished mutations, and the ingest barrier promises they are
  // observable on return.
  ingest_->WaitSettled();
}

uint64_t Engine::ingested_batches() const {
  return ingested_batches_.load(std::memory_order_relaxed);
}

int Engine::overlay_depth() const {
  std::shared_lock<std::shared_mutex> lock(graph_mu_);
  return overlay_->depth();
}

Result<std::shared_ptr<const PreparedGraph>> Engine::GetPrepared(
    const SolverOptions& effective, const ViewRef& snapshot,
    bool* cache_hit) {
  const std::string key = PreparationFingerprint(effective);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = prepared_.find(key);
    if (it != prepared_.end()) {
      if (it->second.epoch == snapshot.epoch &&
          it->second.layout == snapshot.layout) {
        ++stats_.hits;
        *cache_hit = true;
        return it->second.prepared;
      }
      if (std::pair(it->second.epoch, it->second.layout) <
          std::pair(snapshot.epoch, snapshot.layout)) {
        // Lazy epoch invalidation: the entry was built against an older
        // snapshot. In-flight queries that planned against it still hold
        // their own shared_ptr; dropping the cache reference is safe.
        prepared_.erase(it);
        ++stats_.invalidated;
        stats_.entries = prepared_.size();
      }
      // An entry from a *newer* epoch (a concurrent mutation raced this
      // plan) is left alone; this query builds an uncached preparation for
      // its pinned snapshot below.
    }
  }

  // Miss: build outside the lock — the hub sort is the expensive step this
  // cache exists to amortize, and holding mu_ across it would block every
  // concurrent cache-hit query. Two threads racing on the same key build
  // twice; the first insert wins and the loser's copy is discarded.
  const uint64_t mark = StorageFailureMark();
  HYT_ASSIGN_OR_RETURN(PreparedGraph prepared,
                       PreparedGraph::Make(snapshot.view, effective));
  // The hub sort streams adjacency; a preparation built over a block that
  // never arrived must not enter the cache.
  HYT_RETURN_NOT_OK(CheckStorageSince(mark, "graph preparation"));
  auto shared = std::make_shared<const PreparedGraph>(std::move(prepared));

  std::lock_guard<std::mutex> lock(mu_);
  auto it = prepared_.find(key);
  if (it == prepared_.end()) {
    prepared_.emplace(key, CacheEntry{snapshot.epoch, snapshot.layout,
                                      snapshot.view, shared});
  } else if (it->second.epoch == snapshot.epoch &&
             it->second.layout == snapshot.layout) {
    // A racing thread inserted first for the same epoch; keep its copy.
    shared = it->second.prepared;
  } else if (std::pair(it->second.epoch, it->second.layout) <
             std::pair(snapshot.epoch, snapshot.layout)) {
    // A racing thread re-inserted a stale entry while this one built
    // against the newer (epoch, layout); replace it so the fresh
    // preparation is not thrown away and rebuilt on the next lookup.
    it->second = CacheEntry{snapshot.epoch, snapshot.layout, snapshot.view,
                            shared};
    ++stats_.invalidated;
  }
  // Either way this query performed a build, so it reports a miss.
  ++stats_.misses;
  stats_.entries = prepared_.size();
  *cache_hit = false;
  return shared;
}

Result<Engine::PlannedQuery> Engine::Plan(const Query& query,
                                          const SolverOptions& base) {
  return PlanOn(query, base, CurrentViewRef());
}

Result<Engine::PlannedQuery> Engine::PlanOn(const Query& query,
                                            const SolverOptions& base,
                                            const ViewRef& snapshot) {
  const AlgorithmInfo* info = FindAlgorithmInfo(query.algorithm);
  if (info == nullptr) {
    return Status::InvalidArgument(
        "unknown algorithm id: " +
        std::to_string(static_cast<int>(query.algorithm)));
  }

  PlannedQuery plan;
  plan.query = query;
  plan.options = EffectiveOptions(query.algorithm, base);
  plan.view = snapshot.view;
  plan.epoch = snapshot.epoch;
  if (info->needs_source) {
    plan.source = query.source == kInvalidVertex ? snapshot.default_source
                                                 : query.source;
    if (plan.source == kInvalidVertex ||
        plan.source >= snapshot.view.num_vertices()) {
      return Status::InvalidArgument(
          std::string(info->name) + " query needs a source vertex in [0, " +
          std::to_string(snapshot.view.num_vertices()) + ")");
    }
  }
  HYT_ASSIGN_OR_RETURN(plan.prepared,
                       GetPrepared(plan.options, snapshot, &plan.cache_hit));
  return plan;
}

Result<QueryResult> Engine::Execute(const PlannedQuery& plan) const {
  // Kernels skip blocks that failed to load (empty adjacency runs), so a
  // run that lost a block converges on a subgraph. The mark check turns
  // that into kUnavailable instead of returning silently wrong values.
  const uint64_t mark = StorageFailureMark();
  HYT_ASSIGN_OR_RETURN(
      AlgorithmRun run,
      RunAlgorithmOn(*plan.prepared, plan.query.algorithm, plan.source,
                     plan.query.params, plan.options));
  HYT_RETURN_NOT_OK(CheckStorageSince(mark, "query execution"));
  QueryResult result;
  result.algorithm = plan.query.algorithm;
  result.source =
      GetAlgorithmInfo(plan.query.algorithm).needs_source ? plan.source
                                                          : kInvalidVertex;
  result.values = std::move(run.values);
  result.trace = std::move(run.trace);
  result.prepared_cache_hit = plan.cache_hit;
  result.cache_stats = cache_stats();
  result.epoch = plan.epoch;
  return result;
}

Result<QueryResult> Engine::Run(const Query& query) {
  return Run(query, default_options_);
}

Result<QueryResult> Engine::Run(const Query& query,
                                const SolverOptions& options) {
  HYT_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(query, options));
  return Execute(plan);
}

Result<QueryResult> Engine::RunIncremental(const Query& query,
                                           const QueryResult& previous) {
  const AlgorithmInfo* info = FindAlgorithmInfo(query.algorithm);
  if (info == nullptr) {
    return Status::InvalidArgument(
        "unknown algorithm id: " +
        std::to_string(static_cast<int>(query.algorithm)));
  }
  if (previous.algorithm != query.algorithm) {
    return Status::InvalidArgument(
        std::string("previous result is for ") +
        AlgorithmName(previous.algorithm) + ", query asks for " +
        info->name);
  }

  // Capture a consistent snapshot of (view, epoch, delta-since-previous)
  // under the lock, then propagate without it — the view pins the graph.
  ViewRef ref;
  bool log_retired = false;
  std::vector<EdgeRecord> inserts;
  std::vector<EdgeRecord> deletes;
  {
    std::shared_lock<std::shared_mutex> lock(graph_mu_);
    if (previous.epoch > epoch_) {
      return Status::InvalidArgument(
          "previous result is from epoch " +
          std::to_string(previous.epoch) + ", engine is at epoch " +
          std::to_string(epoch_));
    }
    // Full field-wise init: a positional {view, epoch, source} here once
    // landed default_source_ in ViewRef::layout, leaving default_source
    // invalid — harmless at the time, but a trap for any code that later
    // trusts ref.layout against the prepared cache's layout guard.
    ref.view = view_;
    ref.epoch = epoch_;
    ref.layout = layout_version_;
    ref.default_source = default_source_;
    if (previous.epoch < log_floor_epoch_) {
      // Snapshot GC retired the log entries needed to reconstruct the
      // delta since `previous` — warm-starting from the stale values is
      // unsound without knowing what changed. Fall back.
      log_retired = true;
    } else {
      for (const EpochDelta& delta : mutation_log_) {
        if (delta.epoch <= previous.epoch) continue;
        inserts.insert(inserts.end(), delta.inserts.begin(),
                       delta.inserts.end());
        deletes.insert(deletes.end(), delta.deletes.begin(),
                       delta.deletes.end());
      }
    }
  }

  const VertexId n = ref.view.num_vertices();
  // Incremental recomputes traverse the pinned view directly; bracket them
  // like Execute does so a lost block aborts with kUnavailable.
  const uint64_t storage_mark = StorageFailureMark();

  // Warm starts are only valid for the exact query the previous result
  // answered: same algorithm (checked above) and same source. A query
  // without an explicit source inherits the previous result's.
  VertexId source = kInvalidVertex;
  if (info->needs_source) {
    source =
        query.source == kInvalidVertex ? previous.source : query.source;
    if (source == kInvalidVertex || source >= n) {
      return Status::InvalidArgument(
          std::string(info->name) +
          " incremental query needs a source vertex in [0, " +
          std::to_string(n) + ")");
    }
    if (previous.source != source) {
      return Status::InvalidArgument(
          "previous result is for source " +
          std::to_string(previous.source) + ", query names source " +
          std::to_string(source));
    }
  }

  // Transparent full recompute, carrying the reason in the trace so
  // callers (and the dynamic test suite) can tell *why* the warm start
  // was abandoned rather than silently observing a slow path.
  if (log_retired) {
    HYT_ASSIGN_OR_RETURN(QueryResult full, Run(query));
    full.trace.incremental_fallback = IncrementalFallback::kRetiredLog;
    return full;
  }

  if (SupportsIncremental(query.algorithm)) {
    if (previous.is_f64() || previous.u32().size() != n) {
      return Status::InvalidArgument(
          "previous values do not match this engine's graph (" +
          std::to_string(n) + " vertices)");
    }

    QueryResult result;
    result.algorithm = query.algorithm;
    result.source = info->needs_source ? source : kInvalidVertex;
    result.epoch = ref.epoch;
    result.incremental = true;

    std::vector<uint32_t> values = previous.u32();
    // Carry the dependency forest along the chain: deletions flood only
    // the severed subtrees when it is present; when it is not, the
    // deletion path derives it once (a certification pass) and every
    // later epoch rides the cheap tree path. Insert-only epochs update a
    // forest they inherited but never build one — the insert path must
    // stay O(delta).
    std::vector<VertexId> parents;
    const bool have_parents = previous.dependency_parents != nullptr &&
                              previous.dependency_parents->size() == n;
    if (have_parents) parents = *previous.dependency_parents;
    bool parents_valid = have_parents;
    if (previous.epoch < ref.epoch) {
      IncrementalStats stats;
      if (deletes.empty()) {
        std::vector<VertexId> seeds;
        seeds.reserve(inserts.size());
        for (const EdgeRecord& e : inserts) seeds.push_back(e.src);
        HYT_ASSIGN_OR_RETURN(
            stats,
            IncrementalRecompute(ref.view, query.algorithm, source, seeds,
                                 &values, have_parents ? &parents : nullptr));
      } else {
        HYT_ASSIGN_OR_RETURN(
            stats, DeletionAwareRecompute(ref.view, query.algorithm, source,
                                          inserts, deletes, &values,
                                          &parents));
        parents_valid = true;
      }
      IterationTrace it;
      it.active_vertices = stats.relaxed_vertices;
      it.active_edges = stats.traversed_edges;
      result.trace.iterations.push_back(it);
    }
    if (parents_valid) {
      result.dependency_parents =
          std::make_shared<const std::vector<VertexId>>(std::move(parents));
    }
    // previous.epoch == epoch: the graph is unchanged, the previous
    // values already are the fixpoint.
    HYT_RETURN_NOT_OK(
        CheckStorageSince(storage_mark, "incremental recompute"));
    result.trace.converged = true;
    result.values = std::move(values);
    result.cache_stats = cache_stats();
    return result;
  }

  // Accumulation family (PR/PHP): Maiter-style residual re-injection.
  if (!previous.is_f64() || previous.f64().size() != n) {
    return Status::InvalidArgument(
        "previous values do not match this engine's graph (" +
        std::to_string(n) + " vertices)");
  }

  QueryResult result;
  result.algorithm = query.algorithm;
  result.source = info->needs_source ? source : kInvalidVertex;
  result.epoch = ref.epoch;
  result.incremental = true;

  std::vector<double> values = previous.f64();
  if (previous.epoch < ref.epoch) {
    HYT_ASSIGN_OR_RETURN(
        IncrementalStats stats,
        AccumulativeRecompute(ref.view, query.algorithm, source,
                              query.params, inserts, deletes, &values));
    IterationTrace it;
    it.active_vertices = stats.relaxed_vertices;
    it.active_edges = stats.traversed_edges;
    result.trace.iterations.push_back(it);
  }
  HYT_RETURN_NOT_OK(
      CheckStorageSince(storage_mark, "incremental recompute"));
  result.trace.converged = true;
  result.values = std::move(values);
  result.cache_stats = cache_stats();
  return result;
}

Result<std::vector<QueryResult>> Engine::RunBatch(
    const std::vector<Query>& queries) {
  return RunBatch(queries, default_options_);
}

Result<std::vector<QueryResult>> Engine::RunBatch(
    const std::vector<Query>& queries, const SolverOptions& options) {
  // Plan sequentially first: resolving the cache up front means every
  // distinct preparation is built exactly once, and the hit/miss ordering
  // is deterministic regardless of how the pool schedules execution. Each
  // plan pins the view it resolved against, so mutations landing while
  // the batch executes cannot pull the graph out from under it.
  std::vector<PlannedQuery> plans;
  plans.reserve(queries.size());
  for (const Query& query : queries) {
    HYT_ASSIGN_OR_RETURN(PlannedQuery plan, Plan(query, options));
    plans.push_back(std::move(plan));
  }
  return ExecutePlans(plans);
}

Result<std::vector<QueryResult>> Engine::RunBatchPinned(
    const std::vector<Query>& queries) {
  return RunBatchPinned(queries, default_options_);
}

Result<std::vector<QueryResult>> Engine::RunBatchPinned(
    const std::vector<Query>& queries, const SolverOptions& options) {
  // One snapshot for the whole batch: mutations landing mid-plan cannot
  // split the batch across epochs, and every plan resolves the prepared
  // cache against the same (epoch, layout) — the first query builds the
  // preparation, the rest hit it.
  const ViewRef snapshot = CurrentViewRef();
  std::vector<PlannedQuery> plans;
  plans.reserve(queries.size());
  for (const Query& query : queries) {
    HYT_ASSIGN_OR_RETURN(PlannedQuery plan, PlanOn(query, options, snapshot));
    plans.push_back(std::move(plan));
  }
  return ExecutePlans(plans);
}

Result<std::vector<QueryResult>> Engine::ExecutePlans(
    const std::vector<PlannedQuery>& plans) const {
  std::vector<QueryResult> results(plans.size());
  std::vector<Status> statuses(plans.size());
  ThreadPool::Default()->ParallelFor(
      plans.size(),
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        for (uint64_t i = begin; i < end; ++i) {
          // Inside a pool worker the solver's kernel-level ParallelFor
          // degrades to serial loops, so queries are the parallel unit.
          Result<QueryResult> result = Execute(plans[i]);
          if (result.ok()) {
            results[i] = std::move(result).value();
          } else {
            statuses[i] = result.status();
          }
        }
      },
      /*min_grain=*/1);

  for (const Status& status : statuses) {
    HYT_RETURN_NOT_OK(status);
  }
  return results;
}

EngineCacheStats Engine::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void Engine::ClearPreparedCache() {
  std::lock_guard<std::mutex> lock(mu_);
  prepared_.clear();
  stats_.entries = 0;
}

}  // namespace hytgraph
