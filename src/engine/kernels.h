// Host-executed "GPU kernels": push-mode edge relaxation over an active
// vertex set, plus a pull-mode gather over the reverse view, parallelized
// on the thread pool. The vertex program supplies the per-vertex and
// per-edge behaviour; the kernel supplies iteration order, parallelism, and
// frontier maintenance. Results are exact — only the *time* of these
// kernels is taken from the compute model.
//
// Edge expansion runs on a GraphView: vertices with no pending delta take
// the dense base-CSR span path (identical code to the static engine);
// delta vertices merge tombstone-filtered base edges with overlay inserts
// on the fly. A query therefore never waits for a snapshot fold — the
// per-vertex overlay lookup is the price, measured by bench_view_overhead.
//
// Program concept (see algorithms/programs.h for implementations):
//   struct P {
//     using VertexContext = ...;       // per-source state for one visit
//     bool BeginVertex(VertexId u, VertexContext* ctx);   // false: skip u
//     // Value-selection family (kHasDelta == false): relax in place.
//     bool ProcessEdge(const VertexContext& ctx, VertexId u, VertexId v,
//                      Weight w);      // true: v's value changed, activate
//     // Accumulation family (kHasDelta == true): push shares, see ShareRows.
//     bool BeginVertex(VertexId u, VertexContext* ctx, double own_share);
//     double Share(const VertexContext& ctx, VertexId v, Weight w);
//     bool Apply(VertexId v, double sum);  // true: delta reached epsilon
//   };

#ifndef HYTGRAPH_ENGINE_KERNELS_H_
#define HYTGRAPH_ENGINE_KERNELS_H_

#include <atomic>
#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "engine/compactor.h"
#include "engine/frontier.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hytgraph {

/// A program the pull kernel can run: the value-selection family, which
/// exposes a per-vertex potential (the best value an active vertex could
/// write this iteration) and a settled test against the frontier-wide
/// floor. Delta-accumulation programs (PR/PHP) are excluded structurally:
/// they relax nothing in place (their kernels push per-edge shares into
/// ShareRows), and their BeginVertex consumes the pending delta, so calling
/// it once per in-edge (as pull does) would double-count mass.
template <typename P>
concept PullCapableProgram =
    !P::kHasDelta && requires(const P& p, VertexId v) {
      typename P::PullBound;
      { P::WorstBound() } -> std::same_as<typename P::PullBound>;
      {
        P::BetterBound(P::WorstBound(), P::WorstBound())
      } -> std::same_as<typename P::PullBound>;
      { p.PullPotential(v) } -> std::same_as<typename P::PullBound>;
      { p.SettledAt(v, P::WorstBound()) } -> std::convertible_to<bool>;
    };

/// One shard's activations into a next frontier. An activation sets the
/// target's bit first and reads its view-adjusted out-degree only when the
/// bit flipped, so re-activations stop at the bitmap's read-only test.
/// Publish hands the shard's active and scout totals to the frontier in
/// one AddCounts, which keeps `next`'s scout count (activated out-edges,
/// Beamer's m_f) exact — the auto direction decision reads it in O(1)
/// instead of rescanning the bitmap.
///
/// `Sink` is anything with Frontier's MarkActive / AddCounts surface: the
/// global Frontier on the sequential path, a lane-local sink
/// (core/lane_state.h) under parallel partition execution.
template <typename Sink>
class ShardActivations {
 public:
  ShardActivations(const GraphView& view, Sink* next)
      : view_(view), next_(next) {}

  void Activate(VertexId v) {
    if (!next_->MarkActive(v)) return;
    ++active_;
    scout_ += static_cast<int64_t>(view_.out_degree(v));
  }

  void Publish() {
    if (active_ != 0) next_->AddCounts(active_, scout_);
  }

 private:
  const GraphView& view_;
  Sink* next_;
  int64_t active_ = 0;
  int64_t scout_ = 0;
};

/// Shard-private share rows for the accumulation programs (kHasDelta): n
/// doubles per shard the caller's kernels can run on — one per pool thread
/// for a top-level caller, one on a pool worker, whose nested kernels run
/// inline as shard 0. A push kernel adds each edge's Program::Share to the
/// calling shard's row with a plain add, so no atomic is needed; Fold
/// merges the rows into the program's deltas. Allocate once per run: the
/// rows are reused across kernels and stay zero wherever they were folded.
class ShareRows {
 public:
  ShareRows() = default;
  explicit ShareRows(VertexId num_vertices)
      : num_vertices_(num_vertices),
        num_rows_(ThreadPool::InWorkerThread()
                      ? 1
                      : ThreadPool::Default()->num_threads()),
        shares_(static_cast<size_t>(num_rows_) * num_vertices, 0.0) {}

  double* Row(int shard) {
    HYT_CHECK_LT(shard, num_rows_);
    return shares_.data() + static_cast<size_t>(shard) * num_vertices_;
  }

  /// Merges the rows over vertices [begin, end) into `program`: each
  /// vertex's shares are summed in shard order (the same sum run to run at
  /// a fixed pool size), zeroed, and handed to Program::Apply; vertices
  /// whose delta reached epsilon activate in `next` through
  /// ShardActivations, so its scout count stays exact. No kernel may run
  /// during a fold.
  template <typename Program, typename Sink>
  void Fold(const GraphView& view, VertexId begin, VertexId end,
            Program& program, Sink* next) {
    if (begin >= end) return;
    ThreadPool::Default()->ParallelFor(
        end - begin,
        [&](int /*shard*/, uint64_t lo, uint64_t hi) {
          ShardActivations<Sink> activations(view, next);
          for (uint64_t i = lo; i < hi; ++i) {
            const VertexId v = begin + static_cast<VertexId>(i);
            double sum = 0.0;
            for (int r = 0; r < num_rows_; ++r) {
              double& share =
                  shares_[static_cast<size_t>(r) * num_vertices_ + v];
              if (share != 0.0) {
                sum += share;
                share = 0.0;
              }
            }
            if (sum != 0.0 && program.Apply(v, sum)) activations.Activate(v);
          }
          activations.Publish();
        },
        /*min_grain=*/4096);
  }

 private:
  size_t num_vertices_ = 0;
  int num_rows_ = 0;
  std::vector<double> shares_;
};

/// One kernel shard's push visits, shared by RunKernel and
/// RunKernelOnSubCsr. A value-selection program relaxes each edge in place
/// (ProcessEdge) and activates changed targets; an accumulation program
/// adds each edge's share to the shard's row (activation waits for
/// ShareRows::Fold) and, visiting u, consumes the share the shard itself
/// pushed to u since the last fold.
template <typename Program, typename Sink>
class PushShard {
 public:
  using Context = typename Program::VertexContext;

  PushShard(const GraphView& view, Program& program, Sink* next,
            ShareRows* shares, int shard)
      : program_(program), activations_(view, next) {
    if constexpr (Program::kHasDelta) row_ = shares->Row(shard);
  }

  bool Begin(VertexId u, Context* ctx) {
    if constexpr (Program::kHasDelta) {
      return program_.BeginVertex(u, ctx, std::exchange(row_[u], 0.0));
    } else {
      return program_.BeginVertex(u, ctx);
    }
  }

  void Edge(const Context& ctx, VertexId u, VertexId v, Weight w) {
    if constexpr (Program::kHasDelta) {
      row_[v] += program_.Share(ctx, v, w);
    } else if (program_.ProcessEdge(ctx, u, v, w)) {
      activations_.Activate(v);
    }
  }

  void Publish() { activations_.Publish(); }

 private:
  Program& program_;
  ShardActivations<Sink> activations_;
  double* row_ = nullptr;
};

/// Relaxes all out-edges of every vertex in `actives` against `view`,
/// activating changed targets in `next` (see ShardActivations), or, for an
/// accumulation program, pushing their shares into `shares` (see
/// PushShard). Returns the number of edges processed (the kernel-time
/// unit).
template <typename Program, typename Sink = Frontier>
uint64_t RunKernel(const GraphView& view, std::span<const VertexId> actives,
                   Program& program, Sink* next, ShareRows* shares = nullptr) {
  if (actives.empty()) return 0;
  std::atomic<uint64_t> edges_processed{0};
  ThreadPool::Default()->ParallelFor(
      actives.size(),
      [&](int shard, uint64_t begin, uint64_t end) {
        uint64_t local_edges = 0;
        PushShard<Program, Sink> push(view, program, next, shares, shard);
        // One lease per shard: active lists are sorted ascending, so an
        // out-of-core base pays one cache acquire per block, not per vertex.
        BlockRef lease;
        for (uint64_t i = begin; i < end; ++i) {
          const VertexId u = actives[i];
          typename Program::VertexContext ctx;
          if (!push.Begin(u, &ctx)) continue;
          if (view.HasDelta(u)) {
            // Merged adjacency: surviving base edges, then overlay inserts.
            view.ForEachNeighborLeased(u, &lease, [&](VertexId v, Weight w) {
              ++local_edges;
              push.Edge(ctx, u, v, w);
            });
            continue;
          }
          const AdjacencyRun run = view.BaseRun(u, &lease);
          const std::span<const VertexId> nbrs = run.targets;
          const std::span<const Weight> wts = run.weights;
          local_edges += nbrs.size();
          // Weightedness is a graph property, not a per-edge one: branch
          // once per vertex, not once per edge.
          if (wts.empty()) {
            for (const VertexId v : nbrs) push.Edge(ctx, u, v, Weight{1});
          } else {
            for (size_t e = 0; e < nbrs.size(); ++e) {
              push.Edge(ctx, u, nbrs[e], wts[e]);
            }
          }
        }
        push.Publish();
        edges_processed.fetch_add(local_edges, std::memory_order_relaxed);
      },
      /*min_grain=*/64);
  return edges_processed.load();
}

/// The extra-round drain: `pending` holds active vertices of `next`,
/// ascending. Keeps only those in `membership` (ascending; null keeps
/// all), clears them from `next`, and publishes the removal with one
/// AddCounts. The caller then re-runs the kernel over `pending`. No kernel
/// may write `next` during the drain.
template <typename Sink>
void DrainPending(const GraphView& view,
                  const std::vector<VertexId>* membership,
                  std::vector<VertexId>* pending, Sink* next) {
  if (membership != nullptr) {
    // Both lists ascend, so one forward walk filters.
    auto member = membership->begin();
    size_t kept = 0;
    for (const VertexId v : *pending) {
      while (member != membership->end() && *member < v) ++member;
      if (member != membership->end() && *member == v) (*pending)[kept++] = v;
    }
    pending->resize(kept);
  }
  int64_t scout = 0;
  for (const VertexId v : *pending) {
    next->MarkInactive(v);
    scout += static_cast<int64_t>(view.out_degree(v));
  }
  if (!pending->empty()) {
    next->AddCounts(-static_cast<int64_t>(pending->size()), -scout);
  }
}

/// CsrGraph convenience overload (static callers, tests): a transparent
/// non-owning view over `graph`.
template <typename Program>
uint64_t RunKernel(const CsrGraph& graph, std::span<const VertexId> actives,
                   Program& program, Frontier* next,
                   ShareRows* shares = nullptr) {
  return RunKernel(GraphView::Wrap(graph), actives, program, next, shares);
}

/// Pull-mode relaxation: for every candidate vertex v (dense scan over the
/// whole vertex space — no active-list materialization), gather from the
/// in-neighbours that are in `current`, applying the same ProcessEdge
/// relaxations push would. The edge set relaxed is identical to push's
/// (all (u, v) with u active), so the converged fixpoint values are
/// identical; per-iteration frontiers can drift slightly — pull reads
/// BeginVertex(u) per in-edge where push snapshots it once per active
/// vertex, so mid-iteration improvements may propagate one iteration
/// earlier or later than under push (monotonicity makes either schedule
/// converge to the same values). The wins are structural:
///
///  * next-frontier maintenance is one bit set per *changed candidate*
///    instead of one per improving edge (the dense-iteration contention
///    the bitmap-directed frontier tries to contain);
///  * a candidate already at the iteration floor — the best potential any
///    frontier vertex holds, a conservative bound on every offer — skips
///    its scan entirely, and a candidate that reaches the floor mid-scan
///    early-exits (classic direction-optimizing payoff: one parent found,
///    stop).
///
/// Requires the view's reverse side; builds it on first use (O(E) once per
/// layout version — the Engine seeds the transpose across epochs).
/// Returns in-edges scanned (including frontier-membership misses), the
/// honest work unit pull is judged by.
template <typename Program>
  requires PullCapableProgram<Program>
typename Program::PullBound PullIterationFloor(const Frontier& current,
                                               Program& program) {
  using Bound = typename Program::PullBound;
  // Iteration floor: reduce the per-vertex potentials over the frontier
  // bitmap (per-shard partials, combined in shard order — deterministic).
  const auto words = current.Words();
  std::vector<Bound> shard_bounds(
      static_cast<size_t>(ThreadPool::Default()->num_threads()) + 1,
      Program::WorstBound());
  ThreadPool::Default()->ParallelFor(
      words.size(),
      [&](int shard, uint64_t begin, uint64_t end) {
        Bound local = Program::WorstBound();
        for (uint64_t w = begin; w < end; ++w) {
          uint64_t bits = words[w].load(std::memory_order_relaxed);
          while (bits != 0) {
            const VertexId u = static_cast<VertexId>(
                w * Frontier::kBitsPerWord +
                static_cast<uint64_t>(std::countr_zero(bits)));
            local = Program::BetterBound(local, program.PullPotential(u));
            bits &= bits - 1;
          }
        }
        shard_bounds[shard] = Program::BetterBound(shard_bounds[shard], local);
      },
      /*min_grain=*/256);
  Bound floor = Program::WorstBound();
  for (const Bound b : shard_bounds) floor = Program::BetterBound(floor, b);
  return floor;
}

/// Serial pull gather over the candidate range [v_begin, v_end) against a
/// precomputed iteration floor. The parallel-lane pull path hands each lane
/// a disjoint candidate slice of this scan; RunPullKernel composes it with
/// pool sharding for the sequential path. Activations into `next` go
/// through ShardActivations, so the slice publishes its totals once and
/// the scout count stays exact across pull iterations too.
template <typename Program>
  requires PullCapableProgram<Program>
uint64_t RunPullKernelRange(const GraphView& view, const Frontier& current,
                            Program& program, Frontier* next,
                            typename Program::PullBound floor,
                            VertexId v_begin, VertexId v_end) {
  uint64_t local_edges = 0;
  // One lease for the whole slice: the dense ascending scan re-pins the
  // transpose block only on boundary crossings when it streams.
  BlockRef lease;
  ShardActivations<Frontier> activations(view, next);
  for (VertexId v = v_begin; v < v_end; ++v) {
    if (program.SettledAt(v, floor)) continue;
    bool changed = false;
    view.ForEachInNeighborWhileLeased(v, &lease, [&](VertexId u, Weight w) {
      ++local_edges;
      if (!current.IsActive(u)) return true;
      typename Program::VertexContext ctx;
      if (!program.BeginVertex(u, &ctx)) return true;
      if (program.ProcessEdge(ctx, u, v, w)) {
        changed = true;
        // Settled at the floor: no remaining in-neighbour can offer
        // better — stop the scan.
        if (program.SettledAt(v, floor)) return false;
      }
      return true;
    });
    if (changed) activations.Activate(v);
  }
  activations.Publish();
  return local_edges;
}

template <typename Program>
  requires PullCapableProgram<Program>
uint64_t RunPullKernel(const GraphView& view, const Frontier& current,
                       Program& program, Frontier* next) {
  const VertexId n = view.num_vertices();
  if (n == 0) return 0;
  view.EnsureReverse();

  const auto floor = PullIterationFloor(current, program);

  std::atomic<uint64_t> edges_processed{0};
  ThreadPool::Default()->ParallelFor(
      n,
      [&](int /*shard*/, uint64_t begin, uint64_t end) {
        edges_processed.fetch_add(
            RunPullKernelRange(view, current, program, next, floor,
                               static_cast<VertexId>(begin),
                               static_cast<VertexId>(end)),
            std::memory_order_relaxed);
      },
      /*min_grain=*/256);
  return edges_processed.load();
}

/// Same as RunKernel but over a compacted subgraph (Subway-style GPU-side
/// processing of the shipped sub-CSR). Identical relaxation semantics.
/// `view` is the graph the sub-CSR was compacted from — activations read
/// its degrees so the scout count stays exact (targets can lie outside the
/// compacted vertex set, so the sub-CSR's own offsets can't supply them).
template <typename Program, typename Sink = Frontier>
uint64_t RunKernelOnSubCsr(const GraphView& view, const SubCsr& sub,
                           Program& program, Sink* next,
                           ShareRows* shares = nullptr) {
  if (sub.vertices.empty()) return 0;
  std::atomic<uint64_t> edges_processed{0};
  ThreadPool::Default()->ParallelFor(
      sub.vertices.size(),
      [&](int shard, uint64_t begin, uint64_t end) {
        uint64_t local_edges = 0;
        PushShard<Program, Sink> push(view, program, next, shares, shard);
        for (uint64_t i = begin; i < end; ++i) {
          const VertexId u = sub.vertices[i];
          typename Program::VertexContext ctx;
          if (!push.Begin(u, &ctx)) continue;
          const EdgeId lo = sub.row_offsets[i];
          const EdgeId hi = sub.row_offsets[i + 1];
          local_edges += hi - lo;
          for (EdgeId e = lo; e < hi; ++e) {
            const Weight w = sub.weights.empty() ? Weight{1} : sub.weights[e];
            push.Edge(ctx, u, sub.column_index[e], w);
          }
        }
        push.Publish();
        edges_processed.fetch_add(local_edges, std::memory_order_relaxed);
      },
      /*min_grain=*/64);
  return edges_processed.load();
}

}  // namespace hytgraph

#endif  // HYTGRAPH_ENGINE_KERNELS_H_
