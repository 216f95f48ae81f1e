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
// The program concept (BeginVertex, ProcessEdge, the accumulation family's
// Share/Apply and the pull hooks) is documented in algorithms/programs.h.

#ifndef HYTGRAPH_ENGINE_KERNELS_H_
#define HYTGRAPH_ENGINE_KERNELS_H_

#include <algorithm>
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
class ShardActivations {
 public:
  ShardActivations(const GraphView& view, Frontier* next)
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
  Frontier* next_;
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
///
/// Fold walks its range one 64-vertex frontier word at a time: it sums the
/// rows' spans into a local block with branch-free adds, zeroes the spans
/// in bulk, applies the nonzero sums, and sets the word's activations with
/// one MarkWord. A row entry nobody wrote holds +0.0, and adding +0.0 to a
/// partial sum is exact, so each vertex's sum is bitwise the sum of its
/// nonzero shares in shard order: the branch-free adds change no value.
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
  /// a fixed pool size), zeroed, and handed to Program::Apply when the sum
  /// is nonzero; vertices whose delta reached epsilon activate in `next`.
  /// Each fold shard reads the out-degrees of the bits it flipped and
  /// publishes them with one AddCounts, so `next`'s scout count stays
  /// exact. Shares outside [begin, end) stay for a later fold. No kernel
  /// may run during a fold.
  template <typename Program>
  void Fold(const GraphView& view, VertexId begin, VertexId end,
            Program& program, Frontier* next) {
    if (begin >= end) return;
    constexpr uint64_t kWord = Frontier::kBitsPerWord;
    const uint64_t first_word = begin / kWord;
    const uint64_t end_word = (static_cast<uint64_t>(end) - 1) / kWord + 1;
    ThreadPool::Default()->ParallelFor(
        end_word - first_word,
        [&](int /*shard*/, uint64_t lo, uint64_t hi) {
          int64_t active = 0;
          int64_t scout = 0;
          double sums[kWord];
          for (uint64_t w = first_word + lo; w < first_word + hi; ++w) {
            // The range's first and last words are clipped to it.
            const uint64_t v0 = std::max<uint64_t>(w * kWord, begin);
            const uint64_t v1 = std::min<uint64_t>((w + 1) * kWord, end);
            const size_t width = v1 - v0;
            double* span = shares_.data() + v0;
            std::copy_n(span, width, sums);
            std::fill_n(span, width, 0.0);
            for (int r = 1; r < num_rows_; ++r) {
              span += num_vertices_;
              for (size_t i = 0; i < width; ++i) sums[i] += span[i];
              std::fill_n(span, width, 0.0);
            }
            uint64_t bits = 0;
            for (size_t i = 0; i < width; ++i) {
              const auto v = static_cast<VertexId>(v0 + i);
              if (sums[i] != 0.0 && program.Apply(v, sums[i])) {
                bits |= uint64_t{1} << (v % kWord);
              }
            }
            if (bits == 0) continue;
            bits = next->MarkWord(w, bits);
            active += std::popcount(bits);
            for (; bits != 0; bits &= bits - 1) {
              const auto v = static_cast<VertexId>(
                  w * kWord + static_cast<uint64_t>(std::countr_zero(bits)));
              scout += static_cast<int64_t>(view.out_degree(v));
            }
          }
          if (active != 0) next->AddCounts(active, scout);
        },
        /*min_grain=*/64);  // words: 4096 vertices
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
template <typename Program>
class PushShard {
 public:
  using Context = typename Program::VertexContext;

  PushShard(const GraphView& view, Program& program, Frontier* next,
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
  ShardActivations activations_;
  double* row_ = nullptr;
};

/// Relaxes all out-edges of every vertex in `actives` against `view`,
/// activating changed targets in `next` (see ShardActivations), or, for an
/// accumulation program, pushing their shares into `shares` (see
/// PushShard). Returns the number of edges processed (the kernel-time
/// unit).
template <typename Program>
uint64_t RunKernel(const GraphView& view, std::span<const VertexId> actives,
                   Program& program, Frontier* next,
                   ShareRows* shares = nullptr) {
  if (actives.empty()) return 0;
  std::atomic<uint64_t> edges_processed{0};
  ThreadPool::Default()->ParallelFor(
      actives.size(),
      [&](int shard, uint64_t begin, uint64_t end) {
        uint64_t local_edges = 0;
        PushShard<Program> push(view, program, next, shares, shard);
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
inline void DrainPending(const GraphView& view,
                         const std::vector<VertexId>* membership,
                         std::vector<VertexId>* pending, Frontier* next) {
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

/// The iteration floor of a pull iteration: the best potential any frontier
/// vertex holds, a conservative bound on every offer RunPullKernel can see.
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
/// Shards cover disjoint vertex ranges; activations into `next` go through
/// ShardActivations, so each shard publishes its totals once and the scout
/// count stays exact across pull iterations too. Returns in-edges scanned
/// (including frontier-membership misses), the honest work unit pull is
/// judged by.
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
        uint64_t local_edges = 0;
        // One lease for the whole slice: the dense ascending scan re-pins
        // the transpose block only on boundary crossings when it streams.
        BlockRef lease;
        ShardActivations activations(view, next);
        for (auto v = static_cast<VertexId>(begin); v < end; ++v) {
          if (program.SettledAt(v, floor)) continue;
          bool changed = false;
          view.ForEachInNeighborWhileLeased(
              v, &lease, [&](VertexId u, Weight w) {
                ++local_edges;
                if (!current.IsActive(u)) return true;
                typename Program::VertexContext ctx;
                if (!program.BeginVertex(u, &ctx)) return true;
                if (program.ProcessEdge(ctx, u, v, w)) {
                  changed = true;
                  // Settled at the floor: no remaining in-neighbour can
                  // offer better — stop the scan.
                  if (program.SettledAt(v, floor)) return false;
                }
                return true;
              });
          if (changed) activations.Activate(v);
        }
        activations.Publish();
        edges_processed.fetch_add(local_edges, std::memory_order_relaxed);
      },
      /*min_grain=*/256);
  return edges_processed.load();
}

/// Same as RunKernel but over a compacted subgraph (Subway-style GPU-side
/// processing of the shipped sub-CSR). Identical relaxation semantics.
/// `view` is the graph the sub-CSR was compacted from — activations read
/// its degrees so the scout count stays exact (targets can lie outside the
/// compacted vertex set, so the sub-CSR's own offsets can't supply them).
template <typename Program>
uint64_t RunKernelOnSubCsr(const GraphView& view, const SubCsr& sub,
                           Program& program, Frontier* next,
                           ShareRows* shares = nullptr) {
  if (sub.vertices.empty()) return 0;
  std::atomic<uint64_t> edges_processed{0};
  ThreadPool::Default()->ParallelFor(
      sub.vertices.size(),
      [&](int shard, uint64_t begin, uint64_t end) {
        uint64_t local_edges = 0;
        PushShard<Program> push(view, program, next, shares, shard);
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
