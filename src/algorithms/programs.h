// The paper's four evaluation algorithms (BFS, SSSP, CC, PageRank) plus PHP
// (Penalized Hitting Probability, Zhang et al. "Maiter" — the other Δ-based
// algorithm Section VI-A names), expressed as push-mode vertex programs for
// the solver (see core/solver.h for the Program concept).
//
// Two families, exactly the paper's taxonomy (Section III):
//  * value-selection (BFS, SSSP, CC): values only improve (atomic min), the
//    frontier shrinks as values converge — the "increase then decrease"
//    active pattern;
//  * value-accumulation (PR, PHP): pending deltas accumulate until consumed
//    — the "monotone decrease" active pattern; these expose DeltaOf() for
//    Δ-driven contribution scheduling. They hold no atomics: Share(ctx, v,
//    w) gives the message one edge carries, the kernels add it to the
//    calling shard's private row, and the solver's fold (ShareRows in
//    engine/kernels.h) sums the rows in shard order and hands each sum to
//    Apply(v, sum), which reports whether v's delta reached epsilon.
//
// The value-selection family additionally implements the pull-direction
// hooks (see RunPullKernel in engine/kernels.h): PullPotential(u) is the
// best value active vertex u could write to any out-neighbour this
// iteration, and SettledAt(v, bound) reports whether v's value is already
// at least as good as `bound` — once v settles at the iteration floor (the
// best potential over the whole frontier), no in-neighbour scan can improve
// it, so pull candidates early-exit. The floor is conservative (every
// actual offer is >= it), which keeps pull values bitwise identical to
// push. PR/PHP stay push-only: their BeginVertex *consumes* the pending
// delta, so gathering per in-edge would double-count mass.

#ifndef HYTGRAPH_ALGORITHMS_PROGRAMS_H_
#define HYTGRAPH_ALGORITHMS_PROGRAMS_H_

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <vector>

#include "algorithms/atomic_ops.h"
#include "engine/frontier.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace hytgraph {

inline constexpr uint32_t kUnreachable =
    std::numeric_limits<uint32_t>::max();

/// Breadth-First Search: level of every vertex from a source.
class BfsProgram {
 public:
  using Value = uint32_t;
  static constexpr bool kNeedsWeights = false;
  static constexpr bool kHasDelta = false;
  // A vertex that reaches its floor (level+1 of the frontier) is settled
  // for good, so successive pull gathers shrink geometrically — the
  // solver's measured-cost feedback would mispredict them; pure Beamer
  // thresholds steer better.
  static constexpr bool kPullCandidatesLinger = false;
  static constexpr const char* kName = "BFS";

  BfsProgram(const GraphView& view, VertexId source)
      : source_(source), levels_(view.num_vertices()) {
    for (auto& level : levels_) {
      level.store(kUnreachable, std::memory_order_relaxed);
    }
    levels_[source_].store(0, std::memory_order_relaxed);
  }

  BfsProgram(const CsrGraph& graph, VertexId source)
      : BfsProgram(GraphView::Wrap(graph), source) {}

  void InitFrontier(Frontier* frontier) { frontier->Activate(source_); }

  struct VertexContext {
    uint32_t level;
  };

  bool BeginVertex(VertexId u, VertexContext* ctx) {
    ctx->level = levels_[u].load(std::memory_order_relaxed);
    return ctx->level != kUnreachable;
  }

  bool ProcessEdge(const VertexContext& ctx, VertexId /*u*/, VertexId v,
                   Weight /*w*/) {
    return AtomicMin(&levels_[v], ctx.level + 1);
  }

  /// --- Pull-direction hooks ---
  using PullBound = uint32_t;
  static PullBound WorstBound() { return kUnreachable; }
  static PullBound BetterBound(PullBound a, PullBound b) {
    return std::min(a, b);
  }
  /// Best level u could assign to an out-neighbour: level(u) + 1.
  PullBound PullPotential(VertexId u) const {
    const uint32_t level = levels_[u].load(std::memory_order_relaxed);
    return level == kUnreachable ? kUnreachable : level + 1;
  }
  bool SettledAt(VertexId v, PullBound bound) const {
    return levels_[v].load(std::memory_order_relaxed) <= bound;
  }

  /// Snapshot of the level array.
  std::vector<uint32_t> Values() const {
    std::vector<uint32_t> out(levels_.size());
    for (size_t i = 0; i < levels_.size(); ++i) {
      out[i] = levels_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  VertexId source_;
  std::vector<std::atomic<uint32_t>> levels_;
};

/// Single-Source Shortest Paths over non-negative integer weights.
class SsspProgram {
 public:
  using Value = uint32_t;
  static constexpr bool kNeedsWeights = true;
  static constexpr bool kHasDelta = false;
  // The settled floor moves every iteration, so unsettled candidates are
  // rescanned until their distance stops improving — gather cost stays
  // near the last measured one, making the solver's feedback term an
  // accurate predictor (without it, auto mode lingers in pull on
  // shrinking frontiers and loses to push).
  static constexpr bool kPullCandidatesLinger = true;
  static constexpr const char* kName = "SSSP";

  SsspProgram(const GraphView& view, VertexId source)
      : source_(source), view_(view), dists_(view.num_vertices()) {
    for (auto& dist : dists_) {
      dist.store(kUnreachable, std::memory_order_relaxed);
    }
    dists_[source_].store(0, std::memory_order_relaxed);
  }

  SsspProgram(const CsrGraph& graph, VertexId source)
      : SsspProgram(GraphView::Wrap(graph), source) {}

  void InitFrontier(Frontier* frontier) { frontier->Activate(source_); }

  struct VertexContext {
    uint32_t dist;
  };

  bool BeginVertex(VertexId u, VertexContext* ctx) {
    ctx->dist = dists_[u].load(std::memory_order_relaxed);
    return ctx->dist != kUnreachable;
  }

  bool ProcessEdge(const VertexContext& ctx, VertexId /*u*/, VertexId v,
                   Weight w) {
    return AtomicMin(&dists_[v], ctx.dist + w);
  }

  /// --- Pull-direction hooks ---
  using PullBound = uint32_t;
  static PullBound WorstBound() { return kUnreachable; }
  static PullBound BetterBound(PullBound a, PullBound b) {
    return std::min(a, b);
  }
  /// Best offer u can make to any out-neighbour: dist(u) + min_out_w(u).
  /// Every actual offer is dist(u) + w with w >= min_out_w(u), so the floor
  /// stays sound for any non-negative weighting while settling far more
  /// candidates than the plain dist(u) bound (which degrades toward "nobody
  /// settles" as weights grow — the weighted-SSSP analogue of BFS's
  /// level+1). The per-vertex minima are built lazily on the first pull
  /// iteration — an O(E) scan paid once per query, and only by queries
  /// that actually pull.
  PullBound PullPotential(VertexId u) const {
    const uint32_t dist = dists_[u].load(std::memory_order_relaxed);
    if (dist == kUnreachable) return kUnreachable;
    std::call_once(min_out_once_, [this] { BuildMinOutWeights(); });
    const uint32_t min_w = min_out_w_[u];
    if (min_w == kUnreachable) return kUnreachable;  // no out-edges: no offer
    const uint64_t offer = static_cast<uint64_t>(dist) + min_w;
    return offer >= kUnreachable ? kUnreachable
                                 : static_cast<uint32_t>(offer);
  }
  bool SettledAt(VertexId v, PullBound bound) const {
    return dists_[v].load(std::memory_order_relaxed) <= bound;
  }

  std::vector<uint32_t> Values() const {
    std::vector<uint32_t> out(dists_.size());
    for (size_t i = 0; i < dists_.size(); ++i) {
      out[i] = dists_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  void BuildMinOutWeights() const {
    min_out_w_.assign(dists_.size(), kUnreachable);
    ThreadPool::Default()->ParallelFor(
        min_out_w_.size(),
        [&](int /*shard*/, uint64_t begin, uint64_t end) {
          BlockRef lease;  // one per shard: ascending scan, out-of-core safe
          for (uint64_t v = begin; v < end; ++v) {
            uint32_t best = kUnreachable;
            view_.ForEachNeighborLeased(
                static_cast<VertexId>(v), &lease,
                [&](VertexId /*t*/, Weight w) { best = std::min(best, w); });
            min_out_w_[v] = best;
          }
        },
        /*min_grain=*/256);
  }

  VertexId source_;
  const GraphView view_;
  std::vector<std::atomic<uint32_t>> dists_;
  mutable std::once_flag min_out_once_;
  mutable std::vector<uint32_t> min_out_w_;
};

/// Connected Components by min-label propagation along out-edges. For
/// undirected (symmetrized) graphs this yields connected components; for
/// directed inputs it is the standard GPU-framework label propagation the
/// paper's CC numbers measure.
class CcProgram {
 public:
  using Value = uint32_t;
  static constexpr bool kNeedsWeights = false;
  static constexpr bool kHasDelta = false;
  // Labels settle permanently like BFS levels: gathers collapse after the
  // first pull iteration, so the measured-cost feedback stays off.
  static constexpr bool kPullCandidatesLinger = false;
  static constexpr const char* kName = "CC";

  explicit CcProgram(const GraphView& view) : labels_(view.num_vertices()) {
    for (size_t v = 0; v < labels_.size(); ++v) {
      labels_[v].store(static_cast<uint32_t>(v), std::memory_order_relaxed);
    }
  }

  explicit CcProgram(const CsrGraph& graph)
      : CcProgram(GraphView::Wrap(graph)) {}

  void InitFrontier(Frontier* frontier) {
    for (VertexId v = 0; v < static_cast<VertexId>(labels_.size()); ++v) {
      frontier->Activate(v);
    }
  }

  struct VertexContext {
    uint32_t label;
  };

  bool BeginVertex(VertexId u, VertexContext* ctx) {
    ctx->label = labels_[u].load(std::memory_order_relaxed);
    return true;
  }

  bool ProcessEdge(const VertexContext& ctx, VertexId /*u*/, VertexId v,
                   Weight /*w*/) {
    return AtomicMin(&labels_[v], ctx.label);
  }

  /// --- Pull-direction hooks ---
  using PullBound = uint32_t;
  static PullBound WorstBound() {
    return std::numeric_limits<uint32_t>::max();
  }
  static PullBound BetterBound(PullBound a, PullBound b) {
    return std::min(a, b);
  }
  PullBound PullPotential(VertexId u) const {
    return labels_[u].load(std::memory_order_relaxed);
  }
  bool SettledAt(VertexId v, PullBound bound) const {
    return labels_[v].load(std::memory_order_relaxed) <= bound;
  }

  std::vector<uint32_t> Values() const {
    std::vector<uint32_t> out(labels_.size());
    for (size_t i = 0; i < labels_.size(); ++i) {
      out[i] = labels_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  std::vector<std::atomic<uint32_t>> labels_;
};

struct PageRankOptions {
  double damping = 0.85;
  /// A vertex activates when its pending delta reaches this threshold;
  /// convergence = no pending delta above it.
  double epsilon = 1e-6;
};

/// Δ-based (accumulative) PageRank in the style of Maiter [41]: rank(v)
/// accumulates consumed deltas; processing v pushes damping*Δ/Do(v) to its
/// neighbours. Unnormalized formulation: stationary ranks satisfy
/// r(v) = (1-d) + d * sum_{u->v} r(u)/Do(u).
class PageRankProgram {
 public:
  using Value = double;
  static constexpr bool kNeedsWeights = false;
  static constexpr bool kHasDelta = true;
  static constexpr const char* kName = "PageRank";

  explicit PageRankProgram(const GraphView& view,
                           const PageRankOptions& options = {})
      : graph_(view),
        options_(options),
        ranks_(view.num_vertices(), 0.0),
        deltas_(view.num_vertices(), 1.0 - options_.damping) {}

  /// Static-graph convenience: the graph must outlive the program.
  explicit PageRankProgram(const CsrGraph& graph,
                           const PageRankOptions& options = {})
      : PageRankProgram(GraphView::Wrap(graph), options) {}

  void InitFrontier(Frontier* frontier) {
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      frontier->Activate(v);
    }
  }

  struct VertexContext {
    double contribution;  // damping * delta / out_degree
  };

  /// Consumes u's pending mass: its folded delta plus `own_share`, the
  /// share the calling kernel shard pushed to u since the last fold (the
  /// shard wrote it itself, so the kernel hands it over without a race).
  bool BeginVertex(VertexId u, VertexContext* ctx, double own_share = 0.0) {
    const double delta = deltas_[u] + own_share;
    deltas_[u] = 0.0;
    if (delta == 0.0) return false;
    ranks_[u] += delta;  // consume: only this visit owns u's pending mass
    const EdgeId deg = graph_.out_degree(u);
    if (deg == 0) return false;  // dangling: mass retained, not pushed
    ctx->contribution = options_.damping * delta / static_cast<double>(deg);
    return true;
  }

  /// The message edge (u, v) carries: an equal split of u's damped delta.
  double Share(const VertexContext& ctx, VertexId /*v*/,
               Weight /*w*/) const {
    return ctx.contribution;
  }

  /// Folds the shares v received into its pending delta; true once the
  /// delta reaches epsilon (v activates).
  bool Apply(VertexId v, double sum) {
    deltas_[v] += sum;
    return deltas_[v] >= options_.epsilon;
  }

  double DeltaOf(VertexId v) const { return deltas_[v]; }

  std::vector<double> Values() const {
    // Rank = consumed mass + still-pending mass (so totals are exact even
    // for sub-epsilon residuals).
    std::vector<double> out(ranks_.size());
    for (size_t i = 0; i < ranks_.size(); ++i) {
      out[i] = ranks_[i] + deltas_[i];
    }
    return out;
  }

 private:
  GraphView graph_;  // overlay-adjusted out-degrees for the rank split
  PageRankOptions options_;
  std::vector<double> ranks_;
  std::vector<double> deltas_;
};

struct PhpOptions {
  double damping = 0.8;
  double epsilon = 1e-6;
};

/// Penalized Hitting Probability (Maiter [41]): proximity of every vertex to
/// a source. Δ-accumulative like PageRank, but propagation is weighted by
/// edge weight over the source vertex's total out-weight, and mass entering
/// the source is discarded (the "penalty").
class PhpProgram {
 public:
  using Value = double;
  static constexpr bool kNeedsWeights = true;
  static constexpr bool kHasDelta = true;
  static constexpr const char* kName = "PHP";

  PhpProgram(const GraphView& view, VertexId source,
             const PhpOptions& options = {})
      : options_(options),
        source_(source),
        values_(view.num_vertices(), 0.0),
        deltas_(view.num_vertices(), 0.0),
        weight_sums_(view.num_vertices(), 0.0) {
    deltas_[source_] = 1.0;
    // Weight sums cover the mutated adjacency. An unweighted graph keeps
    // all-zero sums (no propagation), matching the historical weights(v)
    // behaviour.
    if (view.is_weighted()) {
      for (VertexId v = 0; v < view.num_vertices(); ++v) {
        double sum = 0;
        view.ForEachNeighbor(v, [&](VertexId /*dst*/, Weight w) { sum += w; });
        weight_sums_[v] = sum;
      }
    }
  }

  PhpProgram(const CsrGraph& graph, VertexId source,
             const PhpOptions& options = {})
      : PhpProgram(GraphView::Wrap(graph), source, options) {}

  void InitFrontier(Frontier* frontier) { frontier->Activate(source_); }

  struct VertexContext {
    double scaled_delta;  // damping * delta / weight_sum(u)
  };

  /// Consumes u's folded delta plus the calling shard's own pending share
  /// (see PageRankProgram::BeginVertex).
  bool BeginVertex(VertexId u, VertexContext* ctx, double own_share = 0.0) {
    const double delta = deltas_[u] + own_share;
    deltas_[u] = 0.0;
    if (delta == 0.0) return false;
    values_[u] += delta;
    if (weight_sums_[u] == 0.0) return false;
    ctx->scaled_delta = options_.damping * delta / weight_sums_[u];
    return true;
  }

  /// The message edge (u, v) carries, weighted by w; 0 into the source
  /// (penalty: mass entering the source is discarded).
  double Share(const VertexContext& ctx, VertexId v, Weight w) const {
    if (v == source_) return 0.0;
    return ctx.scaled_delta * static_cast<double>(w);
  }

  /// Folds the shares v received into its pending delta; true once the
  /// delta reaches epsilon (v activates).
  bool Apply(VertexId v, double sum) {
    deltas_[v] += sum;
    return deltas_[v] >= options_.epsilon;
  }

  double DeltaOf(VertexId v) const { return deltas_[v]; }

  std::vector<double> Values() const {
    std::vector<double> out(values_.size());
    for (size_t i = 0; i < values_.size(); ++i) {
      out[i] = values_[i] + deltas_[i];
    }
    return out;
  }

 private:
  PhpOptions options_;
  VertexId source_;
  std::vector<double> values_;
  std::vector<double> deltas_;
  std::vector<double> weight_sums_;
};

/// Single-Source Widest Path (a.k.a. maximum-capacity path): the value of v
/// is the largest bottleneck capacity over all paths source -> v, i.e. a
/// max-min semiring. A third member of the value-selection family with the
/// *opposite* monotonicity of SSSP/BFS — values only grow — exercising the
/// engines under an atomic-max program.
class SswpProgram {
 public:
  using Value = uint32_t;
  static constexpr bool kNeedsWeights = true;
  static constexpr bool kHasDelta = false;
  // Same slow-settling structure as SSSP (the width floor keeps moving),
  // so the measured-cost feedback applies.
  static constexpr bool kPullCandidatesLinger = true;
  static constexpr const char* kName = "SSWP";

  SswpProgram(const GraphView& view, VertexId source)
      : source_(source), widths_(view.num_vertices()) {
    for (auto& width : widths_) {
      width.store(0, std::memory_order_relaxed);
    }
    widths_[source_].store(std::numeric_limits<uint32_t>::max(),
                           std::memory_order_relaxed);
  }

  SswpProgram(const CsrGraph& graph, VertexId source)
      : SswpProgram(GraphView::Wrap(graph), source) {}

  void InitFrontier(Frontier* frontier) { frontier->Activate(source_); }

  struct VertexContext {
    uint32_t width;
  };

  bool BeginVertex(VertexId u, VertexContext* ctx) {
    ctx->width = widths_[u].load(std::memory_order_relaxed);
    return ctx->width != 0;
  }

  bool ProcessEdge(const VertexContext& ctx, VertexId /*u*/, VertexId v,
                   Weight w) {
    const uint32_t candidate = std::min(ctx.width, static_cast<uint32_t>(w));
    // Atomic max via CAS loop (mirror of AtomicMin).
    uint32_t current = widths_[v].load(std::memory_order_relaxed);
    while (candidate > current) {
      if (widths_[v].compare_exchange_weak(current, candidate,
                                           std::memory_order_relaxed)) {
        return true;
      }
    }
    return false;
  }

  /// --- Pull-direction hooks (max-min: wider is better) ---
  using PullBound = uint32_t;
  static PullBound WorstBound() { return 0; }
  static PullBound BetterBound(PullBound a, PullBound b) {
    return std::max(a, b);
  }
  /// width(u) is an upper bound on every offer min(width(u), w).
  PullBound PullPotential(VertexId u) const {
    return widths_[u].load(std::memory_order_relaxed);
  }
  bool SettledAt(VertexId v, PullBound bound) const {
    return widths_[v].load(std::memory_order_relaxed) >= bound;
  }

  std::vector<uint32_t> Values() const {
    std::vector<uint32_t> out(widths_.size());
    for (size_t i = 0; i < widths_.size(); ++i) {
      out[i] = widths_[i].load(std::memory_order_relaxed);
    }
    return out;
  }

 private:
  VertexId source_;
  std::vector<std::atomic<uint32_t>> widths_;
};

}  // namespace hytgraph

#endif  // HYTGRAPH_ALGORITHMS_PROGRAMS_H_
