// The vertex programs the solver runs, and the program concept they share.
//
// The paper's four evaluation algorithms (BFS, SSSP, CC, PageRank), plus
// PHP (Penalized Hitting Probability, Zhang et al. "Maiter", the other
// Δ-based algorithm Section VI-A names) and SSWP (widest path), in the
// paper's two families (Section III):
//  * value selection (BFS, SSSP, CC, SSWP): values only improve (min, or
//    max for SSWP) and the frontier shrinks as values converge, the
//    "increase then decrease" active pattern. Each algorithm is a rule
//    (BfsRule, SsspRule, CcRule, SswpRule) that says what a value is and
//    how an edge offers a better one; SelectionProgram<Rule> derives the
//    program from it, and the incremental paths (dynamic/incremental.cc)
//    run the same rules. A new selection algorithm is a new rule.
//  * value accumulation (PR, PHP): pending deltas accumulate until
//    consumed, the "monotone decrease" active pattern; these expose
//    DeltaOf() for Δ-driven contribution scheduling. They hold no atomics:
//    Share(ctx, v, w) gives the message one edge carries, the kernels add
//    it to the calling shard's private row, and the solver's fold
//    (ShareRows in engine/kernels.h) sums the rows in shard order and
//    hands each sum to Apply(v, sum), which reports whether v's |delta|
//    reached epsilon. A warm start (previous values plus a residual, which
//    may be negative) lets incremental runs propagate with the same
//    kernels.
//
// Program concept. The solver (core/solver.h) and the kernels
// (engine/kernels.h) run any type with these members; the kernels supply
// iteration order, parallelism and frontier maintenance:
//   using Value = ...;                     // per-vertex value type
//   static constexpr bool kNeedsWeights;   // edge weights are transferred
//   static constexpr bool kHasDelta;       // the accumulation family
//   static constexpr const char* kName;
//   void InitFrontier(Frontier* frontier); // seeds the first iteration
//   struct VertexContext {...};            // per-source state for one visit
//   std::vector<Value> Values() const;     // snapshot of the results
//  Value selection (kHasDelta == false) relaxes in place:
//   bool BeginVertex(VertexId u, VertexContext* ctx);  // false: skip u
//   bool ProcessEdge(const VertexContext& ctx, VertexId u, VertexId v,
//                    Weight w);            // true: v improved, activate it
//  Accumulation (kHasDelta == true) pushes shares, see ShareRows:
//   bool BeginVertex(VertexId u, VertexContext* ctx, double own_share);
//   double Share(const VertexContext& ctx, VertexId v, Weight w) const;
//   bool Apply(VertexId v, double sum);    // true: delta reached epsilon
//   double DeltaOf(VertexId v) const;      // Δ-driven priority
//  Pull direction, value selection only (PullCapableProgram in
//  engine/kernels.h):
//   using PullBound = ...;
//   static PullBound WorstBound();
//   static PullBound BetterBound(PullBound a, PullBound b);
//   PullBound PullPotential(VertexId u) const;
//   bool SettledAt(VertexId v, PullBound bound) const;
//   static constexpr bool kPullCandidatesLinger;  // solver's cost feedback
//
// PullPotential(u) is the best value active vertex u could write to any
// out-neighbour this iteration, and SettledAt(v, bound) reports whether
// v's value is already at least as good as `bound`. Once v settles at the
// iteration floor (the best potential over the whole frontier), no
// in-neighbour scan can improve it, so pull candidates early-exit (see
// RunPullKernel). The floor is conservative (no actual offer beats it),
// which keeps pull values bitwise identical to push. PR/PHP stay
// push-only: their BeginVertex *consumes* the pending delta, so gathering
// per in-edge would double-count mass.

#ifndef HYTGRAPH_ALGORITHMS_PROGRAMS_H_
#define HYTGRAPH_ALGORITHMS_PROGRAMS_H_

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <type_traits>
#include <utility>
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

/// A value-selection algorithm, stated as a rule over uint32_t values:
///   static uint32_t Identity(VertexId v);     // v's value before any offer
///   static constexpr bool kSourceSeeded;      // false: every vertex seeds
///   static constexpr uint32_t kSourceValue;   // if kSourceSeeded
///   static bool Productive(uint32_t x);       // x has offers to make
///   static uint32_t Candidate(uint32_t x, Weight w);  // offer over (u, v)
///   static constexpr bool Improves(uint32_t a, uint32_t b);  // a beats b
///   static constexpr bool kNeedsWeights, kPullCandidatesLinger;
///   static constexpr const char* kName;
/// SelectionProgram<Rule> derives the program from these: the atomic value
/// array, InitFrontier, BeginVertex (Productive), ProcessEdge (one CAS loop
/// that stores the candidate while it improves the value) and the pull
/// hooks. The best potential of a productive x is the better of
/// Candidate(x, 0) and Candidate(x, max weight), which bounds every offer
/// when Candidate is monotone in w. A rule whose bound needs the graph
/// (SSSP) is constructed from the view and supplies
///   uint32_t PullPotential(VertexId u, uint32_t x) const;
template <typename Rule>
class SelectionProgram {
 public:
  using Value = uint32_t;
  static constexpr bool kNeedsWeights = Rule::kNeedsWeights;
  static constexpr bool kHasDelta = false;
  static constexpr bool kPullCandidatesLinger = Rule::kPullCandidatesLinger;
  static constexpr const char* kName = Rule::kName;

  SelectionProgram(const GraphView& view, VertexId source)
    requires Rule::kSourceSeeded
      : rule_(MakeRule(view)), source_(source), values_(view.num_vertices()) {
    StoreIdentities();
    values_[source_].store(Rule::kSourceValue, std::memory_order_relaxed);
  }

  SelectionProgram(const CsrGraph& graph, VertexId source)
    requires Rule::kSourceSeeded
      : SelectionProgram(GraphView::Wrap(graph), source) {}

  explicit SelectionProgram(const GraphView& view)
    requires(!Rule::kSourceSeeded)
      : rule_(MakeRule(view)), values_(view.num_vertices()) {
    StoreIdentities();
  }

  explicit SelectionProgram(const CsrGraph& graph)
    requires(!Rule::kSourceSeeded)
      : SelectionProgram(GraphView::Wrap(graph)) {}

  void InitFrontier(Frontier* frontier) {
    if constexpr (Rule::kSourceSeeded) {
      frontier->Activate(source_);
    } else {
      for (VertexId v = 0; v < static_cast<VertexId>(values_.size()); ++v) {
        frontier->Activate(v);
      }
    }
  }

  struct VertexContext {
    Value value;
  };

  bool BeginVertex(VertexId u, VertexContext* ctx) {
    ctx->value = Load(u);
    return Rule::Productive(ctx->value);
  }

  bool ProcessEdge(const VertexContext& ctx, VertexId /*u*/, VertexId v,
                   Weight w) {
    return AtomicImprove(&values_[v], Rule::Candidate(ctx.value, w),
                         [](Value a, Value b) { return Rule::Improves(a, b); });
  }

  /// --- Pull-direction hooks ---
  using PullBound = Value;
  /// The bound every value improves on: the top of the range when smaller
  /// is better, 0 when larger is.
  static PullBound WorstBound() {
    constexpr Value kMax = std::numeric_limits<Value>::max();
    return Rule::Improves(0, kMax) ? kMax : 0;
  }
  static PullBound BetterBound(PullBound a, PullBound b) {
    return Rule::Improves(b, a) ? b : a;
  }
  /// Best offer u can make to any out-neighbour (see the rule comment).
  PullBound PullPotential(VertexId u) const {
    const Value x = Load(u);
    if (!Rule::Productive(x)) return WorstBound();
    if constexpr (requires(const Rule& r) { r.PullPotential(u, x); }) {
      return rule_.PullPotential(u, x);
    } else {
      constexpr Weight kMaxWeight = std::numeric_limits<Weight>::max();
      return BetterBound(Rule::Candidate(x, 0), Rule::Candidate(x, kMaxWeight));
    }
  }
  bool SettledAt(VertexId v, PullBound bound) const {
    return !Rule::Improves(bound, Load(v));
  }

  std::vector<Value> Values() const {
    std::vector<Value> out(values_.size());
    for (size_t i = 0; i < values_.size(); ++i) out[i] = Load(i);
    return out;
  }

 private:
  static Rule MakeRule(const GraphView& view) {
    if constexpr (std::is_constructible_v<Rule, const GraphView&>) {
      return Rule(view);
    } else {
      return Rule();
    }
  }

  void StoreIdentities() {
    for (size_t v = 0; v < values_.size(); ++v) {
      values_[v].store(Rule::Identity(static_cast<VertexId>(v)),
                       std::memory_order_relaxed);
    }
  }

  Value Load(size_t v) const {
    return values_[v].load(std::memory_order_relaxed);
  }

  Rule rule_;
  VertexId source_ = kInvalidVertex;
  std::vector<std::atomic<Value>> values_;
};

/// Breadth-First Search: level of every vertex from a source.
struct BfsRule {
  static constexpr const char* kName = "BFS";
  static constexpr bool kNeedsWeights = false;
  // A vertex that reaches its floor (level+1 of the frontier) is settled
  // for good, so successive pull gathers shrink geometrically — the
  // solver's measured-cost feedback would mispredict them; pure Beamer
  // thresholds steer better.
  static constexpr bool kPullCandidatesLinger = false;
  static constexpr bool kSourceSeeded = true;
  static constexpr uint32_t kSourceValue = 0;
  static uint32_t Identity(VertexId /*v*/) { return kUnreachable; }
  static bool Productive(uint32_t level) { return level != kUnreachable; }
  static uint32_t Candidate(uint32_t level, Weight /*w*/) { return level + 1; }
  static constexpr bool Improves(uint32_t a, uint32_t b) { return a < b; }
};
using BfsProgram = SelectionProgram<BfsRule>;

/// Single-Source Shortest Paths over non-negative integer weights.
class SsspRule {
 public:
  static constexpr const char* kName = "SSSP";
  static constexpr bool kNeedsWeights = true;
  // The settled floor moves every iteration, so unsettled candidates are
  // rescanned until their distance stops improving — gather cost stays
  // near the last measured one, making the solver's feedback term an
  // accurate predictor (without it, auto mode lingers in pull on
  // shrinking frontiers and loses to push).
  static constexpr bool kPullCandidatesLinger = true;
  static constexpr bool kSourceSeeded = true;
  static constexpr uint32_t kSourceValue = 0;
  static uint32_t Identity(VertexId /*v*/) { return kUnreachable; }
  static bool Productive(uint32_t dist) { return dist != kUnreachable; }
  /// dist + w, saturating at kUnreachable: a path whose length passes the
  /// top of the range reaches nothing, in push and in pull alike. A sum
  /// wrapped past 2^32 is smaller than dist (the add's carry).
  static uint32_t Candidate(uint32_t dist, Weight w) {
    const uint32_t offer = dist + w;
    return offer < dist ? kUnreachable : offer;
  }
  static constexpr bool Improves(uint32_t a, uint32_t b) { return a < b; }

  explicit SsspRule(const GraphView& view) : view_(view) {}

  /// Best offer u can make to any out-neighbour: dist(u) + min_out_w(u),
  /// saturating at kUnreachable. Every actual offer is dist(u) + w with
  /// w >= min_out_w(u), so the floor stays sound for any non-negative
  /// weighting while settling far more candidates than the plain dist(u)
  /// bound (which degrades toward "nobody settles" as weights grow — the
  /// weighted-SSSP analogue of BFS's level+1). The per-vertex minima are
  /// built lazily on the first pull iteration — an O(E) scan paid once per
  /// query, and only by queries that actually pull.
  uint32_t PullPotential(VertexId u, uint32_t dist) const {
    std::call_once(min_out_once_, [this] { BuildMinOutWeights(); });
    // A vertex with no out-edges keeps min_w = kUnreachable: no offer.
    return Candidate(dist, min_out_w_[u]);
  }

 private:
  void BuildMinOutWeights() const {
    min_out_w_.assign(view_.num_vertices(), kUnreachable);
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

  const GraphView view_;
  mutable std::once_flag min_out_once_;
  mutable std::vector<uint32_t> min_out_w_;
};
using SsspProgram = SelectionProgram<SsspRule>;

/// Connected Components by min-label propagation along out-edges. For
/// undirected (symmetrized) graphs this yields connected components; for
/// directed inputs it is the standard GPU-framework label propagation the
/// paper's CC numbers measure.
struct CcRule {
  static constexpr const char* kName = "CC";
  static constexpr bool kNeedsWeights = false;
  // Labels settle permanently like BFS levels: gathers collapse after the
  // first pull iteration, so the measured-cost feedback stays off.
  static constexpr bool kPullCandidatesLinger = false;
  static constexpr bool kSourceSeeded = false;
  /// The own label, which is itself productive: every vertex starts active.
  static uint32_t Identity(VertexId v) { return v; }
  static bool Productive(uint32_t /*label*/) { return true; }
  static uint32_t Candidate(uint32_t label, Weight /*w*/) { return label; }
  static constexpr bool Improves(uint32_t a, uint32_t b) { return a < b; }
};
using CcProgram = SelectionProgram<CcRule>;

/// Single-Source Widest Path (a.k.a. maximum-capacity path): the value of v
/// is the largest bottleneck capacity over all paths source -> v, i.e. a
/// max-min semiring. The value-selection member with the *opposite*
/// monotonicity of SSSP/BFS — values only grow — exercising the engines
/// under an atomic-max program.
struct SswpRule {
  static constexpr const char* kName = "SSWP";
  static constexpr bool kNeedsWeights = true;
  // Same slow-settling structure as SSSP (the width floor keeps moving),
  // so the measured-cost feedback applies.
  static constexpr bool kPullCandidatesLinger = true;
  static constexpr bool kSourceSeeded = true;
  static constexpr uint32_t kSourceValue =
      std::numeric_limits<uint32_t>::max();
  static uint32_t Identity(VertexId /*v*/) { return 0; }
  static bool Productive(uint32_t width) { return width != 0; }
  static uint32_t Candidate(uint32_t width, Weight w) {
    return std::min(width, static_cast<uint32_t>(w));
  }
  static constexpr bool Improves(uint32_t a, uint32_t b) { return a > b; }
};
using SswpProgram = SelectionProgram<SswpRule>;

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

  /// Cold start: no consumed rank, the teleport mass 1 - damping pending
  /// everywhere.
  explicit PageRankProgram(const GraphView& view,
                           const PageRankOptions& options = {})
      : PageRankProgram(view, std::vector<double>(view.num_vertices(), 0.0),
                        std::vector<double>(view.num_vertices(),
                                            1.0 - options.damping),
                        options) {}

  /// Warm start: `consumed` (the previous ranks) is the mass already
  /// consumed, `pending` the residual still to propagate, both of size
  /// num_vertices. A pending delta may be negative: the residual a deletion
  /// withdraws propagates like any other.
  PageRankProgram(const GraphView& view, std::vector<double> consumed,
                  std::vector<double> pending,
                  const PageRankOptions& options = {})
      : graph_(view),
        options_(options),
        ranks_(std::move(consumed)),
        deltas_(std::move(pending)) {
    HYT_CHECK_EQ(ranks_.size(), graph_.num_vertices());
    HYT_CHECK_EQ(deltas_.size(), graph_.num_vertices());
  }

  /// Static-graph convenience: the graph must outlive the program.
  explicit PageRankProgram(const CsrGraph& graph,
                           const PageRankOptions& options = {})
      : PageRankProgram(GraphView::Wrap(graph), options) {}

  /// Activates every vertex with a pending delta (see Pending).
  void InitFrontier(Frontier* frontier) {
    for (VertexId v = 0; v < graph_.num_vertices(); ++v) {
      if (Pending(v)) frontier->Activate(v);
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
  /// delta's magnitude reaches epsilon (v activates).
  bool Apply(VertexId v, double sum) {
    deltas_[v] += sum;
    return Pending(v);
  }

  double DeltaOf(VertexId v) const { return deltas_[v]; }

  /// True while v has mass to push: a nonzero delta of magnitude at least
  /// epsilon. Cold deltas are never negative; a warm start's may be.
  bool Pending(VertexId v) const {
    const double delta = deltas_[v];
    return delta != 0.0 && std::abs(delta) >= options_.epsilon;
  }

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

  /// Cold start: unit mass pending at the source.
  PhpProgram(const GraphView& view, VertexId source,
             const PhpOptions& options = {})
      : PhpProgram(view, source, std::vector<double>(view.num_vertices(), 0.0),
                   std::vector<double>(view.num_vertices(), 0.0), options) {
    deltas_[source_] = 1.0;
  }

  /// Warm start, as PageRankProgram's: `consumed` holds the previous
  /// values, `pending` the residual (possibly negative) to propagate.
  PhpProgram(const GraphView& view, VertexId source,
             std::vector<double> consumed, std::vector<double> pending,
             const PhpOptions& options = {})
      : options_(options),
        source_(source),
        values_(std::move(consumed)),
        deltas_(std::move(pending)),
        weight_sums_(view.num_vertices(), 0.0) {
    HYT_CHECK_EQ(values_.size(), view.num_vertices());
    HYT_CHECK_EQ(deltas_.size(), view.num_vertices());
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

  /// Activates every vertex with a pending delta (see Pending): the source
  /// alone on a cold start.
  void InitFrontier(Frontier* frontier) {
    for (VertexId v = 0; v < static_cast<VertexId>(deltas_.size()); ++v) {
      if (Pending(v)) frontier->Activate(v);
    }
  }

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
  /// delta's magnitude reaches epsilon (v activates).
  bool Apply(VertexId v, double sum) {
    deltas_[v] += sum;
    return Pending(v);
  }

  double DeltaOf(VertexId v) const { return deltas_[v]; }

  /// As PageRankProgram::Pending.
  bool Pending(VertexId v) const {
    const double delta = deltas_[v];
    return delta != 0.0 && std::abs(delta) >= options_.epsilon;
  }

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

}  // namespace hytgraph

#endif  // HYTGRAPH_ALGORITHMS_PROGRAMS_H_
