// Incremental recomputation for the monotone value-selection algorithms.
//
// After an insert-only mutation delta, the previous fixpoint of BFS / SSSP
// / CC / SSWP remains a valid bound in the mutated graph (edge insertion
// can only improve values: shorten distances, lower CC labels, widen
// bottlenecks). Chaotic relaxation seeded from the sources of the inserted
// edges therefore converges to *exactly* the from-scratch fixpoint — the
// standard argument: every intermediate value stays between the warm-start
// bound and the new fixpoint, and termination means no edge is violated.
//
// Edge deletion breaks the bound (a value may have depended on the removed
// edge). DeletionAwareRecompute handles it KickStarter-style with an
// explicit dependency forest: `parents[v]` names the in-neighbor whose
// relaxation produced v's current value (kInvalidVertex for axioms —
// the source, identity-valued vertices, the unreached). A deletion
// invalidates exactly the subtrees rooted at deleted TREE edges: the cone
// floods forward along parent pointers only, its members reset to the
// identity value, and the frontier re-seeds from the cone's non-cone
// in-neighbors plus the delta's insert sources. Everything outside the
// cone keeps its parent chain — an intact derivation of its exact value
// from an axiom through surviving edges, which deletions cannot beat and
// insert-driven improvements reach through the re-seeded frontier.
//
// The forest matters because consistency alone over-floods: CC's
// candidate equals the label itself and SSWP's bottleneck widths tie
// freely, so "y is consistent with a cone member" sweeps whole label
// classes into the cone. Parent pointers are tie-free (each vertex has
// ONE recorded deriver, and chains are acyclic by construction — a parent
// reached its value strictly before its child), so the cone is the true
// dependency cone. When the caller has no forest (the previous result
// came from a full solver run), one certification pass derives it: BFS
// from the axioms along consistency edges over the post-delta view
// assigns parents, and whatever it cannot certify *is* the cone.
//
// The value-accumulation family (PR, PHP) has no per-vertex monotone
// bound; AccumulativeRecompute advances it Maiter-style instead: the new
// fixpoint r' of r = b + d·Aᵀr differs from the old one by
// δ = d·A'ᵀδ + d·(A' − A)ᵀr, so re-injecting each mutated vertex's
// contribution change (computed from the previous values) and propagating
// the residual on the *current* graph converges to the new fixpoint up to
// the epsilon residual — the same tolerance the push kernels terminate
// with. The propagation is the cold runs' own: a PageRankProgram /
// PhpProgram warm-started with the previous values as consumed mass and
// the injected residual as pending deltas, pushed by RunKernel into the
// kernels' ShareRows and folded in shard order, round after round until
// no |delta| reaches epsilon (a deletion's withdrawn mass is negative and
// propagates too). It charges no simulated time and takes no Solver
// decisions. Every sum has a fixed order, so the values are bitwise
// reproducible for a fixed pool size; a call from inside a pool shard
// runs its kernels serially.
//
// The propagation iterates GraphView adjacency directly (merged base +
// overlay), so an incremental run after a small delta touches only the
// affected cone and never pays a CSR rebuild.

#ifndef HYTGRAPH_DYNAMIC_INCREMENTAL_H_
#define HYTGRAPH_DYNAMIC_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "algorithms/registry.h"
#include "dynamic/delta_overlay.h"
#include "graph/graph_view.h"
#include "graph/types.h"
#include "util/status.h"

namespace hytgraph {

/// True for the algorithms whose fixpoints warm-start exactly under
/// insert-only deltas: BFS, SSSP, CC, SSWP.
bool SupportsIncremental(AlgorithmId id);

/// What one recompute did. For PR/PHP (AccumulativeRecompute) a round is
/// one push kernel plus its fold: `seed_vertices` is the first frontier,
/// `relaxed_vertices` the sum of the frontiers, `traversed_edges` the
/// injection's edges plus the kernels', and `improved_vertices` counts the
/// injected residual entries.
struct IncrementalStats {
  uint64_t seed_vertices = 0;     // distinct seeds after dedup
  uint64_t relaxed_vertices = 0;  // vertex visits across all rounds
  uint64_t traversed_edges = 0;
  uint64_t improved_vertices = 0;  // value-change events
  uint64_t rounds = 0;
  /// Vertices invalidated by the deletion cone (0 on the insert-only and
  /// accumulative paths).
  uint64_t cone_vertices = 0;
  /// True when the dependency forest was rebuilt by a certification pass
  /// (the caller supplied no parents), rather than reused and patched.
  bool forest_derived = false;
};

/// Advances `values` (the previous fixpoint, indexed by vertex id, size
/// num_vertices) to the fixpoint of the mutated graph viewed through
/// `graph`. `seeds` are the vertices whose out-edges may be violated —
/// for an insert-only delta, the sources of the inserted edges. `source`
/// is the query source for the source-seeded algorithms (ignored by CC);
/// it must match the source the previous fixpoint was computed from.
///
/// Precondition: the deltas between the previous fixpoint's graph and
/// `graph` are insert-only (callers enforce this; see Engine).
///
/// When `parents` is non-null (size num_vertices), the dependency forest
/// is kept consistent with the advanced values: every improvement records
/// its deriver. Callers chaining into DeletionAwareRecompute later MUST
/// pass it — stale parents under-invalidate.
Result<IncrementalStats> IncrementalRecompute(
    const GraphView& graph, AlgorithmId id, VertexId source,
    std::span<const VertexId> seeds, std::vector<uint32_t>* values,
    std::vector<VertexId>* parents = nullptr);

/// DeltaOverlay convenience overload (tests, direct callers): a non-owning
/// view over `overlay`, which must outlive the call.
inline Result<IncrementalStats> IncrementalRecompute(
    const DeltaOverlay& overlay, AlgorithmId id, VertexId source,
    std::span<const VertexId> seeds, std::vector<uint32_t>* values) {
  return IncrementalRecompute(GraphView::Wrap(overlay), id, source, seeds,
                              values);
}

/// Advances `values` across a delta that CONTAINS DELETIONS (and possibly
/// inserts) for the monotone family: dependency-cone invalidation +
/// boundary re-seeding, exact against a full recompute. `inserted_edges`
/// / `deleted_edges` are the per-epoch mutation-log records since the
/// previous fixpoint, in application order; `graph` is the post-delta
/// view. Builds the reverse side on first use (EnsureReverse) for the
/// boundary scan.
///
/// `parents` is the in/out dependency forest. Sized num_vertices and
/// consistent with `values` on entry → the cone is the exact forward
/// closure of the deleted tree edges (cheap). Any other size → one O(E)
/// certification pass rebuilds it and discovers the cone at the same
/// time. On return it is consistent with the advanced values, ready for
/// the next epoch.
Result<IncrementalStats> DeletionAwareRecompute(
    const GraphView& graph, AlgorithmId id, VertexId source,
    std::span<const EdgeRecord> inserted_edges,
    std::span<const EdgeRecord> deleted_edges,
    std::vector<uint32_t>* values, std::vector<VertexId>* parents);

/// Advances the previous PR/PHP fixpoint in `values` across an arbitrary
/// insert/delete delta: injects each mutated vertex's contribution change
/// as residual, then propagates it with the push kernel from a program
/// warm-started at the previous values (see the header comment). Exact up
/// to the kernels' epsilon residual; `params` must match the options the
/// previous result was computed with. `source` is the PHP source (ignored
/// for PR). The stats count kernel rounds (see IncrementalStats).
Result<IncrementalStats> AccumulativeRecompute(
    const GraphView& graph, AlgorithmId id, VertexId source,
    const AlgoParams& params, std::span<const EdgeRecord> inserted_edges,
    std::span<const EdgeRecord> deleted_edges,
    std::vector<double>* values);

}  // namespace hytgraph

#endif  // HYTGRAPH_DYNAMIC_INCREMENTAL_H_
