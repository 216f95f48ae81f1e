// Hub-sort-aware execution plumbing: PreparedGraph, a graph preprocessed
// for one options set.
//
// NOTE: the public facade of this library is `hytgraph::Engine`
// (core/engine.h). The Engine owns the graph, memoizes PreparedGraph
// instances across queries (so repeated queries never re-run the hub sort),
// dispatches through the algorithm registry (algorithms/registry.h), and
// batches multi-source query sets on the thread pool. RunAlgorithmOn
// (registry.h) runs one algorithm on an explicit PreparedGraph; construct
// an Engine and submit Query objects instead of calling it directly.
//
// HyTGraph with contribution-driven scheduling requires the hub-sorted
// vertex order (Section VI-A); the registry's run skeleton applies the
// reordering, remaps the source, runs the solver, and maps values back —
// callers never see relabeled ids.

#ifndef HYTGRAPH_ALGORITHMS_RUNNER_H_
#define HYTGRAPH_ALGORITHMS_RUNNER_H_

#include <cstdint>
#include <vector>

#include "algorithms/registry.h"
#include "core/options.h"
#include "core/trace.h"
#include "graph/csr_graph.h"
#include "graph/graph_view.h"
#include "util/status.h"

namespace hytgraph {

/// A graph preprocessed for a particular options set: hub-sorted when the
/// system needs it, plus the id mappings.
///
/// Preparation operates on GraphViews end to end. A reordering preparation
/// relabels the *base* CSR and remaps the pending overlay through the
/// permutation (the permutation itself comes from the view's mutated
/// degrees, so it matches what hub-sorting the folded CSR would produce);
/// a non-reordering preparation is the input view unchanged. Either way
/// the solver executes directly on base + delta — no snapshot fold.
class PreparedGraph {
 public:
  /// Whether `options` calls for the hub-sorted vertex order (the expensive
  /// part of preparation). Exposed so the Engine can fingerprint
  /// preparations: all options sets for which this is false share one
  /// identity preparation.
  static bool WantsReorder(const SolverOptions& options) {
    return options.system == SystemKind::kHyTGraph &&
           options.enable_contribution_scheduling &&
           options.hub_fraction > 0;
  }

  /// Prepares `view` for `options`. The view pins its own base/overlay
  /// snapshots, so the preparation is self-contained (when the view wraps
  /// borrowed storage, that storage must outlive the PreparedGraph).
  static Result<PreparedGraph> Make(const GraphView& view,
                                    const SolverOptions& options);

  /// Static-graph convenience. The graph must outlive the PreparedGraph.
  static Result<PreparedGraph> Make(const CsrGraph& graph,
                                    const SolverOptions& options) {
    return Make(GraphView::Wrap(graph), options);
  }

  /// The view the solver executes on (relabeled when reordered()).
  const GraphView& view() const { return view_; }
  bool reordered() const { return reordered_; }
  VertexId MapSource(VertexId original_id) const {
    return reordered_ ? old_to_new_[original_id] : original_id;
  }

  /// Maps a solver-space vertex id back to the original id (identity when
  /// not reordered). Used for value payloads that are themselves vertex ids
  /// (CC labels).
  VertexId MapVertexBack(VertexId solver_id) const {
    return reordered_ ? new_to_old_[solver_id] : solver_id;
  }

  /// Maps a value vector from solver (possibly relabeled) ids back to the
  /// original ids.
  template <typename T>
  std::vector<T> MapValuesBack(std::vector<T> values) const {
    if (!reordered_) return values;
    std::vector<T> out(values.size());
    for (size_t new_id = 0; new_id < values.size(); ++new_id) {
      out[new_to_old_[new_id]] = values[new_id];
    }
    return out;
  }

 private:
  GraphView view_;
  bool reordered_ = false;
  std::vector<VertexId> old_to_new_;
  std::vector<VertexId> new_to_old_;
};

/// Runs `algorithm` (source used by the source-seeded algorithms) and
/// returns just the trace — the shape benches need. Dispatches through the
/// registry, so all six algorithms are covered.
Result<RunTrace> RunAlgorithmTrace(const CsrGraph& graph,
                                   AlgorithmId algorithm, VertexId source,
                                   const SolverOptions& options);

}  // namespace hytgraph

#endif  // HYTGRAPH_ALGORITHMS_RUNNER_H_
