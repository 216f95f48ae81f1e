#include "algorithms/runner.h"

#include <utility>

#include "graph/hub_sort.h"

namespace hytgraph {

Result<PreparedGraph> PreparedGraph::Make(const GraphView& view,
                                          const SolverOptions& options) {
  PreparedGraph prepared;
  if (WantsReorder(options) && view.num_vertices() > 0) {
    HYT_ASSIGN_OR_RETURN(HubSortViewResult sorted,
                         HubSortView(view, options.hub_fraction));
    prepared.reordered_ = true;
    prepared.view_ = std::move(sorted.view);
    prepared.old_to_new_ = std::move(sorted.old_to_new);
    prepared.new_to_old_ = std::move(sorted.new_to_old);
  } else {
    prepared.view_ = view;
  }
  return prepared;
}

Result<RunTrace> RunAlgorithmTrace(const CsrGraph& graph,
                                   AlgorithmId algorithm, VertexId source,
                                   const SolverOptions& options) {
  const SolverOptions effective = EffectiveOptions(algorithm, options);
  HYT_ASSIGN_OR_RETURN(PreparedGraph prepared,
                       PreparedGraph::Make(graph, effective));
  HYT_ASSIGN_OR_RETURN(
      AlgorithmRun run,
      RunAlgorithmOn(prepared, algorithm, source, AlgoParams{}, effective));
  return std::move(run.trace);
}

}  // namespace hytgraph
