#include "algorithms/registry.h"

#include <cctype>
#include <type_traits>
#include <utility>
#include <vector>

#include "algorithms/runner.h"
#include "core/solver.h"
#include "util/logging.h"

namespace hytgraph {

namespace {

/// Builds the program `Program` runs for a registry query on `prepared`,
/// with the source in solver ids.
template <typename Program>
Program MakeProgram(const PreparedGraph& prepared, VertexId source,
                    const AlgoParams& params) {
  const GraphView& view = prepared.view();
  if constexpr (std::is_same_v<Program, PageRankProgram>) {
    return PageRankProgram(view, params.pagerank);
  } else if constexpr (std::is_same_v<Program, PhpProgram>) {
    return PhpProgram(view, prepared.MapSource(source), params.php);
  } else if constexpr (std::is_constructible_v<Program, const GraphView&,
                                               VertexId>) {
    return Program(view, prepared.MapSource(source));
  } else {
    return Program(view);
  }
}

/// The run skeleton every registry entry instantiates: build the solver,
/// init, run the program, map values back to original ids.
template <typename Program>
Result<AlgorithmRun> RunWith(const PreparedGraph& prepared, VertexId source,
                             const AlgoParams& params,
                             const SolverOptions& options) {
  Solver<Program> solver(prepared.view(), options);
  HYT_RETURN_NOT_OK(solver.Init());
  Program program = MakeProgram<Program>(prepared, source, params);
  HYT_ASSIGN_OR_RETURN(RunTrace trace, solver.Run(&program));
  std::vector<typename Program::Value> values =
      prepared.MapValuesBack(program.Values());
  if constexpr (std::is_same_v<Program, CcProgram>) {
    // CC labels are vertex ids: translate them back to original ids so they
    // are meaningful to the caller. (Min-label fixpoints depend on the id
    // order on *directed* graphs, which is why EffectiveOptions skips the
    // reordering for CC.)
    if (prepared.reordered()) {
      for (uint32_t& label : values) label = prepared.MapVertexBack(label);
    }
  }
  return AlgorithmRun{std::move(values), std::move(trace)};
}

constexpr const char* kPrAliases[] = {"pr", "pagerank"};
constexpr const char* kSsspAliases[] = {"sssp", "shortest-paths"};
constexpr const char* kCcAliases[] = {"cc", "wcc", "components"};
constexpr const char* kBfsAliases[] = {"bfs"};
constexpr const char* kPhpAliases[] = {"php", "hitting-probability"};
constexpr const char* kSswpAliases[] = {"sswp", "widest-path"};

constexpr AlgorithmInfo kRegistry[] = {
    {AlgorithmId::kPageRank, "PR", "PageRank", kPrAliases,
     /*needs_source=*/false, /*needs_weights=*/false, /*value_is_f64=*/true,
     &RunWith<PageRankProgram>},
    {AlgorithmId::kSssp, "SSSP", "Single-Source Shortest Paths",
     kSsspAliases, /*needs_source=*/true, /*needs_weights=*/true,
     /*value_is_f64=*/false, &RunWith<SsspProgram>},
    {AlgorithmId::kCc, "CC", "Connected Components", kCcAliases,
     /*needs_source=*/false, /*needs_weights=*/false, /*value_is_f64=*/false,
     &RunWith<CcProgram>},
    {AlgorithmId::kBfs, "BFS", "Breadth-First Search", kBfsAliases,
     /*needs_source=*/true, /*needs_weights=*/false, /*value_is_f64=*/false,
     &RunWith<BfsProgram>},
    {AlgorithmId::kPhp, "PHP", "Penalized Hitting Probability", kPhpAliases,
     /*needs_source=*/true, /*needs_weights=*/true, /*value_is_f64=*/true,
     &RunWith<PhpProgram>},
    {AlgorithmId::kSswp, "SSWP", "Single-Source Widest Path", kSswpAliases,
     /*needs_source=*/true, /*needs_weights=*/true, /*value_is_f64=*/false,
     &RunWith<SswpProgram>},
};

std::string ToLower(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

std::span<const AlgorithmInfo> AlgorithmRegistry() { return kRegistry; }

const AlgorithmInfo* FindAlgorithmInfo(AlgorithmId id) {
  for (const AlgorithmInfo& info : kRegistry) {
    if (info.id == id) return &info;
  }
  return nullptr;
}

const AlgorithmInfo& GetAlgorithmInfo(AlgorithmId id) {
  const AlgorithmInfo* info = FindAlgorithmInfo(id);
  HYT_CHECK(info != nullptr)
      << "unknown AlgorithmId " << static_cast<int>(id);
  return *info;
}

const char* AlgorithmName(AlgorithmId id) { return GetAlgorithmInfo(id).name; }

Result<AlgorithmId> ParseAlgorithmName(const std::string& name) {
  const std::string lower = ToLower(name);
  for (const AlgorithmInfo& info : kRegistry) {
    if (lower == ToLower(info.name) || lower == ToLower(info.full_name)) {
      return info.id;
    }
    for (const char* alias : info.aliases) {
      if (lower == alias) return info.id;
    }
  }
  return Status::NotFound("unknown algorithm: " + name);
}

SolverOptions EffectiveOptions(AlgorithmId id, const SolverOptions& options) {
  SolverOptions effective = options;
  if (id == AlgorithmId::kCc) {
    // CC labels are vertex ids whose min-label fixpoint depends on the id
    // order on directed graphs: skip the hub-sort relabeling so results
    // stay in natural-id semantics (hub-driven task priority still applies
    // at partition granularity).
    effective.hub_fraction = 0.0;
  }
  return effective;
}

Result<AlgorithmRun> RunAlgorithmOn(const PreparedGraph& prepared,
                                    AlgorithmId id, VertexId source,
                                    const AlgoParams& params,
                                    const SolverOptions& options) {
  const AlgorithmInfo* info = FindAlgorithmInfo(id);
  if (info == nullptr) {
    return Status::InvalidArgument("unknown algorithm id: " +
                                   std::to_string(static_cast<int>(id)));
  }
  return info->run(prepared, source, params, options);
}

}  // namespace hytgraph
