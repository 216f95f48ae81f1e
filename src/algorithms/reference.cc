#include "algorithms/reference.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>

#include "algorithms/programs.h"

namespace hytgraph {

std::vector<uint32_t> ReferenceBfs(const CsrGraph& graph, VertexId source) {
  std::vector<uint32_t> levels(graph.num_vertices(), kUnreachable);
  std::deque<VertexId> queue;
  levels[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop_front();
    for (VertexId v : graph.neighbors(u)) {
      if (levels[v] == kUnreachable) {
        levels[v] = levels[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return levels;
}

std::vector<uint32_t> ReferenceSssp(const CsrGraph& graph, VertexId source) {
  std::vector<uint32_t> dists(graph.num_vertices(), kUnreachable);
  using Entry = std::pair<uint32_t, VertexId>;  // (dist, vertex)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  dists[source] = 0;
  heap.emplace(0, source);
  while (!heap.empty()) {
    const auto [dist, u] = heap.top();
    heap.pop();
    if (dist > dists[u]) continue;  // stale entry
    const auto nbrs = graph.neighbors(u);
    const auto wts = graph.weights(u);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      const uint32_t w = wts.empty() ? 1u : wts[e];
      // Saturates at kUnreachable, as the engine's SSSP does.
      const auto candidate = static_cast<uint32_t>(std::min<uint64_t>(
          static_cast<uint64_t>(dist) + w, kUnreachable));
      if (candidate < dists[nbrs[e]]) {
        dists[nbrs[e]] = candidate;
        heap.emplace(candidate, nbrs[e]);
      }
    }
  }
  return dists;
}

std::vector<uint32_t> ReferenceSswp(const CsrGraph& graph, VertexId source) {
  std::vector<uint32_t> widths(graph.num_vertices(), 0);
  using Entry = std::pair<uint32_t, VertexId>;  // (width, vertex), max-heap
  std::priority_queue<Entry> heap;
  widths[source] = std::numeric_limits<uint32_t>::max();
  heap.emplace(widths[source], source);
  while (!heap.empty()) {
    const auto [width, u] = heap.top();
    heap.pop();
    if (width < widths[u]) continue;  // stale entry
    const auto nbrs = graph.neighbors(u);
    const auto wts = graph.weights(u);
    for (size_t e = 0; e < nbrs.size(); ++e) {
      const uint32_t w = wts.empty() ? 1u : wts[e];
      const uint32_t candidate = std::min(width, w);
      if (candidate > widths[nbrs[e]]) {
        widths[nbrs[e]] = candidate;
        heap.emplace(candidate, nbrs[e]);
      }
    }
  }
  return widths;
}

std::vector<uint32_t> ReferenceCc(const CsrGraph& graph) {
  const VertexId n = graph.num_vertices();
  std::vector<uint32_t> labels(n);
  for (VertexId v = 0; v < n; ++v) labels[v] = v;
  bool changed = true;
  while (changed) {
    changed = false;
    for (VertexId u = 0; u < n; ++u) {
      for (VertexId v : graph.neighbors(u)) {
        if (labels[u] < labels[v]) {
          labels[v] = labels[u];
          changed = true;
        }
      }
    }
  }
  return labels;
}

std::vector<double> ReferencePageRank(const CsrGraph& graph, double damping,
                                      double epsilon) {
  const VertexId n = graph.num_vertices();
  std::vector<double> ranks(n, 0.0);
  std::vector<double> deltas(n, 1.0 - damping);
  std::vector<double> incoming(n, 0.0);
  bool active = true;
  while (active) {
    active = false;
    std::fill(incoming.begin(), incoming.end(), 0.0);
    for (VertexId u = 0; u < n; ++u) {
      if (deltas[u] < epsilon) continue;
      active = true;
      const double delta = deltas[u];
      deltas[u] = 0.0;
      ranks[u] += delta;
      const EdgeId deg = graph.out_degree(u);
      if (deg == 0) continue;
      const double contribution = damping * delta / static_cast<double>(deg);
      for (VertexId v : graph.neighbors(u)) incoming[v] += contribution;
    }
    for (VertexId v = 0; v < n; ++v) deltas[v] += incoming[v];
  }
  for (VertexId v = 0; v < n; ++v) ranks[v] += deltas[v];
  return ranks;
}

std::vector<double> ReferencePhp(const CsrGraph& graph, VertexId source,
                                 double damping, double epsilon) {
  const VertexId n = graph.num_vertices();
  std::vector<double> values(n, 0.0);
  std::vector<double> deltas(n, 0.0);
  std::vector<double> incoming(n, 0.0);
  std::vector<double> weight_sums(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    for (Weight w : graph.weights(v)) weight_sums[v] += w;
  }
  deltas[source] = 1.0;
  bool active = true;
  while (active) {
    active = false;
    std::fill(incoming.begin(), incoming.end(), 0.0);
    for (VertexId u = 0; u < n; ++u) {
      if (deltas[u] < epsilon) continue;
      active = true;
      const double delta = deltas[u];
      deltas[u] = 0.0;
      values[u] += delta;
      if (weight_sums[u] == 0.0) continue;
      const double scaled = damping * delta / weight_sums[u];
      const auto nbrs = graph.neighbors(u);
      const auto wts = graph.weights(u);
      for (size_t e = 0; e < nbrs.size(); ++e) {
        if (nbrs[e] == source) continue;
        incoming[nbrs[e]] += scaled * (wts.empty() ? 1.0 : wts[e]);
      }
    }
    for (VertexId v = 0; v < n; ++v) deltas[v] += incoming[v];
  }
  for (VertexId v = 0; v < n; ++v) values[v] += deltas[v];
  return values;
}

}  // namespace hytgraph
