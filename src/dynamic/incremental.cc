#include "dynamic/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>

#include "util/thread_pool.h"

namespace hytgraph {

namespace {

constexpr uint32_t kUnreachableValue = std::numeric_limits<uint32_t>::max();

/// Per-algorithm relaxation semantics, mirroring the vertex programs in
/// algorithms/programs.h (including SSSP's wrapping uint32 add, so the
/// incremental fixpoint is bitwise identical to the solver's).
struct MinFamily {
  // BFS / SSSP / CC: smaller is better, kUnreachable (or the own label for
  // CC) means "nothing to push" only for the source-seeded pair.
  static bool Improves(uint32_t candidate, uint32_t current) {
    return candidate < current;
  }
};

struct BfsRelax : MinFamily {
  static bool Productive(uint32_t value) { return value != kUnreachableValue; }
  static uint32_t Candidate(uint32_t value, Weight /*w*/) { return value + 1; }
  static uint32_t ResetValue(VertexId /*v*/) { return kUnreachableValue; }
  static constexpr bool kSeedConeMembers = false;
};

struct SsspRelax : MinFamily {
  static bool Productive(uint32_t value) { return value != kUnreachableValue; }
  static uint32_t Candidate(uint32_t value, Weight w) { return value + w; }
  static uint32_t ResetValue(VertexId /*v*/) { return kUnreachableValue; }
  static constexpr bool kSeedConeMembers = false;
};

struct CcRelax : MinFamily {
  static bool Productive(uint32_t /*value*/) { return true; }
  static uint32_t Candidate(uint32_t value, Weight /*w*/) { return value; }
  /// CC's identity is the own label — which is itself productive, so cone
  /// members must re-seed the frontier to push their reset labels out.
  static uint32_t ResetValue(VertexId v) { return v; }
  static constexpr bool kSeedConeMembers = true;
};

struct SswpRelax {
  static bool Productive(uint32_t value) { return value != 0; }
  static uint32_t Candidate(uint32_t value, Weight w) {
    return std::min(value, static_cast<uint32_t>(w));
  }
  static bool Improves(uint32_t candidate, uint32_t current) {
    return candidate > current;
  }
  static uint32_t ResetValue(VertexId /*v*/) { return 0; }
  static constexpr bool kSeedConeMembers = false;
};

/// Chaotic relaxation from `seeds`. When `parents` is non-null, every
/// improvement records its deriver, keeping the dependency forest
/// consistent with the advanced values (chains stay acyclic: a parent
/// reached its final value strictly before the child it improves).
template <typename Relax>
IncrementalStats Propagate(const GraphView& graph,
                           std::span<const VertexId> seeds,
                           std::vector<uint32_t>* values,
                           std::vector<VertexId>* parents = nullptr) {
  IncrementalStats stats;
  std::vector<uint32_t>& vals = *values;
  std::vector<uint8_t> queued(vals.size(), 0);

  std::vector<VertexId> current;
  current.reserve(seeds.size());
  for (VertexId v : seeds) {
    if (!queued[v]) {
      queued[v] = 1;
      current.push_back(v);
    }
  }
  stats.seed_vertices = current.size();

  std::vector<VertexId> next;
  while (!current.empty()) {
    ++stats.rounds;
    for (VertexId u : current) {
      queued[u] = 0;
      ++stats.relaxed_vertices;
      const uint32_t value = vals[u];
      if (!Relax::Productive(value)) continue;
      graph.ForEachNeighbor(u, [&](VertexId v, Weight w) {
        ++stats.traversed_edges;
        const uint32_t candidate = Relax::Candidate(value, w);
        if (Relax::Improves(candidate, vals[v])) {
          vals[v] = candidate;
          if (parents != nullptr) (*parents)[v] = u;
          ++stats.improved_vertices;
          if (!queued[v]) {
            queued[v] = 1;
            next.push_back(v);
          }
        }
      });
    }
    current.swap(next);
    next.clear();
  }
  return stats;
}

/// Deletion-cone recompute for one Relax, driven by the dependency
/// forest. Phases over the ORIGINAL values (nothing is reset until the
/// cone is fully discovered):
///   1. cone discovery. Tree path, when the caller hands in a forest
///      consistent with the values: seed from deleted records that sever
///      a tree edge (tree[dst] == src) and flood forward along parent
///      pointers only — an out-neighbor joins iff its recorded deriver
///      fell. Consistency flooding would sweep whole label classes in for
///      the tie-prone relaxations (CC's candidate IS the label, SSWP's
///      widths tie freely); parent pointers are tie-free, so this cone is
///      the true dependency cone. Derive path, otherwise: certification
///      BFS from the axioms (the source; identity-valued vertices) along
///      consistency edges over the post-delta view, assigning parents as
///      derivations are found. Whatever it cannot certify still holding a
///      non-identity value IS the cone — its every derivation used a
///      deleted edge. Support through *other* deleted edges needs no
///      special casing on either path: deleted edges are absent from the
///      view, and each deleted tree edge seeds its own target;
///   2. reset cone members to the identity value and orphan their parent
///      slots;
///   3. re-seed propagation from the cone's productive non-cone
///      in-neighbors (their out-edges into the reset cone are now
///      violated), the delta's insert sources, and — for CC, whose
///      identity is productive — the cone members themselves. Propagation
///      records parents, leaving the forest consistent for the next
///      epoch.
///
/// Soundness: a vertex outside the cone keeps an intact parent chain —
/// an acyclic derivation of its exact value from an axiom through
/// surviving edges. Deletions only worsen the optimum, so a still-
/// achievable previous value is still optimal; insert-driven improvements
/// are applied by phase 3's insert-source seeds, for cone and non-cone
/// vertices alike.
template <typename Relax>
IncrementalStats ConeRecompute(const GraphView& graph, bool has_source,
                               VertexId source,
                               std::span<const EdgeRecord> inserts,
                               std::span<const EdgeRecord> deletes,
                               std::vector<uint32_t>* values,
                               std::vector<VertexId>* parents) {
  IncrementalStats stats;
  std::vector<uint32_t>& vals = *values;
  std::vector<VertexId>& tree = *parents;
  const VertexId n = graph.num_vertices();

  std::vector<uint8_t> in_cone(n, 0);
  std::vector<VertexId> cone;
  if (tree.size() == n) {
    auto join = [&](VertexId v) {
      // The source's value is axiomatic (never derived from an edge), so
      // it never joins the cone; its parent slot is always invalid.
      if (in_cone[v] || (has_source && v == source)) return;
      in_cone[v] = 1;
      cone.push_back(v);
    };
    for (const EdgeRecord& e : deletes) {
      if (tree[e.dst] == e.src) join(e.dst);
    }
    for (size_t i = 0; i < cone.size(); ++i) {
      const VertexId x = cone[i];
      graph.ForEachNeighbor(x, [&](VertexId z, Weight /*w*/) {
        ++stats.traversed_edges;
        if (tree[z] == x) join(z);
      });
    }
  } else {
    stats.forest_derived = true;
    tree.assign(n, kInvalidVertex);
    std::vector<uint8_t> certified(n, 0);
    std::vector<VertexId> queue;
    for (VertexId v = 0; v < n; ++v) {
      if ((has_source && v == source) || vals[v] == Relax::ResetValue(v)) {
        certified[v] = 1;
        queue.push_back(v);
      }
    }
    for (size_t i = 0; i < queue.size(); ++i) {
      const VertexId x = queue[i];
      const uint32_t value = vals[x];
      if (!Relax::Productive(value)) continue;
      graph.ForEachNeighbor(x, [&](VertexId z, Weight w) {
        ++stats.traversed_edges;
        if (!certified[z] && vals[z] == Relax::Candidate(value, w)) {
          certified[z] = 1;
          tree[z] = x;
          queue.push_back(z);
        }
      });
    }
    for (VertexId v = 0; v < n; ++v) {
      if (!certified[v]) {
        in_cone[v] = 1;
        cone.push_back(v);
      }
    }
  }
  stats.cone_vertices = cone.size();

  for (VertexId x : cone) {
    vals[x] = Relax::ResetValue(x);
    tree[x] = kInvalidVertex;
  }

  std::vector<VertexId> seeds;
  if (!cone.empty()) graph.EnsureReverse();
  for (VertexId x : cone) {
    graph.ForEachInNeighbor(x, [&](VertexId p, Weight /*w*/) {
      ++stats.traversed_edges;
      if (!in_cone[p] && Relax::Productive(vals[p])) seeds.push_back(p);
    });
    if (Relax::kSeedConeMembers) seeds.push_back(x);
  }
  for (const EdgeRecord& e : inserts) seeds.push_back(e.src);

  const uint64_t closure_edges = stats.traversed_edges;
  const uint64_t cone_size = stats.cone_vertices;
  const bool derived = stats.forest_derived;
  stats = Propagate<Relax>(graph, seeds, values, &tree);
  stats.traversed_edges += closure_edges;
  stats.cone_vertices = cone_size;
  stats.forest_derived = derived;
  return stats;
}

/// Residual propagation for the accumulation family, in bulk-synchronous
/// rounds on ThreadPool::Default(). `delta` holds each vertex's pending
/// residual; a vertex is active while |delta| >= epsilon. Each round:
///   push   — one batch over the ascending active list. Each u consumes
///            delta[u] into vals[u] and adds d * delta[u] * share(u -> t)
///            to its shard's private row acc[shard][t], where share is
///            1/out_degree (PR) or w/sum(w) with `source` skipped (PHP).
///            u is unique in the list and a row has one writer, so plain
///            stores suffice;
///   reduce — one batch over [0, n): delta[v] += acc[s][v] in shard order,
///            zeroing each slot; v joins its shard's next list when active.
///            The lists concatenated in shard order are the next ascending
///            frontier.
/// Chunking is static and every sum has a fixed order, so the values are
/// bitwise reproducible for a fixed pool size. A call from inside a pool
/// shard runs every batch serially on shard 0. Leftover sub-epsilon
/// residual folds into the values exactly like the kernels' Values().
void DrainResidual(const GraphView& graph, bool is_php, VertexId source,
                   double damping, double epsilon,
                   std::vector<double>* pending, std::vector<double>* values,
                   IncrementalStats* stats) {
  ThreadPool* pool = ThreadPool::Default();
  const VertexId n = graph.num_vertices();
  std::vector<double>& delta = *pending;
  std::vector<double>& vals = *values;
  const int shards = ThreadPool::InWorkerThread() ? 1 : pool->num_threads();
  std::vector<std::vector<double>> acc(shards, std::vector<double>(n, 0.0));
  std::vector<std::vector<VertexId>> next(shards);
  struct PushTally {
    uint64_t vertices = 0;
    uint64_t edges = 0;
  };
  std::vector<PushTally> tally(shards);
  int rows = 0;  // accumulator rows the last push wrote; the rest are zero

  std::vector<VertexId> frontier;
  auto reduce = [&] {
    pool->ParallelFor(n, [&](int shard, uint64_t begin, uint64_t end) {
      // Appends go to a local vector: the shards' list headers share cache
      // lines, and writing them per vertex would ping-pong those lines.
      std::vector<VertexId> active = std::move(next[shard]);
      for (uint64_t v = begin; v < end; ++v) {
        double d = delta[v];
        for (int s = 0; s < rows; ++s) {
          d += acc[s][v];
          acc[s][v] = 0;
        }
        delta[v] = d;
        // A zero residual has nothing to push, whatever epsilon is.
        if (d != 0 && std::abs(d) >= epsilon) {
          active.push_back(static_cast<VertexId>(v));
        }
      }
      next[shard] = std::move(active);
    });
    frontier.clear();
    for (std::vector<VertexId>& active : next) {
      frontier.insert(frontier.end(), active.begin(), active.end());
      active.clear();
    }
  };

  reduce();
  stats->seed_vertices = frontier.size();
  while (!frontier.empty()) {
    ++stats->rounds;
    std::fill(tally.begin(), tally.end(), PushTally{});
    pool->ParallelFor(
        frontier.size(), [&](int shard, uint64_t begin, uint64_t end) {
          std::vector<double>& row = acc[shard];
          uint64_t edges = 0;
          for (uint64_t i = begin; i < end; ++i) {
            const VertexId u = frontier[i];
            const double consumed = delta[u];
            delta[u] = 0;
            vals[u] += consumed;
            const double mass = damping * consumed;
            if (is_php) {
              double weight_sum = 0;
              graph.ForEachNeighbor(
                  u, [&](VertexId /*t*/, Weight w) { weight_sum += w; });
              if (weight_sum <= 0) continue;
              graph.ForEachNeighbor(u, [&](VertexId t, Weight w) {
                ++edges;
                if (t != source) {
                  row[t] += mass * static_cast<double>(w) / weight_sum;
                }
              });
            } else {
              const EdgeId degree = graph.out_degree(u);
              if (degree == 0) continue;
              const double msg = mass / static_cast<double>(degree);
              graph.ForEachNeighbor(u, [&](VertexId t, Weight /*w*/) {
                ++edges;
                row[t] += msg;
              });
            }
          }
          tally[shard] = PushTally{end - begin, edges};
        });
    rows = 0;
    for (int s = 0; s < shards; ++s) {
      stats->relaxed_vertices += tally[s].vertices;
      stats->traversed_edges += tally[s].edges;
      if (tally[s].vertices > 0) rows = s + 1;
    }
    reduce();
  }
  pool->ParallelFor(n, [&](int /*shard*/, uint64_t begin, uint64_t end) {
    for (uint64_t v = begin; v < end; ++v) vals[v] += delta[v];
  });
}

}  // namespace

bool SupportsIncremental(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kBfs:
    case AlgorithmId::kSssp:
    case AlgorithmId::kCc:
    case AlgorithmId::kSswp:
      return true;
    case AlgorithmId::kPageRank:
    case AlgorithmId::kPhp:
      return false;
  }
  return false;
}

Result<IncrementalStats> IncrementalRecompute(
    const GraphView& graph, AlgorithmId id, VertexId source,
    std::span<const VertexId> seeds, std::vector<uint32_t>* values,
    std::vector<VertexId>* parents) {
  if (!SupportsIncremental(id)) {
    return Status::InvalidArgument(
        std::string(AlgorithmName(id)) +
        " has no monotone warm-start; use a full recompute");
  }
  if (values->size() != graph.num_vertices()) {
    return Status::InvalidArgument(
        "previous values cover " + std::to_string(values->size()) +
        " vertices, graph has " + std::to_string(graph.num_vertices()));
  }
  for (VertexId v : seeds) {
    if (v >= graph.num_vertices()) {
      return Status::InvalidArgument("seed vertex " + std::to_string(v) +
                                     " out of range");
    }
  }
  const bool needs_source = GetAlgorithmInfo(id).needs_source;
  if (needs_source && source >= graph.num_vertices()) {
    return Status::InvalidArgument("source vertex out of range");
  }
  if (parents != nullptr && parents->size() != values->size()) {
    return Status::InvalidArgument(
        "dependency forest covers " + std::to_string(parents->size()) +
        " vertices, graph has " + std::to_string(graph.num_vertices()));
  }

  switch (id) {
    case AlgorithmId::kBfs:
      return Propagate<BfsRelax>(graph, seeds, values, parents);
    case AlgorithmId::kSssp:
      return Propagate<SsspRelax>(graph, seeds, values, parents);
    case AlgorithmId::kCc:
      return Propagate<CcRelax>(graph, seeds, values, parents);
    case AlgorithmId::kSswp:
      return Propagate<SswpRelax>(graph, seeds, values, parents);
    default:
      return Status::Internal("unhandled incremental algorithm");
  }
}

Result<IncrementalStats> DeletionAwareRecompute(
    const GraphView& graph, AlgorithmId id, VertexId source,
    std::span<const EdgeRecord> inserted_edges,
    std::span<const EdgeRecord> deleted_edges,
    std::vector<uint32_t>* values, std::vector<VertexId>* parents) {
  if (!SupportsIncremental(id)) {
    return Status::InvalidArgument(
        std::string(AlgorithmName(id)) +
        " has no deletion-cone warm-start; use a full recompute");
  }
  if (parents == nullptr) {
    return Status::InvalidArgument(
        "deletion-cone recompute needs a dependency-forest buffer");
  }
  if (values->size() != graph.num_vertices()) {
    return Status::InvalidArgument(
        "previous values cover " + std::to_string(values->size()) +
        " vertices, graph has " + std::to_string(graph.num_vertices()));
  }
  const bool needs_source = GetAlgorithmInfo(id).needs_source;
  if (needs_source && source >= graph.num_vertices()) {
    return Status::InvalidArgument("source vertex out of range");
  }
  for (const auto records : {inserted_edges, deleted_edges}) {
    for (const EdgeRecord& e : records) {
      if (e.src >= graph.num_vertices() || e.dst >= graph.num_vertices()) {
        return Status::InvalidArgument("delta edge record out of range");
      }
    }
  }

  switch (id) {
    case AlgorithmId::kBfs:
      return ConeRecompute<BfsRelax>(graph, needs_source, source,
                                     inserted_edges, deleted_edges, values,
                                      parents);
    case AlgorithmId::kSssp:
      return ConeRecompute<SsspRelax>(graph, needs_source, source,
                                      inserted_edges, deleted_edges, values,
                                      parents);
    case AlgorithmId::kCc:
      return ConeRecompute<CcRelax>(graph, needs_source, source,
                                    inserted_edges, deleted_edges, values,
                                      parents);
    case AlgorithmId::kSswp:
      return ConeRecompute<SswpRelax>(graph, needs_source, source,
                                      inserted_edges, deleted_edges, values,
                                      parents);
    default:
      return Status::Internal("unhandled deletion-cone algorithm");
  }
}

Result<IncrementalStats> AccumulativeRecompute(
    const GraphView& graph, AlgorithmId id, VertexId source,
    const AlgoParams& params, std::span<const EdgeRecord> inserted_edges,
    std::span<const EdgeRecord> deleted_edges,
    std::vector<double>* values) {
  if (id != AlgorithmId::kPageRank && id != AlgorithmId::kPhp) {
    return Status::InvalidArgument(
        std::string(AlgorithmName(id)) +
        " is not in the accumulation family");
  }
  const VertexId n = graph.num_vertices();
  if (values->size() != n) {
    return Status::InvalidArgument(
        "previous values cover " + std::to_string(values->size()) +
        " vertices, graph has " + std::to_string(n));
  }
  const bool is_php = id == AlgorithmId::kPhp;
  if (is_php && source >= n) {
    return Status::InvalidArgument("PHP source vertex out of range");
  }
  for (const auto records : {inserted_edges, deleted_edges}) {
    for (const EdgeRecord& e : records) {
      if (e.src >= n || e.dst >= n) {
        return Status::InvalidArgument("delta edge record out of range");
      }
    }
  }

  IncrementalStats stats;
  if (is_php && !graph.is_weighted()) {
    // The PHP kernel's weight sums are all zero on an unweighted graph —
    // no mass ever propagates, so mutations cannot move the fixpoint.
    return stats;
  }
  const double damping =
      is_php ? params.php.damping : params.pagerank.damping;
  const double epsilon =
      is_php ? params.php.epsilon : params.pagerank.epsilon;
  std::vector<double>& vals = *values;

  // Group the delta by mutated source vertex: the injection for u compares
  // u's old and new contribution rows in one pass.
  struct TouchedDelta {
    std::vector<std::pair<VertexId, Weight>> inserts;
    std::vector<std::pair<VertexId, Weight>> deletes;
  };
  std::unordered_map<VertexId, TouchedDelta> touched;
  for (const EdgeRecord& e : inserted_edges) {
    touched[e.src].inserts.emplace_back(e.dst, e.weight);
  }
  for (const EdgeRecord& e : deleted_edges) {
    touched[e.src].deletes.emplace_back(e.dst, e.weight);
  }

  std::vector<double> pending(n, 0.0);
  for (const auto& [u, delta] : touched) {
    // New row: u's current out-edges, aggregated per target as edge count
    // (PR) or weight sum (PHP). Old row = new − epoch inserts + epoch
    // deletes, replayed from the log records.
    std::unordered_map<VertexId, double> row_new;
    double norm_new = 0;
    graph.ForEachNeighbor(u, [&](VertexId t, Weight w) {
      ++stats.traversed_edges;
      const double share = is_php ? static_cast<double>(w) : 1.0;
      row_new[t] += share;
      norm_new += share;
    });
    std::unordered_map<VertexId, double> row_old = row_new;
    double norm_old = norm_new;
    for (const auto& [t, w] : delta.inserts) {
      const double share = is_php ? static_cast<double>(w) : 1.0;
      row_old[t] -= share;
      norm_old -= share;
    }
    for (const auto& [t, w] : delta.deletes) {
      const double share = is_php ? static_cast<double>(w) : 1.0;
      row_old[t] += share;
      norm_old += share;
    }
    const double mass = damping * vals[u];
    for (const auto& [t, unused] : row_old) {
      (void)unused;
      // Targets u no longer points at still need their old contribution
      // withdrawn, so make sure the iteration below covers them.
      row_new.try_emplace(t, 0.0);
    }
    for (const auto& [t, share_new] : row_new) {
      if (is_php && t == source) continue;  // mass into the source drops
      const double contrib_new =
          norm_new > 0 ? mass * share_new / norm_new : 0.0;
      auto old_it = row_old.find(t);
      const double share_old = old_it == row_old.end() ? 0.0 : old_it->second;
      const double contrib_old =
          norm_old > 0 ? mass * share_old / norm_old : 0.0;
      const double injection = contrib_new - contrib_old;
      if (injection != 0) {
        pending[t] += injection;
        ++stats.improved_vertices;
      }
    }
  }

  DrainResidual(graph, is_php, source, damping, epsilon, &pending, &vals,
                &stats);
  return stats;
}

}  // namespace hytgraph
