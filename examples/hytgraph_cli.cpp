// hytgraph_cli — run any algorithm under any transfer-management system on
// a named paper dataset or a generated RMAT graph, from the command line.
// Built on the Engine/Query API: one Engine owns the graph, queries go
// through it, and batched multi-source runs share one cached preparation.
//
//   hytgraph_cli --dataset FK --algorithm sssp --system HyTGraph
//   hytgraph_cli --rmat-scale 18 --edge-factor 16 --algorithm pr \
//                --system EMOGI --device-memory-mb 64
//   hytgraph_cli --dataset UK --algorithm bfs --batch-sources 8 --trace
//
// Prints the result summary, total simulated time, transfer volume, and
// (with --trace) the per-iteration engine mix.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "dynamic/mutation.h"
#include "graph/dataset.h"
#include "graph/degree_stats.h"
#include "graph/rmat_generator.h"
#include "serving/query_server.h"
#include "sim/interconnect.h"
#include "util/string_util.h"
#include "util/timer.h"

using namespace hytgraph;

namespace {

struct CliOptions {
  std::string dataset;
  uint32_t rmat_scale = 0;
  uint32_t edge_factor = 16;
  std::string algorithm = "sssp";
  std::string system = "HyTGraph";
  std::string interconnect;
  uint64_t device_memory_mb = 0;
  int64_t source = -1;  // -1: engine default (highest out-degree vertex)
  int batch_sources = 0;  // >0: batch over the top-N out-degree sources
  int streams = 4;
  bool trace = false;
  uint64_t seed = 42;
  std::string direction;  // push (default) | pull | auto
  std::string alpha;      // direction-switch alpha (empty = library default)
  std::string beta;       // direction-switch beta  (empty = library default)
  std::string mutations;  // replay file of edge mutation batches
  std::string compact_policy;     // threshold (default) | manual | background
  int64_t compact_threshold = -1;  // pending delta edges before a fold
  std::string serve;        // open-loop serving workload file
  int64_t serve_capacity = -1;  // per-lane admission capacity
  bool no_fusion = false;   // serve with one Run per request (baseline)
  uint64_t memory_budget_mb = 0;  // >0: out-of-core with this cache budget
  bool no_prefetch = false;       // out-of-core without frontier prefetch
};

void PrintUsage() {
  std::printf(
      "usage: hytgraph_cli [options]\n"
      "  --dataset SK|TW|FK|UK|FS     paper dataset (RMAT stand-in)\n"
      "  --rmat-scale N               generate RMAT with 2^N vertices\n"
      "  --edge-factor N              RMAT average degree (default 16)\n"
      "  --seed N                     RMAT seed (default 42)\n"
      "  --algorithm A                pr|sssp|cc|bfs|php|sswp (default sssp)\n"
      "  --system S                   HyTGraph|ExpTM-F|Subway|EMOGI|\n"
      "                               ImpTM-UM|Grus|Galois(CPU)\n"
      "  --interconnect I             PCIe3x16|PCIe4x16|PCIe5x16|NVLink3|\n"
      "                               NVLink4|CXL2 (default PCIe3x16)\n"
      "  --device-memory-mb N         simulated GPU memory (default: spec)\n"
      "  --source V                   source vertex (default: max-degree)\n"
      "  --batch-sources N            run N queries from the top-N degree\n"
      "                               sources as one batch\n"
      "  --streams N                  CUDA streams (default 4)\n"
      "  --direction D                push|pull|auto (default push):\n"
      "                               traversal direction. 'auto' picks per\n"
      "                               iteration (Beamer-style) between push\n"
      "                               over out-edges and pull over the\n"
      "                               cached reverse view — the win on\n"
      "                               dense frontiers. PR/PHP always push\n"
      "                               (delta accumulation)\n"
      "  --alpha A                    auto push->pull switch: pull once the\n"
      "                               frontier's out-edges exceed |E|/A\n"
      "                               (default 14; larger switches earlier)\n"
      "  --beta B                     auto pull->push switch: push once\n"
      "                               active vertices drop below |V|/B\n"
      "                               (default 24; larger switches later)\n"
      "  --trace                      print per-iteration engine mix and\n"
      "                               direction\n"
      "  --mutations FILE             after the initial query, replay edge\n"
      "                               mutation batches ('+ u v [w]' inserts,\n"
      "                               '- u v' deletes, blank line commits a\n"
      "                               batch) and re-run the query after each\n"
      "                               batch, incrementally where the\n"
      "                               algorithm allows\n"
      "  --compact-policy P           threshold|manual|background (default\n"
      "                               threshold): when pending mutation\n"
      "                               deltas are folded into a fresh base\n"
      "                               snapshot. 'threshold' folds eagerly\n"
      "                               (on the mutating thread, after its\n"
      "                               batch is published) once the delta\n"
      "                               crosses --compact-threshold;\n"
      "                               'manual' never folds during replay\n"
      "                               (queries run on the delta overlay;\n"
      "                               Engine::Compact() is the only fold);\n"
      "                               'background' hands threshold-triggered\n"
      "                               folds to a worker thread so no\n"
      "                               mutation call pays for the rebuild\n"
      "  --compact-threshold N        pending delta edges that trigger a\n"
      "                               threshold-mode fold (default: max of\n"
      "                               4096 and 5%% of |E|)\n"
      "  --serve FILE                 replay a serving workload open-loop\n"
      "                               through the concurrent QueryServer\n"
      "                               and print the serving summary. Each\n"
      "                               line: 'OFFSET_MS ALGO SOURCE PRIORITY\n"
      "                               DEADLINE_MS' ('-' source = engine\n"
      "                               default, '-' deadline = none;\n"
      "                               priority and deadline optional; '#'\n"
      "                               comments). Requests are submitted at\n"
      "                               their offsets regardless of earlier\n"
      "                               completions; a full lane answers\n"
      "                               with backpressure, an expired\n"
      "                               deadline with a shed status.\n"
      "                               Ignores --algorithm/--source\n"
      "  --serve-capacity N           per-algorithm-lane admission queue\n"
      "                               capacity (default 256); submits\n"
      "                               beyond it are rejected, not buffered\n"
      "  --no-fusion                  serve without cross-request fusion:\n"
      "                               one engine run per request (the\n"
      "                               baseline bench_query_throughput\n"
      "                               measures against)\n"
      "  --memory-budget MB           out-of-core execution: spill the base\n"
      "                               CSR's edge arrays to an edge-block\n"
      "                               store and stream them through a block\n"
      "                               cache of MB megabytes. Values are\n"
      "                               identical to the in-memory run; only\n"
      "                               host memory and wall time change.\n"
      "                               Prints cache hit/miss/prefetch stats\n"
      "  --no-prefetch                disable the frontier-driven block\n"
      "                               prefetcher (demand-paged reads only;\n"
      "                               only meaningful with --memory-budget)\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") return false;
    const char* value = nullptr;
    if (arg == "--trace") {
      cli->trace = true;
      continue;
    }
    if (arg == "--no-fusion") {
      cli->no_fusion = true;
      continue;
    }
    if (arg == "--no-prefetch") {
      cli->no_prefetch = true;
      continue;
    }
    if ((value = next()) == nullptr) {
      std::fprintf(stderr, "missing value for %s\n", arg.c_str());
      return false;
    }
    if (arg == "--dataset") {
      cli->dataset = value;
    } else if (arg == "--rmat-scale") {
      cli->rmat_scale = static_cast<uint32_t>(std::atoi(value));
    } else if (arg == "--edge-factor") {
      cli->edge_factor = static_cast<uint32_t>(std::atoi(value));
    } else if (arg == "--seed") {
      cli->seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--algorithm") {
      cli->algorithm = value;
    } else if (arg == "--system") {
      cli->system = value;
    } else if (arg == "--interconnect") {
      cli->interconnect = value;
    } else if (arg == "--device-memory-mb") {
      cli->device_memory_mb = std::strtoull(value, nullptr, 10);
    } else if (arg == "--source") {
      cli->source = std::atoll(value);
    } else if (arg == "--batch-sources") {
      cli->batch_sources = std::atoi(value);
    } else if (arg == "--mutations") {
      cli->mutations = value;
    } else if (arg == "--compact-policy") {
      cli->compact_policy = value;
    } else if (arg == "--compact-threshold") {
      cli->compact_threshold = std::atoll(value);
    } else if (arg == "--serve") {
      cli->serve = value;
    } else if (arg == "--serve-capacity") {
      cli->serve_capacity = std::atoll(value);
    } else if (arg == "--memory-budget") {
      cli->memory_budget_mb = std::strtoull(value, nullptr, 10);
    } else if (arg == "--direction") {
      cli->direction = value;
    } else if (arg == "--alpha") {
      cli->alpha = value;
    } else if (arg == "--beta") {
      cli->beta = value;
    } else if (arg == "--streams") {
      cli->streams = std::atoi(value);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

/// One-line result summary: reached-vertex count for the value-selection
/// family, total mass for the value-accumulation family.
std::string Summarize(const QueryResult& result) {
  const AlgorithmInfo& info = GetAlgorithmInfo(result.algorithm);
  if (result.is_f64()) {
    double total = 0;
    for (double v : result.f64()) total += v;
    return std::string(info.name) + ": total mass " + FormatDouble(total, 3);
  }
  uint64_t reached = 0;
  for (uint32_t v : result.u32()) {
    if (v != kUnreachable && v != 0) ++reached;
  }
  return std::string(info.name) + ": " + std::to_string(reached) +
         " vertices with nontrivial values";
}

/// One line of a --serve workload file: when to submit, and what.
struct ServeEvent {
  double offset_ms = 0;
  ServingRequest request;
  size_t line = 0;  // 1-based source line, for error reporting
};

/// Parses 'OFFSET_MS ALGO SOURCE [PRIORITY [DEADLINE_MS]]' lines ('-' for
/// default source / no deadline; '#' comments and blank lines skipped).
Result<std::vector<ServeEvent>> ParseServeWorkload(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot open workload file: " + path);
  }
  std::vector<ServeEvent> events;
  std::string text;
  for (size_t line = 1; std::getline(file, text); ++line) {
    const size_t comment = text.find('#');
    if (comment != std::string::npos) text.resize(comment);
    std::istringstream fields(text);
    ServeEvent event;
    event.line = line;
    std::string algorithm, source;
    if (!(fields >> event.offset_ms)) continue;  // blank / comment-only
    if (!(fields >> algorithm >> source)) {
      return Status::InvalidArgument(path + ":" + std::to_string(line) +
                                     ": need OFFSET_MS ALGO SOURCE");
    }
    auto parsed = ParseAlgorithmName(algorithm);
    if (!parsed.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line) +
                                     ": " + parsed.status().message());
    }
    event.request.query.algorithm = *parsed;
    if (source != "-") {
      event.request.query.source =
          static_cast<VertexId>(std::strtoull(source.c_str(), nullptr, 10));
    }
    std::string deadline;
    if (fields >> event.request.priority && fields >> deadline &&
        deadline != "-") {
      const double deadline_ms = std::strtod(deadline.c_str(), nullptr);
      event.request.deadline = std::chrono::microseconds(
          std::max<int64_t>(1, static_cast<int64_t>(deadline_ms * 1e3)));
    }
    events.push_back(event);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const ServeEvent& a, const ServeEvent& b) {
                     return a.offset_ms < b.offset_ms;
                   });
  return events;
}

/// Open-loop replay: every request is submitted at its offset no matter
/// how the earlier ones are doing — so overload shows up as backpressure
/// rejections and deadline sheds, exactly like a live server.
int RunServe(Engine& engine, const CliOptions& cli) {
  auto events = ParseServeWorkload(cli.serve);
  if (!events.ok()) {
    std::fprintf(stderr, "%s\n", events.status().ToString().c_str());
    return 1;
  }
  QueryServerOptions options;
  if (cli.serve_capacity > 0) {
    options.lane_capacity = static_cast<size_t>(cli.serve_capacity);
  }
  options.enable_fusion = !cli.no_fusion;
  QueryServer server(&engine, options);
  std::printf("\nserving %zu requests open-loop from %s (fusion %s, lane "
              "capacity %zu)\n",
              events->size(), cli.serve.c_str(),
              options.enable_fusion ? "on" : "off", options.lane_capacity);

  std::vector<std::future<Result<QueryResult>>> futures;
  futures.reserve(events->size());
  const auto start = std::chrono::steady_clock::now();
  for (const ServeEvent& event : *events) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(event.offset_ms)));
    auto submitted = server.Submit(event.request);
    if (!submitted.ok()) {
      // Backpressure is workload data, not a CLI failure; the counter in
      // the summary reports it.
      continue;
    }
    futures.push_back(std::move(submitted).value());
  }
  uint64_t completed = 0, shed = 0, failed = 0;
  for (auto& future : futures) {
    Result<QueryResult> result = future.get();
    if (result.ok()) {
      ++completed;
    } else if (result.status().IsDeadlineExceeded()) {
      ++shed;
    } else {
      ++failed;
      std::fprintf(stderr, "request failed: %s\n",
                   result.status().ToString().c_str());
    }
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  server.Shutdown();

  const ServingStats stats = server.stats();
  TablePrinter table({"counter", "value"});
  table.AddRow({"submitted", std::to_string(stats.submitted)});
  table.AddRow({"admitted", std::to_string(stats.admitted)});
  table.AddRow({"rejected (backpressure)", std::to_string(stats.rejected)});
  table.AddRow({"completed", std::to_string(stats.completed)});
  table.AddRow({"failed", std::to_string(stats.failed)});
  table.AddRow({"shed (deadline)", std::to_string(stats.shed_deadline)});
  table.AddRow({"solver runs after fusion",
                std::to_string(stats.executed_queries)});
  table.AddRow({"requests fused away", std::to_string(stats.fused_requests)});
  table.AddRow({"dispatch batches", std::to_string(stats.dispatch_batches)});
  table.AddRow({"queue depth high water",
                std::to_string(stats.queue_depth_high_water)});
  table.AddRow({"fusion ratio", FormatDouble(stats.FusionRatio(), 3)});
  table.AddRow({"shed rate", FormatDouble(stats.ShedRate(), 3)});
  table.AddRow({"throughput (queries/s)",
                FormatDouble(static_cast<double>(stats.completed) /
                                 std::max(wall_seconds, 1e-9),
                             1)});
  table.AddRow({"p50 latency ms",
                FormatDouble(stats.p50_latency_seconds * 1e3, 3)});
  table.AddRow({"p99 latency ms",
                FormatDouble(stats.p99_latency_seconds * 1e3, 3)});
  table.Print();
  if (!stats.priority_classes.empty()) {
    std::printf("per priority class:\n");
    TablePrinter classes(
        {"priority", "served", "shed", "qps", "p50 ms", "p99 ms"});
    for (const PriorityClassStats& row : stats.priority_classes) {
      classes.AddRow({std::to_string(row.priority),
                      std::to_string(row.served),
                      std::to_string(row.shed_deadline),
                      FormatDouble(row.qps, 1),
                      FormatDouble(row.p50_latency_seconds * 1e3, 3),
                      FormatDouble(row.p99_latency_seconds * 1e3, 3)});
    }
    classes.Print();
  }
  const bool accounted =
      stats.completed + stats.failed + stats.shed_deadline == stats.admitted &&
      completed == stats.completed && shed == stats.shed_deadline;
  if (!accounted) {
    std::fprintf(stderr, "serving counters do not add up\n");
    return 1;
  }
  return failed == 0 ? 0 : 1;
}

void PrintStorageStats(const Engine& engine) {
  if (!engine.out_of_core()) return;
  const StorageStats stats = engine.storage_stats();
  std::printf("block cache: %llu hit(s), %llu miss(es), %llu eviction(s), "
              "%s read back; hit rate %.3f, prefetch accuracy %.3f "
              "(%llu issued, %llu useful)\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.evictions),
              HumanBytes(stats.bytes_read).c_str(), stats.HitRate(),
              stats.PrefetchAccuracy(),
              static_cast<unsigned long long>(stats.prefetch_issued),
              static_cast<unsigned long long>(stats.prefetch_useful));
}

void PrintTrace(const RunTrace& trace) {
  TablePrinter table(
      {"iter", "dir", "active", "E-F", "E-C", "I-ZC", "I-UM", "ms"});
  for (size_t i = 0; i < trace.iterations.size(); ++i) {
    const IterationTrace& it = trace.iterations[i];
    table.AddRow({std::to_string(i), TraversalDirectionName(it.direction),
                  std::to_string(it.active_vertices),
                  std::to_string(it.partitions_filter),
                  std::to_string(it.partitions_compaction),
                  std::to_string(it.partitions_zero_copy),
                  std::to_string(it.partitions_um),
                  FormatDouble(it.sim_seconds * 1e3, 3)});
  }
  table.Print();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    PrintUsage();
    return 2;
  }

  // --- Graph ---
  CsrGraph graph;
  uint64_t default_device_memory = 0;
  if (!cli.dataset.empty()) {
    auto spec = FindDataset(cli.dataset);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 1;
    }
    auto loaded = LoadDataset(*spec);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded).value();
    default_device_memory = DeviceMemoryBudget(*spec, graph);
  } else {
    RmatOptions gen;
    gen.scale = cli.rmat_scale != 0 ? cli.rmat_scale : 16;
    gen.edge_factor = cli.edge_factor;
    gen.seed = cli.seed;
    auto generated = GenerateRmat(gen);
    if (!generated.ok()) {
      std::fprintf(stderr, "%s\n", generated.status().ToString().c_str());
      return 1;
    }
    graph = std::move(generated).value();
    default_device_memory = graph.EdgeDataBytes() / 2;  // 2x oversubscribed
  }

  // --- Query ---
  auto algorithm = ParseAlgorithmName(cli.algorithm);
  if (!algorithm.ok()) {
    std::fprintf(stderr, "%s\n", algorithm.status().ToString().c_str());
    PrintUsage();
    return 2;
  }

  // --- Engine options ---
  auto system = ParseSystemKind(cli.system);
  if (!system.ok()) {
    std::fprintf(stderr, "%s\n", system.status().ToString().c_str());
    return 1;
  }
  SolverOptions options = SolverOptions::Defaults(*system);
  options.num_streams = cli.streams;
  if (!cli.direction.empty()) {
    auto direction = ParseTraversalDirection(cli.direction);
    if (!direction.ok()) {
      std::fprintf(stderr, "%s\n", direction.status().ToString().c_str());
      return 2;
    }
    options.direction = *direction;
  }
  // Strict parse: junk and nonpositive values error loudly instead of
  // silently running with the defaults.
  auto parse_threshold = [](const std::string& text, const char* flag,
                            double* out) {
    if (text.empty()) return true;  // not given: keep the library default
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value) ||
        value <= 0) {
      std::fprintf(stderr, "%s must be a positive finite number, got '%s'\n",
                   flag, text.c_str());
      return false;
    }
    *out = value;
    return true;
  };
  if (!parse_threshold(cli.alpha, "--alpha", &options.direction_alpha) ||
      !parse_threshold(cli.beta, "--beta", &options.direction_beta)) {
    return 2;
  }
  options.device_memory_override = cli.device_memory_mb != 0
                                       ? cli.device_memory_mb << 20
                                       : default_device_memory;
  if (!cli.interconnect.empty()) {
    auto link = FindInterconnect(cli.interconnect);
    if (!link.ok()) {
      std::fprintf(stderr, "%s\n", link.status().ToString().c_str());
      return 1;
    }
    options.gpu = WithInterconnect(options.gpu, *link);
    options.pcie.effective_bandwidth_fraction = 1.0;  // already derated
  }

  if (cli.source >= 0 &&
      static_cast<uint64_t>(cli.source) >= graph.num_vertices()) {
    std::fprintf(stderr, "source %lld out of range\n",
                 static_cast<long long>(cli.source));
    return 1;
  }

  CompactionPolicy compaction;
  if (!cli.compact_policy.empty()) {
    if (cli.compact_policy == "threshold") {
      compaction.mode = CompactionMode::kThreshold;
    } else if (cli.compact_policy == "manual") {
      compaction.mode = CompactionMode::kManual;
    } else if (cli.compact_policy == "background") {
      compaction.mode = CompactionMode::kBackground;
    } else {
      std::fprintf(stderr,
                   "unknown --compact-policy %s (threshold|manual|background)\n",
                   cli.compact_policy.c_str());
      return 2;
    }
  }
  if (cli.compact_threshold >= 0) {
    // An explicit threshold is exact: disable the fractional knob so the
    // fold triggers at precisely N pending delta edges.
    compaction.min_delta_edges =
        static_cast<uint64_t>(cli.compact_threshold);
    compaction.delta_fraction = 0.0;
  }

  StorageOptions storage;
  if (cli.memory_budget_mb > 0) {
    storage.memory_budget_bytes = cli.memory_budget_mb << 20;
    storage.prefetch = !cli.no_prefetch;
  }
  const uint64_t edge_bytes = graph.EdgeDataBytes();

  Engine engine(std::move(graph), options, compaction, storage);
  std::printf("graph: %u vertices, %llu edges (%s); device memory %s; "
              "system %s; link %s\n",
              engine.graph().num_vertices(),
              static_cast<unsigned long long>(engine.graph().num_edges()),
              HumanBytes(edge_bytes).c_str(),
              HumanBytes(options.DeviceMemory()).c_str(),
              SystemKindName(*system), options.gpu.pcie_gen.c_str());
  if (cli.memory_budget_mb > 0) {
    if (engine.out_of_core()) {
      std::printf("out-of-core: edge blocks stream through a %s cache "
                  "(prefetch %s)\n",
                  HumanBytes(storage.memory_budget_bytes).c_str(),
                  storage.prefetch ? "on" : "off");
    } else {
      std::printf("out-of-core: spill failed, running in memory\n");
    }
  }

  Query query;
  query.algorithm = *algorithm;
  if (cli.source >= 0) query.source = static_cast<VertexId>(cli.source);
  // --source -1 leaves query.source at kInvalidVertex: the Engine resolves
  // it to DefaultSource() (the highest out-degree vertex).

  if (cli.batch_sources > 0 && !cli.mutations.empty()) {
    std::fprintf(stderr,
                 "--mutations replays a single query; drop --batch-sources\n");
    return 2;
  }

  // --- Concurrent serving replay ---
  if (!cli.serve.empty()) {
    if (cli.batch_sources > 0 || !cli.mutations.empty()) {
      std::fprintf(stderr,
                   "--serve replays its own workload; drop --batch-sources "
                   "and --mutations\n");
      return 2;
    }
    return RunServe(engine, cli);
  }

  // --- Batched multi-source execution ---
  if (cli.batch_sources > 0) {
    if (!GetAlgorithmInfo(*algorithm).needs_source) {
      std::fprintf(stderr,
                   "--batch-sources needs a source-seeded algorithm "
                   "(bfs|sssp|php|sswp), not %s\n",
                   AlgorithmName(*algorithm));
      return 2;
    }
    // An explicit --source leads the batch; the rest are the highest
    // out-degree vertices (skipping duplicates).
    std::vector<VertexId> sources;
    if (cli.source >= 0) sources.push_back(static_cast<VertexId>(cli.source));
    for (VertexId v : TopOutDegreeVertices(
             engine.graph(), static_cast<size_t>(cli.batch_sources))) {
      if (sources.size() >= static_cast<size_t>(cli.batch_sources)) break;
      if (sources.empty() || v != sources.front()) sources.push_back(v);
    }
    std::vector<Query> batch(sources.size(), query);
    for (size_t i = 0; i < sources.size(); ++i) batch[i].source = sources[i];

    auto results = engine.RunBatch(batch);
    if (!results.ok()) {
      std::fprintf(stderr, "%s\n", results.status().ToString().c_str());
      return 1;
    }
    TablePrinter table({"source", "out-deg", "summary", "iters", "sim ms",
                        "prep"});
    double total_sim = 0;
    for (const QueryResult& result : *results) {
      total_sim += result.trace.total_sim_seconds;
      table.AddRow(
          {std::to_string(result.source),
           std::to_string(engine.graph().out_degree(result.source)),
           Summarize(result), std::to_string(result.trace.NumIterations()),
           FormatDouble(result.trace.total_sim_seconds * 1e3, 3),
           result.prepared_cache_hit ? "cached" : "prepared"});
    }
    table.Print();
    const EngineCacheStats stats = engine.cache_stats();
    std::printf("batch of %zu: %.4f ms simulated total; preparation cache "
                "%llu hit(s), %llu miss(es), %llu entr%s\n",
                results->size(), total_sim * 1e3,
                static_cast<unsigned long long>(stats.hits),
                static_cast<unsigned long long>(stats.misses),
                static_cast<unsigned long long>(stats.entries),
                stats.entries == 1 ? "y" : "ies");
    if (cli.trace && !results->empty()) {
      std::printf("trace of the first query only (source %u):\n",
                  results->front().source);
      PrintTrace(results->front().trace);
    }
    PrintStorageStats(engine);
    return 0;
  }

  // --- Single query ---
  auto result = engine.Run(query);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", Summarize(*result).c_str());
  std::printf("iterations: %llu   simulated time: %.4f ms   transferred: "
              "%s   kernel edges: %llu\n",
              static_cast<unsigned long long>(result->trace.NumIterations()),
              result->trace.total_sim_seconds * 1e3,
              HumanBytes(result->trace.TotalTransferredBytes()).c_str(),
              static_cast<unsigned long long>(
                  result->trace.TotalKernelEdges()));
  if (cli.trace) PrintTrace(result->trace);
  PrintStorageStats(engine);

  // --- Mutation replay ---
  if (!cli.mutations.empty()) {
    auto batches = MutationBatch::ParseReplayFile(cli.mutations);
    if (!batches.ok()) {
      std::fprintf(stderr, "%s\n", batches.status().ToString().c_str());
      return 1;
    }
    // Pin the resolved source so every replayed query warm-starts from the
    // previous epoch's result.
    if (GetAlgorithmInfo(*algorithm).needs_source) {
      query.source = result->source;
    }
    std::printf("\nreplaying %zu mutation batch(es) from %s\n",
                batches->size(), cli.mutations.c_str());
    TablePrinter table({"epoch", "+edges", "-edges", "pending delta",
                        "compacted", "mode", "wall ms", "summary"});
    QueryResult last = std::move(result).value();
    for (const MutationBatch& batch : *batches) {
      auto applied = engine.ApplyMutations(batch);
      if (!applied.ok()) {
        std::fprintf(stderr, "%s\n", applied.status().ToString().c_str());
        return 1;
      }
      WallTimer timer;
      auto rerun = engine.RunIncremental(query, last);
      const double wall_ms = timer.Millis();
      if (!rerun.ok()) {
        std::fprintf(stderr, "%s\n", rerun.status().ToString().c_str());
        return 1;
      }
      table.AddRow({std::to_string(applied->epoch),
                    std::to_string(applied->inserted),
                    std::to_string(applied->deleted),
                    std::to_string(applied->pending_delta_edges),
                    applied->compacted        ? "yes"
                    : applied->fold_scheduled ? "queued"
                                              : "no",
                    rerun->incremental ? "incremental" : "full",
                    FormatDouble(wall_ms, 3), Summarize(*rerun)});
      last = std::move(*rerun);
    }
    table.Print();
    // Background folds may still be in flight; drain them so the fold
    // stats below reflect the whole replay.
    engine.WaitForCompaction();
    const auto folds = engine.compactor_stats();
    if (folds.folds > 0) {
      std::printf("folds: %llu (%.3f ms total, off the %s path)\n",
                  static_cast<unsigned long long>(folds.folds),
                  folds.total_seconds * 1e3,
                  compaction.mode == CompactionMode::kBackground
                      ? "mutator/query"
                      : "read");
    }
  }
  return 0;
}
