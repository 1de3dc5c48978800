/// Web-scale benchmark (DESIGN.md §13): drives one large K-Means cell —
/// by default the scale_keystone shape, 10,000 nodes and 1,000,000
/// Compute-Units — through the full middleware stack and reports host
/// throughput (engine events/sec, units/sec) plus peak RSS. The cell
/// runs with trace rollup, which decides only what the trace stores: the
/// RollupParityTest ctest checks that rollup leaves both digests of a
/// small cell unchanged.
///
/// Usage:
///   scale_benchmark [--nodes N] [--tasks T] [--iterations I]
///                   [--assert-min-events-per-sec X]
///                   [--assert-max-rss-mb Y] [--out BENCH_scale.json]
///
/// CI runs the 1k-node / 100k-unit trajectory point with both gates
/// armed; the committed BENCH_scale.json is the full keystone run.

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace hoh;
using analytics::KmeansExperimentConfig;
using analytics::KmeansExperimentResult;

double peak_rss_mb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KB
}

KmeansExperimentConfig cell_config(int nodes, int tasks, int iterations) {
  KmeansExperimentConfig cfg;
  cfg.machine = cluster::generic_profile();
  cfg.scheduler = hpc::SchedulerKind::kSlurm;
  cfg.scenario = analytics::scenario_1m_points();
  cfg.scenario.clusters = 100;
  cfg.scenario.iterations = iterations;
  cfg.nodes = nodes;
  cfg.tasks = tasks;
  cfg.yarn_stack = false;
  cfg.spawn_latency = 0.001;
  cfg.trace_rollup = true;  // the raw event list would dominate RSS
  // 20 iterations of 50k units need ~5 simulated days; the 48 h default
  // pilot walltime would kill the keystone mid-trajectory.
  cfg.pilot_runtime = 14 * 24 * 3600.0;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  int nodes = 10000, tasks = 25000, iterations = 20;
  double min_events_per_sec = 0.0, max_rss_mb = 0.0;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--nodes" && next) {
      nodes = std::atoi(argv[++i]);
    } else if (arg == "--tasks" && next) {
      tasks = std::atoi(argv[++i]);
    } else if (arg == "--iterations" && next) {
      iterations = std::atoi(argv[++i]);
    } else if (arg == "--assert-min-events-per-sec" && next) {
      min_events_per_sec = std::atof(argv[++i]);
    } else if (arg == "--assert-max-rss-mb" && next) {
      max_rss_mb = std::atof(argv[++i]);
    } else if (arg == "--out" && next) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "scale_benchmark: unknown argument %s\n",
                   arg.c_str());
      return 2;
    }
  }

  benchutil::print_header(
      "Web-scale cell — throughput and memory at 10k nodes / 1M units",
      "scale trajectory (DESIGN.md §13): batched event delivery, bitmap "
      "scheduling, rollup tracing");

  // Timed cell.
  const std::size_t expected_units = static_cast<std::size_t>(tasks) * 2 *
                                     static_cast<std::size_t>(iterations);
  std::printf("timed cell: %d nodes, %zu units\n", nodes, expected_units);
  const auto t0 = std::chrono::steady_clock::now();
  const KmeansExperimentResult result = analytics::run_kmeans_experiment(
      cell_config(nodes, tasks, iterations));
  const auto t1 = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(t1 - t0).count();
  const double events_per_sec =
      wall_s > 0.0 ? static_cast<double>(result.engine_events) / wall_s : 0.0;
  const double units_per_sec =
      wall_s > 0.0 ? static_cast<double>(result.units_completed) / wall_s
                   : 0.0;
  const double rss_mb = peak_rss_mb();

  std::printf(
      "  wall %.1f s, %llu engine events (%.0f events/s), "
      "%zu units (%.0f units/s), peak RSS %.0f MB\n"
      "  ttc %.1f simulated s, digest %s%s\n",
      wall_s, static_cast<unsigned long long>(result.engine_events),
      events_per_sec, result.units_completed, units_per_sec, rss_mb,
      result.time_to_completion, result.output_checksum.c_str(),
      result.ok ? "" : "  [FAILED]");

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << "{\n"
        << "  \"config\": {\"nodes\": " << nodes << ", \"tasks\": " << tasks
        << ", \"iterations\": " << iterations << ", \"units\": "
        << expected_units << "},\n"
        << "  \"wall_s\": " << wall_s << ",\n"
        << "  \"engine_events\": " << result.engine_events << ",\n"
        << "  \"events_per_sec\": " << events_per_sec << ",\n"
        << "  \"units_completed\": " << result.units_completed << ",\n"
        << "  \"units_per_sec\": " << units_per_sec << ",\n"
        << "  \"peak_rss_mb\": " << rss_mb << ",\n"
        << "  \"time_to_completion_s\": " << result.time_to_completion
        << ",\n"
        << "  \"output_checksum\": \"" << result.output_checksum << "\",\n"
        << "  \"ok\": " << (result.ok ? "true" : "false") << "\n"
        << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!result.ok) {
    std::fprintf(stderr, "scale_benchmark: cell incomplete (%zu/%zu)\n",
                 result.units_completed, expected_units);
    return 1;
  }
  if (min_events_per_sec > 0.0 && events_per_sec < min_events_per_sec) {
    std::fprintf(stderr,
                 "scale_benchmark: throughput gate FAILED "
                 "(%.0f < %.0f events/s)\n",
                 events_per_sec, min_events_per_sec);
    return 1;
  }
  if (max_rss_mb > 0.0 && rss_mb > max_rss_mb) {
    std::fprintf(stderr,
                 "scale_benchmark: memory gate FAILED (%.0f > %.0f MB)\n",
                 rss_mb, max_rss_mb);
    return 1;
  }
  return 0;
}
