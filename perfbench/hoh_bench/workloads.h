#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"

/// \file workloads.h
/// The benchmark's four workloads, composed from the public Pilot-API
/// the way analytics::run_kmeans_experiment and bench/loadtest_gateway
/// compose them, with the benchmark's own calls into each layer wrapped in
/// spans. One round is one fresh Session run from construction to the
/// end of its timed phase.

namespace hoh::bench {

/// Barrier-synchronized K-Means waves (map then reduce, per iteration)
/// on one plain or RP-YARN Mode-I pilot; watch plane, 16 store shards,
/// rollup tracing, 1 ms spawn latency — the plans/scale_ci.json cell.
struct KmeansShape {
  int nodes = 0;
  int tasks = 0;  // units per wave
  int iterations = 0;
  bool yarn = false;
  bool socket = false;
};

/// Open-loop multi-tenant load in simulated time: seeded Poisson
/// arrivals from `tenants` tenants (every tenth one 10x heavier) at
/// `overload` times the pilot's capacity, through a fair-share gateway
/// whose dispatch window equals the pilot's cores.
struct TenantShape {
  int tenants = 0;
  int nodes = 0;
  int cores_per_node = 0;
  double horizon = 0.0;   // simulated seconds of arrivals
  double duration = 0.0;  // simulated seconds per unit
  double overload = 0.0;
};

struct Workload {
  std::string name;
  bool tenant = false;  // false: kmeans shape, true: tenant shape
  KmeansShape kmeans;
  TenantShape load;
  std::uint64_t default_seed = 0;
};

/// "bench" (the timed default), "smoke" (~1/20 of full) or "full" (the
/// shapes the workloads were designed at; kmeans_inproc at full scale
/// is plans/scale_ci.json). Throws ConfigError for an unknown name.
Workload find_workload(const std::string& name, const std::string& scale);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one round measured.
struct RoundResult {
  bool traced = false;
  double setup_s = 0.0;  // round start to the start of the timed phase
  double timed_s = 0.0;
  std::uint64_t attempted = 0;  // units the client submitted
  std::uint64_t done = 0;
  std::uint64_t failed = 0;  // failed, canceled, rejected or missing
  /// Host microseconds per submitted unit of each client submit call.
  std::vector<double> submit_us;
  std::vector<std::string> errors;
  /// Deterministic outputs: digest, engine events, simulated times.
  common::Json pins;
  /// Per-layer metrics (traced rounds only), by metric name; every
  /// workload reports the same names.
  std::map<std::string, Metric> layers;
};

/// Runs one round. \p traced installs TimingTransport; the benchmark's own
/// spans are recorded either way.
RoundResult run_round(const Workload& workload, std::uint64_t seed,
                      bool traced);

}  // namespace hoh::bench
