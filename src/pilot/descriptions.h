#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/units.h"
#include "saga/url.h"

/// \file descriptions.h
/// Pilot and Compute-Unit descriptions — the user-facing vocabulary of
/// the Pilot-API ("Pilots are described using a Pilot description, which
/// contains the resource requirements of the Pilot").

namespace hoh::pilot {

/// How the agent provisions its execution backend (paper Fig. 1).
enum class AgentBackend {
  kPlain,       // classic RADICAL-Pilot: fork/mpiexec on the allocation
  kYarnModeI,   // bootstrap YARN + HDFS on the allocation (Hadoop on HPC)
  kYarnModeII,  // connect to an existing YARN cluster (HPC on Hadoop)
  kSparkModeI,  // bootstrap a standalone Spark cluster on the allocation
};

std::string to_string(AgentBackend backend);

/// Resource request for one pilot.
struct PilotDescription {
  /// Target resource, e.g. "slurm://stampede/" or "sge://wrangler/".
  std::string resource;
  int nodes = 1;
  common::Seconds runtime = 3600.0;  // walltime
  std::string queue = "normal";
  std::string project;
  AgentBackend backend = AgentBackend::kPlain;
};

/// A file a Compute-Unit stages in or out.
struct StagedFile {
  saga::Url url;          // source (stage-in) or destination (stage-out)
  common::Bytes size = 0;
};

/// What a Compute-Unit runs. In this reproduction the payload's work is a
/// simulated duration (produced by a workload cost model); everything
/// around it — scheduling, launching, staging, YARN/Spark dispatch — is
/// executed by the real middleware code paths.
struct ComputeUnitDescription {
  std::string name = "unit";
  std::string executable = "/bin/task";
  std::vector<std::string> arguments;

  int cores = 1;
  common::MemoryMb memory_mb = 2048;

  /// Virtual seconds of payload work once running.
  common::Seconds duration = 1.0;

  /// Simulated exit code of the payload: non-zero marks the unit Failed
  /// after it runs (failure-injection hook for tests and resilience
  /// studies).
  int exit_code = 0;

  std::vector<StagedFile> input_staging;
  std::vector<StagedFile> output_staging;

  /// Nodes this unit prefers (data locality, filled by data-aware
  /// schedulers). Empty = anywhere.
  std::vector<std::string> preferred_nodes;

  /// MPI units are gang-scheduled across cores (launch via mpiexec).
  bool is_mpi = false;

  /// Unit ids this unit must wait for (workflow dependencies). The
  /// Unit-Manager holds the unit back until every dependency is Done;
  /// if any dependency fails or is canceled, the unit is canceled.
  std::vector<std::string> depends_on;
};

}  // namespace hoh::pilot
