#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/trace.h"
#include "yarn/application_master.h"
#include "yarn/resource_manager.h"

/// \file yarn_mr_driver.h
/// A Hadoop-MapReduce-style YARN application: one Application Master that
/// requests map containers (honoring split locality), barriers, then
/// requests reduce containers — the execution structure of a real MRv2
/// job, driven entirely through the simulated YARN protocol. Task
/// durations come from a cost model (e.g. mapreduce::estimate_phase).
///
/// Fault tolerance follows MRv2 semantics: a task whose container is
/// lost (node failure, preemption) is re-requested up to
/// max_task_attempts; losing the AM container starts a fresh AM attempt
/// (up to yarn.am_max_attempts) which re-runs the job's task graph from
/// scratch; the job is marked failed only once a task or the AM exhausts
/// its budget.

namespace hoh::mapreduce {

/// Description of one simulated MR job run on YARN.
struct YarnMrJobSpec {
  std::string name = "mr-job";
  std::string queue = "default";
  int map_tasks = 4;
  int reduce_tasks = 1;
  yarn::Resource map_resource{2048, 1};
  yarn::Resource reduce_resource{2048, 1};
  common::Seconds map_task_seconds = 10.0;
  common::Seconds reduce_task_seconds = 5.0;

  /// mapreduce.map|reduce.maxattempts: executions of one task before the
  /// job fails (Hadoop default 4).
  int max_task_attempts = 4;

  /// Preferred node per map task (input split location); empty or
  /// shorter than map_tasks = no preference for the remainder.
  std::vector<std::string> split_locations;
};

/// Progress snapshot.
struct YarnMrJobStatus {
  int maps_done = 0;
  int reduces_done = 0;
  bool finished = false;
  /// True when the job gave up (task attempts or AM attempts exhausted).
  bool failed = false;
  /// Tasks re-executed after container loss (all attempts beyond the
  /// first, summed over the job).
  int task_retries = 0;
  /// AM attempts beyond the first this driver observed.
  int am_restarts = 0;
  /// Fraction of map containers granted on their preferred node.
  double map_locality = 0.0;
};

/// Submits and tracks MR-style YARN applications.
class YarnMrDriver {
 public:
  explicit YarnMrDriver(yarn::ResourceManager& rm) : rm_(rm) {}

  YarnMrDriver(const YarnMrDriver&) = delete;
  YarnMrDriver& operator=(const YarnMrDriver&) = delete;

  /// Optional trace sink: task re-execution and job-failure decisions
  /// are recorded under category "mapreduce".
  void set_trace(sim::Trace* trace) { trace_ = trace; }

  /// Submits the job; \p on_done fires when the reduce phase finished
  /// and the application unregistered (success only). Failure is pushed
  /// into the driver's record via the RM's completion notification the
  /// moment the application reaches a final state — status() reflects it
  /// without polling. Returns the application id.
  std::string submit(const YarnMrJobSpec& spec,
                     std::function<void()> on_done = nullptr);

  YarnMrJobStatus status(const std::string& app_id) const;

 private:
  struct JobRec {
    YarnMrJobSpec spec;
    YarnMrJobStatus progress;
    int maps_local = 0;
    /// AM attempt epoch: bumped on every on_am_start. Callbacks from an
    /// older attempt (timers of tasks that died with it) are ignored.
    int epoch = 0;
    /// Executions started per task key ("m3", "r0"), current attempt.
    std::map<std::string, int> task_attempts;
    /// Live container id -> task key (current attempt only).
    std::map<std::string, std::string> container_task;
    std::function<void()> on_done;
  };

  void run_attempt(const std::string& app_id, yarn::ApplicationMaster& am);
  void request_map_task(const std::string& app_id,
                        yarn::ApplicationMaster& am, int task, int epoch);
  void request_reduce_task(const std::string& app_id,
                           yarn::ApplicationMaster& am, int task, int epoch);
  void handle_lost_container(const std::string& app_id,
                             yarn::ApplicationMaster& am,
                             const yarn::Container& c, int epoch);
  void start_reduce_phase(const std::string& app_id,
                          yarn::ApplicationMaster& am, int epoch);
  void fail_job(const std::string& app_id, yarn::ApplicationMaster& am,
                const std::string& reason);
  void trace_event(const std::string& name,
                   sim::TraceAttrs attrs);

  yarn::ResourceManager& rm_;
  sim::Trace* trace_ = nullptr;
  std::map<std::string, JobRec> jobs_;
};

}  // namespace hoh::mapreduce
