#include "mapreduce/yarn_mr_driver.h"

#include "common/error.h"

namespace hoh::mapreduce {

namespace {
std::string map_key(int task) { return "m" + std::to_string(task); }
std::string reduce_key(int task) { return "r" + std::to_string(task); }
}  // namespace

std::string YarnMrDriver::submit(const YarnMrJobSpec& spec,
                                 std::function<void()> on_done) {
  if (spec.map_tasks < 1 || spec.reduce_tasks < 0) {
    throw common::ConfigError("YarnMrJobSpec: need >= 1 map task");
  }
  if (spec.max_task_attempts < 1) {
    throw common::ConfigError("YarnMrJobSpec: max_task_attempts must be >= 1");
  }
  auto shared_id = std::make_shared<std::string>();
  yarn::AppDescriptor app;
  app.name = spec.name;
  app.queue = spec.queue;
  app.on_am_start = [this, shared_id](yarn::ApplicationMaster& am) {
    run_attempt(*shared_id, am);
  };
  app.on_finished = [this, shared_id](const yarn::AppReport& report) {
    // The RM pushes the final outcome (e.g. AM attempts exhausted) — the
    // driver's record is updated eagerly instead of lazily in status().
    auto it = jobs_.find(*shared_id);
    if (it == jobs_.end()) return;
    JobRec& job = it->second;
    if (job.progress.finished || job.progress.failed) return;
    if (report.state == yarn::AppState::kFailed ||
        report.state == yarn::AppState::kKilled) {
      job.progress.failed = true;
    }
  };
  const std::string app_id = rm_.submit_application(std::move(app));
  *shared_id = app_id;
  JobRec rec;
  rec.spec = spec;
  rec.on_done = std::move(on_done);
  jobs_.emplace(app_id, std::move(rec));
  return app_id;
}

void YarnMrDriver::run_attempt(const std::string& app_id,
                               yarn::ApplicationMaster& am) {
  JobRec& job = jobs_.at(app_id);
  job.epoch += 1;
  const int epoch = job.epoch;
  if (epoch > 1) {
    // Fresh AM attempt after node loss: the task graph restarts from
    // scratch (the sim does not model MRv2 completed-map recovery).
    job.progress.maps_done = 0;
    job.progress.reduces_done = 0;
    job.progress.am_restarts += 1;
    job.maps_local = 0;
    job.task_attempts.clear();
    job.container_task.clear();
    trace_event("am_attempt_started",
                {{"app", app_id}, {"epoch", std::to_string(epoch)}});
  }
  am.on_preempted([this, app_id, &am, epoch](const yarn::Container& c) {
    handle_lost_container(app_id, am, c, epoch);
  });
  for (int t = 0; t < job.spec.map_tasks; ++t) {
    request_map_task(app_id, am, t, epoch);
  }
}

void YarnMrDriver::request_map_task(const std::string& app_id,
                                    yarn::ApplicationMaster& am, int task,
                                    int epoch) {
  JobRec& job = jobs_.at(app_id);
  job.task_attempts[map_key(task)] += 1;
  yarn::ContainerRequest req;
  req.resource = job.spec.map_resource;
  std::string preferred;
  if (task < static_cast<int>(job.spec.split_locations.size())) {
    preferred = job.spec.split_locations[static_cast<std::size_t>(task)];
    if (!preferred.empty()) req.preferred_nodes = {preferred};
  }
  am.request_containers(
      1, req,
      [this, app_id, &am, task, epoch, preferred](const yarn::Container& c) {
        JobRec& j = jobs_.at(app_id);
        if (j.epoch != epoch || j.progress.failed) return;
        j.container_task[c.id] = map_key(task);
        if (!preferred.empty() && c.node == preferred) j.maps_local += 1;
        am.launch(c.id, [this, app_id, &am, task, epoch, id = c.id] {
          JobRec& j2 = jobs_.at(app_id);
          if (j2.epoch != epoch || j2.progress.failed) return;
          rm_.engine().schedule(
              j2.spec.map_task_seconds,
              [this, app_id, &am, task, epoch, id] {
                JobRec& j3 = jobs_.at(app_id);
                if (j3.epoch != epoch || j3.progress.failed) return;
                // A container killed by a silent crash has no callback;
                // its timer still fires. Only a still-running container
                // counts as a completed task.
                if (rm_.container_state(id) !=
                    yarn::ContainerState::kRunning) {
                  return;
                }
                am.complete_container(id);
                j3.container_task.erase(id);
                j3.progress.maps_done += 1;
                if (j3.progress.maps_done == j3.spec.map_tasks) {
                  j3.progress.map_locality =
                      j3.spec.split_locations.empty()
                          ? 0.0
                          : static_cast<double>(j3.maps_local) /
                                static_cast<double>(j3.spec.map_tasks);
                  start_reduce_phase(app_id, am, epoch);
                }
              });
        });
      });
}

void YarnMrDriver::request_reduce_task(const std::string& app_id,
                                       yarn::ApplicationMaster& am, int task,
                                       int epoch) {
  JobRec& job = jobs_.at(app_id);
  job.task_attempts[reduce_key(task)] += 1;
  yarn::ContainerRequest req;
  req.resource = job.spec.reduce_resource;
  am.request_containers(
      1, req, [this, app_id, &am, task, epoch](const yarn::Container& c) {
        JobRec& j = jobs_.at(app_id);
        if (j.epoch != epoch || j.progress.failed) return;
        j.container_task[c.id] = reduce_key(task);
        am.launch(c.id, [this, app_id, &am, epoch, id = c.id] {
          JobRec& j2 = jobs_.at(app_id);
          if (j2.epoch != epoch || j2.progress.failed) return;
          rm_.engine().schedule(
              j2.spec.reduce_task_seconds, [this, app_id, &am, epoch, id] {
                JobRec& j3 = jobs_.at(app_id);
                if (j3.epoch != epoch || j3.progress.failed) return;
                if (rm_.container_state(id) !=
                    yarn::ContainerState::kRunning) {
                  return;
                }
                am.complete_container(id);
                j3.container_task.erase(id);
                j3.progress.reduces_done += 1;
                if (j3.progress.reduces_done == j3.spec.reduce_tasks) {
                  j3.progress.finished = true;
                  am.unregister(true);
                  if (j3.on_done) j3.on_done();
                }
              });
        });
      });
}

void YarnMrDriver::handle_lost_container(const std::string& app_id,
                                         yarn::ApplicationMaster& am,
                                         const yarn::Container& c,
                                         int epoch) {
  JobRec& job = jobs_.at(app_id);
  if (job.epoch != epoch || job.progress.failed || job.progress.finished) {
    return;
  }
  auto it = job.container_task.find(c.id);
  if (it == job.container_task.end()) return;  // not one of ours anymore
  const std::string key = it->second;
  job.container_task.erase(it);

  const int attempts = job.task_attempts[key];
  if (attempts >= job.spec.max_task_attempts) {
    trace_event("task_attempts_exhausted",
                {{"app", app_id},
                 {"task", key},
                 {"attempts", std::to_string(attempts)}});
    fail_job(app_id, am, "task " + key + " exhausted attempts");
    return;
  }
  job.progress.task_retries += 1;
  trace_event("task_retry", {{"app", app_id},
                             {"task", key},
                             {"attempt", std::to_string(attempts + 1)},
                             {"lost_container", c.id}});
  const int task = std::stoi(key.substr(1));
  if (key[0] == 'm') {
    request_map_task(app_id, am, task, epoch);
  } else {
    request_reduce_task(app_id, am, task, epoch);
  }
}

void YarnMrDriver::start_reduce_phase(const std::string& app_id,
                                      yarn::ApplicationMaster& am,
                                      int epoch) {
  JobRec& job = jobs_.at(app_id);
  if (job.spec.reduce_tasks == 0) {
    job.progress.finished = true;
    am.unregister(true);
    if (job.on_done) job.on_done();
    return;
  }
  for (int r = 0; r < job.spec.reduce_tasks; ++r) {
    request_reduce_task(app_id, am, r, epoch);
  }
}

void YarnMrDriver::fail_job(const std::string& app_id,
                            yarn::ApplicationMaster& am,
                            const std::string& reason) {
  JobRec& job = jobs_.at(app_id);
  if (job.progress.failed || job.progress.finished) return;
  job.progress.failed = true;
  trace_event("job_failed", {{"app", app_id}, {"reason", reason}});
  am.unregister(false);
}

void YarnMrDriver::trace_event(const std::string& name,
                               sim::TraceAttrs attrs) {
  if (!trace_) return;
  trace_->record(rm_.engine().now(), "mapreduce", name, std::move(attrs));
}

YarnMrJobStatus YarnMrDriver::status(const std::string& app_id) const {
  auto it = jobs_.find(app_id);
  if (it == jobs_.end()) {
    throw common::NotFoundError("YarnMrDriver: unknown job " + app_id);
  }
  // An application the RM failed or killed behind the driver's back (AM
  // attempts exhausted) is already folded in by its on_finished, so a
  // job whose application left the RM's window still answers.
  return it->second.progress;
}

}  // namespace hoh::mapreduce
